"""The CORBA naming service with integrated load distribution.

"To integrate load distribution transparently into a CORBA environment,
our proposal is based on integrating it into the naming service.  This
ensures transparency for the client side and allows the reuse of the load
distribution naming service in any other CORBA compliant ORB
implementation." (§2)

* :mod:`repro.services.naming.names` — names, components, string form;
* :mod:`repro.services.naming.idl` — the CosNaming IDL (subset) plus the
  paper's ``LoadDistributingNamingContext`` extension, compiled at import;
* :mod:`repro.services.naming.context` — the standard naming context
  servant (compound names, sub-contexts, listing);
* :mod:`repro.services.naming.load_aware` — the load-distributing context:
  a name may hold a *service group* of replica references and ``resolve``
  transparently picks one with a pluggable strategy;
* :mod:`repro.services.naming.strategies` — first-bound, round-robin,
  random and Winner-backed selection strategies;
* :mod:`repro.services.naming.sharded` — the ORB-free sharded directory
  the scale harness resolves through.
"""

from repro.services.naming.names import (
    Name,
    NameComponent,
    name_from_string,
)
from repro.services.naming import idl
from repro.services.naming.context import NamingContextServant
from repro.services.naming.load_aware import LoadDistributingContextServant
from repro.services.naming.strategies import (
    BreakerAwareStrategy,
    FirstBoundStrategy,
    RandomStrategy,
    ResolveCache,
    ResolveCacheStats,
    RoundRobinStrategy,
    SelectionStrategy,
    WinnerStrategy,
)
from repro.services.naming.sharded import ShardedServiceDirectory

__all__ = [
    "BreakerAwareStrategy",
    "FirstBoundStrategy",
    "LoadDistributingContextServant",
    "Name",
    "NameComponent",
    "NamingContextServant",
    "RandomStrategy",
    "ResolveCache",
    "ResolveCacheStats",
    "RoundRobinStrategy",
    "SelectionStrategy",
    "ShardedServiceDirectory",
    "WinnerStrategy",
    "idl",
    "name_from_string",
]
