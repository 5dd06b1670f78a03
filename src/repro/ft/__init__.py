"""Runtime support for fault tolerance (§3 of the paper).

"Our concept is not based on replicated services in object groups but on
the integration of checkpointing and restarting functionality only. ...
Similar to the concept of passive replication, frequently (i.e. after each
method call on the server side) generated checkpoints are used to restart
a failed service."

* :mod:`repro.ft.checkpointable` — the ``Checkpointable`` IDL interface
  (get/restore state) service objects implement;
* :mod:`repro.ft.factory` — per-host ``ObjectFactory`` services used to
  re-create a failed server object on a (load-selected) host;
* :mod:`repro.ft.policy` — fault-tolerance policy knobs;
* :mod:`repro.ft.breaker` — per-host circuit breakers bounding wasted
  recovery work against dead/flapping hosts;
* :mod:`repro.ft.recovery` — the recovery coordinator: re-resolve through
  the (load-distributing) naming service, re-create, restore, rebind;
* :mod:`repro.ft.shipping` — the one :class:`StateShipper` (encode once,
  skip, delta vs. full, bounded FIFO window) that moves state to the
  checkpoint store *and* to warm standbys;
* :mod:`repro.ft.proxies` — :func:`make_ft_proxy`, the automated generation
  of "proxy classes derived from the stub classes" (the paper's alternative
  (c), with the manual step automated as the paper suggests);
* :mod:`repro.ft.request_proxy` — request proxies for DII invocations
  (the object proxy's call loop with a fresh Request per attempt);
* :mod:`repro.ft.detector` — a locate-ping failure detector;
* :mod:`repro.ft.migration` — load-triggered service migration, the
  capability §3 notes checkpointing enables;
* :mod:`repro.ft.replication` — first-class warm-passive and active
  replication groups (the Piranha/IGOR-style designs the paper argues
  against on resource grounds), selected by ``FtPolicy.ft_mode`` and
  measured against checkpoint/restart by the replication ablation.
"""

from repro.ft.breaker import CircuitBreaker, HostBreakerRegistry
from repro.ft.checkpointable import CheckpointableSkeleton, CheckpointableStub
from repro.ft.factory import (
    ObjectFactoryServant,
    ObjectFactoryStub,
    UnknownType,
)
from repro.ft.policy import FtPolicy
from repro.ft.recovery import RecoveryCoordinator
from repro.ft.shipping import Shipment, StateShipper
from repro.ft.proxies import FtContext, make_ft_proxy
from repro.ft.request_proxy import FtRequest
from repro.ft.detector import FailureDetector
from repro.ft.migration import MigrationPolicy, migrate_service
from repro.ft.replication import (
    ActiveGroup,
    ReplicaGroup,
    ReplicatedServant,
    WarmPassiveGroup,
    build_group,
)
from repro.ft.replicated_store import ReplicatedCheckpointStore

__all__ = [
    "ActiveGroup",
    "CheckpointableSkeleton",
    "CheckpointableStub",
    "CircuitBreaker",
    "HostBreakerRegistry",
    "FailureDetector",
    "FtContext",
    "FtPolicy",
    "FtRequest",
    "MigrationPolicy",
    "ObjectFactoryServant",
    "ObjectFactoryStub",
    "RecoveryCoordinator",
    "ReplicaGroup",
    "ReplicatedCheckpointStore",
    "ReplicatedServant",
    "Shipment",
    "StateShipper",
    "UnknownType",
    "WarmPassiveGroup",
    "build_group",
    "make_ft_proxy",
    "migrate_service",
]
