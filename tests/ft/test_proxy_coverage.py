"""The §2 proxy contract: an FT proxy intercepts every operation.

The paper's FT proxies are "proxy classes derived from the stub classes":
each call goes through the proxy, which checkpoints after it and recovers
and retries on ``COMM_FAILURE``.  An operation the proxy side of the MRO
does not define resolves to the stub's plain method and silently bypasses
both.  These tests run :func:`make_ft_proxy` over every stub the IDL
compiler registered for the package's services.
"""

from __future__ import annotations

import importlib

from repro.ft.checkpointable import CHECKPOINT_OPERATIONS
from repro.ft.proxies import _FtProxyBase, make_ft_proxy
from repro.orb.stubs import INTERFACE_ANCESTRY, ObjectStub

#: the modules that compile (and so register) an IDL document on import.
IDL_MODULES = (
    "repro.bench.ftbench",
    "repro.ft.checkpointable",
    "repro.ft.factory",
    "repro.opt.worker",
    "repro.services.checkpoint",
    "repro.services.naming.idl",
    "repro.services.trader",
    "repro.winner.service",
)


def registered_stubs() -> list[type]:
    """Every generated stub class whose interface the IDL compiler
    registered (FT proxies, which derive from stubs, excluded)."""
    for module in IDL_MODULES:
        importlib.import_module(module)
    found: list[type] = []
    pending = [ObjectStub]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__repo_id__ in INTERFACE_ANCESTRY and not issubclass(
                sub, _FtProxyBase
            ):
                found.append(sub)
    return found


def unintercepted(stub_cls: type, proxy_cls: type) -> list[str]:
    """Operations of ``stub_cls`` that ``proxy_cls`` inherits unchanged
    from the stub (the checkpoint machinery itself is never wrapped)."""
    stub_side = set(stub_cls.__mro__)
    return [
        operation
        for operation in stub_cls.__operations__
        if operation not in CHECKPOINT_OPERATIONS
        and not any(
            operation in cls.__dict__
            for cls in proxy_cls.__mro__
            if cls not in stub_side
        )
    ]


def test_every_ft_proxy_intercepts_every_operation():
    stubs = registered_stubs()
    assert {stub.__name__ for stub in stubs} >= {
        "CheckpointStoreStub",
        "LoadDistributingNamingContextStub",
        "NamingContextStub",
        "ObjectFactoryStub",
        "RosenbrockWorkerStub",
        "SystemManagerStub",
        "TraderStub",
    }
    missing = {
        stub.__name__: unintercepted(stub, make_ft_proxy(stub))
        for stub in stubs
    }
    assert {name: ops for name, ops in missing.items() if ops} == {}


def test_an_operation_deleted_from_a_proxy_is_caught():
    stub = next(s for s in registered_stubs() if s.__name__ == "TraderStub")
    proxy = make_ft_proxy(stub)
    assert unintercepted(stub, proxy) == []
    operation = next(
        op for op in stub.__operations__ if op not in CHECKPOINT_OPERATIONS
    )
    delattr(proxy, operation)
    assert unintercepted(stub, proxy) == [operation]
