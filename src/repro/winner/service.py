"""CORBA face of the Winner system manager.

The load-distributing naming service of Fig. 1 queries the system manager
through the ORB; this module defines the IDL interface and the servant
delegating to a local :class:`~repro.winner.system_manager.SystemManager`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.orb.idl import compile_idl

if TYPE_CHECKING:  # pragma: no cover
    from repro.winner.system_manager import SystemManager

WINNER_IDL = """
module Winner {
    struct HostLoad {
        string host;
        double speed;
        long cores;
        double utilization;
        double run_queue;
        double score;
        boolean alive;
    };
    typedef sequence<HostLoad> HostLoadSeq;
    typedef sequence<string> HostNameSeq;

    interface SystemManager {
        // Best alive host among candidates (all known hosts when empty);
        // returns "" when none qualifies.
        string best_host(in HostNameSeq candidates, in HostNameSeq exclude);
        // Charge a fresh placement against a host's score.
        void note_placement(in string host);
        HostLoadSeq snapshot();
        HostNameSeq alive_hosts();
    };
};
"""

idl = compile_idl(WINNER_IDL, name="winner")

HostLoad = idl.HostLoad
SystemManagerStub = idl.SystemManagerStub
SystemManagerSkeleton = idl.SystemManagerSkeleton


class SystemManagerServant(SystemManagerSkeleton):
    """Delegates the IDL operations to the local system manager."""

    def __init__(self, manager: "SystemManager") -> None:
        self.manager = manager

    def best_host(self, candidates, exclude):
        best = self.manager.best_host(
            candidates=list(candidates) or None, exclude=list(exclude)
        )
        return best or ""

    def note_placement(self, host):
        from repro.errors import ServiceError

        try:
            self.manager.note_placement(host)
        except ServiceError:
            pass  # placement on a host we have no record of yet: ignore

    def snapshot(self):
        return [
            HostLoad(
                host=row["host"],
                speed=row["speed"],
                cores=row["cores"],
                utilization=row["utilization"],
                run_queue=row["run_queue"],
                score=row["score"],
                alive=row["alive"],
            )
            for row in self.manager.snapshot()
        ]

    def alive_hosts(self):
        manager = self.manager
        return [name for name in sorted(manager.records) if manager.is_alive(name)]
