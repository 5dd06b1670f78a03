"""The ``Checkpointable`` interface.

"...assuming that the service object provides a method to create a
checkpoint for restarting the service if an error occurs" (§3).  Service
interfaces that want fault tolerance derive from ``FT::Checkpointable``;
their servants implement ``get_checkpoint``/``restore_from`` by encoding
whatever internal state a restarted instance needs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.orb.cdr import TC_ANY_IMAGE
from repro.orb.idl import compile_idl

CHECKPOINTABLE_IDL = """
module FT {
    interface Checkpointable {
        // A self-contained snapshot of the object's internal state.
        any get_checkpoint();
        // Replace the object's state with a previously taken snapshot.
        void restore_from(in any state);
    };
};
"""

ns = compile_idl(CHECKPOINTABLE_IDL, name="ft-checkpointable")

CheckpointableStub = ns.CheckpointableStub
CheckpointableSkeleton = ns.CheckpointableSkeleton

#: operations a fault-tolerance proxy must never wrap (they are the
#: recovery machinery itself).
CHECKPOINT_OPERATIONS = frozenset({"get_checkpoint", "restore_from"})

#: ``get_checkpoint`` as the fault-tolerance layer calls it to capture a
#: state: the same request, but a reply whose body decodes cleanly comes
#: back as an :class:`~repro.orb.cdr.AnyImage`, so the state can be hashed
#: and passed on to ``restore_from`` without being marshalled again.
CAPTURE_CHECKPOINT = replace(
    CheckpointableStub.__operations__["get_checkpoint"], result=TC_ANY_IMAGE
)
