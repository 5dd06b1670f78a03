"""The checker families shipped with ``repro.analysis``."""

from repro.analysis.checkers.atomicity import AtomicityChecker
from repro.analysis.checkers.confflags import ConfigFlagChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.exceptions import ExceptionSafetyChecker
from repro.analysis.checkers.races import RaceChecker

#: registration order is report order.
ALL_CHECKERS = (
    DeterminismChecker,
    AtomicityChecker,
    RaceChecker,
    ConfigFlagChecker,
    ExceptionSafetyChecker,
)

__all__ = [
    "ALL_CHECKERS",
    "AtomicityChecker",
    "ConfigFlagChecker",
    "DeterminismChecker",
    "ExceptionSafetyChecker",
    "RaceChecker",
]
