"""The reachability census tells a command that died from one that
exited with a verdict of its own.

A root that crashes early enters fewer functions than it should, and the
census would otherwise read that as dead code, or miss it.  A command
that exits non-zero on purpose (a regression check that trips, a
self-test that counts failures) still ran its course.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reach", REPO_ROOT / "benchmarks" / "reach.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outcome(reach, tmp_path, source: str) -> tuple[int, bool]:
    return reach.run_command(["-c", source], tmp_path, dict(os.environ))


def test_an_uncaught_exception_is_a_death(reach, tmp_path):
    assert outcome(reach, tmp_path, "raise RuntimeError('boom')") == (1, True)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_a_signal_is_a_death(reach, tmp_path):
    code, died = outcome(
        reach, tmp_path, "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"
    )
    assert code < 0 and died


def test_a_verdict_exit_is_not_a_death(reach, tmp_path):
    source = "import sys; print('2 regressions', file=sys.stderr); sys.exit(1)"
    assert outcome(reach, tmp_path, source) == (1, False)
    assert outcome(reach, tmp_path, "pass") == (0, False)
