"""CLI exit-code matrix, stale directives, --select, and the cache.

Each test builds a tiny throwaway tree under ``tmp_path`` with one
exception-safety error (``repro/loader.py``) and one race error
(``repro/ft/state.py``) and drives ``repro.analysis.cli.run`` exactly the
way CI does.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import run

BARE_EXCEPT = (
    "def load(path):\n"
    "    try:\n"
    "        return open(path).read()\n"
    "    except:\n"
    "        return None\n"
)

RACY_STATE = (
    "class SimLock:\n"
    "    def __enter__(self):\n"
    "        return self\n"
    "    def __exit__(self, *exc):\n"
    "        return False\n"
    "\n"
    "\n"
    "class State:\n"
    "    def __init__(self):\n"
    "        self._lock = SimLock()\n"
    "        self.seq = 0\n"
    "\n"
    "    def bump(self):\n"
    "        with self._lock:\n"
    "            self.seq += 1\n"
    "\n"
    "    def reset(self):\n"
    "        self.seq = 0\n"
)


def _seed_tree(tmp_path: Path) -> Path:
    ft = tmp_path / "repro" / "ft"
    ft.mkdir(parents=True)
    (tmp_path / "repro" / "loader.py").write_text(
        BARE_EXCEPT, encoding="utf-8"
    )
    (ft / "state.py").write_text(RACY_STATE, encoding="utf-8")
    return tmp_path / "repro"


def _run_json(argv: list[str], json_path: Path):
    rc = run([*argv, "--json", str(json_path)])
    return rc, json.loads(json_path.read_text(encoding="utf-8"))


def test_errors_exit_nonzero(tmp_path):
    tree = _seed_tree(tmp_path)
    rc, payload = _run_json(
        [str(tree), "--root", str(tmp_path)],
        tmp_path / "report.json",
    )
    assert rc == 1
    codes = {f["code"] for f in payload["findings"]}
    assert codes == {"EXC001", "RACE004"}


def test_select_narrows_to_the_named_family(tmp_path):
    tree = _seed_tree(tmp_path)
    base = [str(tree), "--root", str(tmp_path)]
    rc, payload = _run_json(
        [*base, "--select", "RACE"], tmp_path / "race.json"
    )
    assert rc == 1
    assert {f["code"] for f in payload["findings"]} == {"RACE004"}
    rc, payload = _run_json([*base, "--select", "CFG"], tmp_path / "cfg.json")
    assert rc == 0
    assert payload["findings"] == []


def _silence_both(tree: Path) -> None:
    """Justify both seeded violations with an inline directive."""
    (tree / "loader.py").write_text(
        BARE_EXCEPT.replace(
            "    except:",
            "    # analysis: ignore[EXC001]: intentional fixture violation\n"
            "    except:",
        ),
        encoding="utf-8",
    )
    (tree / "ft" / "state.py").write_text(
        RACY_STATE.replace(
            "    def reset(self):\n",
            "    def reset(self):\n"
            "        # analysis: ignore[RACE004]: intentional fixture violation\n",
        ),
        encoding="utf-8",
    )


def test_silenced_tree_is_strict_clean(tmp_path):
    tree = _seed_tree(tmp_path)
    _silence_both(tree)
    rc, payload = _run_json(
        [str(tree), "--root", str(tmp_path), "--strict"],
        tmp_path / "report.json",
    )
    assert rc == 0
    assert payload["findings"] == []
    assert payload["summary"]["suppressed"] == 2


def test_new_finding_over_a_directive_fails(tmp_path):
    tree = _seed_tree(tmp_path)
    _silence_both(tree)
    (tree / "extra.py").write_text(BARE_EXCEPT, encoding="utf-8")
    rc = run([str(tree), "--root", str(tmp_path)])
    assert rc == 1


def test_stale_directive_fails_only_strict(tmp_path):
    tree = _seed_tree(tmp_path)
    _silence_both(tree)
    state = tree / "ft" / "state.py"
    # reset() now takes the lock: the RACE004 directive silences nothing.
    state.write_text(
        state.read_text(encoding="utf-8").replace(
            "fixture violation\n        self.seq = 0\n",
            "fixture violation\n        with self._lock:\n"
            "            self.seq = 0\n",
        ),
        encoding="utf-8",
    )
    common = [str(tree), "--root", str(tmp_path)]
    rc, payload = _run_json(common, tmp_path / "lenient.json")
    assert rc == 0
    assert [(f["code"], f["path"]) for f in payload["findings"]] == [
        ("ANA002", "repro/ft/state.py")
    ]
    assert payload["findings"][0]["severity"] == "warning"
    assert run([*common, "--strict"]) == 1
    # Under a --select that leaves RACE out, the RACE004 directive is not
    # evidence of anything: its checker never ran.
    assert run([*common, "--strict", "--select", "EXC"]) == 0
    assert run([*common, "--strict", "--select", "RACE"]) == 1


def test_cache_replays_identical_runs_and_invalidates_on_edit(tmp_path):
    tree = _seed_tree(tmp_path)
    cache_dir = tmp_path / "cache"
    base = [str(tree), "--root", str(tmp_path), "--cache", str(cache_dir)]
    rc_cold, cold = _run_json(base, tmp_path / "cold.json")
    rc_warm, warm = _run_json(base, tmp_path / "warm.json")
    assert rc_cold == rc_warm == 1
    assert cold["cache"]["full_hit"] is False
    assert warm["cache"]["full_hit"] is True
    assert warm["findings"] == cold["findings"]

    state = tree / "ft" / "state.py"
    state.write_text(
        state.read_text(encoding="utf-8") + "\n# cache probe\n",
        encoding="utf-8",
    )
    rc_edit, edited = _run_json(base, tmp_path / "edited.json")
    assert rc_edit == 1
    assert edited["cache"]["full_hit"] is False
    assert edited["cache"]["hits"] > 0  # unchanged files replayed
    assert {f["code"] for f in edited["findings"]} == {"EXC001", "RACE004"}
