#!/usr/bin/env python
"""The static analyzer as a library: lint a snippet, read the findings,
suppress one with a justification, and render the reports.

`python -m repro.analysis` wraps exactly this API (plus the cache and
CI plumbing); here we drive it programmatically:

1. run every checker family over an in-memory snippet that breaks the
   determinism and exception-safety rules;
2. inspect the `Finding` objects (code, line, message, fingerprint);
3. show an inline `# analysis: ignore[...]` directive doing its job;
4. prove an atomicity violation: a declared-atomic region with a yield
   point inside it;
5. render the human and JSON reports, then run the real gate over one
   package of the live tree.

Run:  PYTHONPATH=src python examples/analysis_report.py
"""

from pathlib import Path

from repro.analysis import analyze_paths, analyze_source
from repro.analysis.report import render_json, render_text

# 1. A snippet that is wrong in two ways: it reads the wall clock inside
#    "simulated" code, and it swallows a recoverable comm failure.
SNIPPET = """\
import time


def measure(op):
    started = time.time()
    try:
        op()
    except COMM_FAILURE:
        pass
    return time.time() - started
"""

result = analyze_source(SNIPPET, filename="measure.py")
print("== findings ==")
for finding in result.findings:
    print(f"  {finding.render()}")
    print(f"    fingerprint: {finding.fingerprint}")

# 2. The same snippet with one violation justified inline: the finding
#    moves from `findings` to `suppressed` — visible, not gone.
JUSTIFIED = SNIPPET.replace(
    "    except COMM_FAILURE:",
    "    except COMM_FAILURE:"
    "  # analysis: ignore[EXC003]: demo — the caller counts failures",
)
result2 = analyze_source(JUSTIFIED, filename="measure.py")
print("\n== after an inline justification ==")
print(f"  actionable: {sorted(f.code for f in result2.findings)}")
print(f"  suppressed: {sorted(f.code for f in result2.suppressed)}")

# 3. Atomicity: the region claims "no scheduler interleaving between the
#    markers", but there is a yield point inside it.
ATOMIC = """\
def transfer(self, amount):
    # analysis: atomic-begin(debit-credit)
    self.debit(amount)
    yield self.store.persist()
    self.credit(amount)  # analysis: atomic-end(debit-credit)
"""
result3 = analyze_source(ATOMIC, filename="ledger.py")
print("\n== atomic region with a yield point ==")
for finding in result3.findings:
    print(f"  {finding.render()}")

# 4. Reports: the human rendering CI prints, and the JSON artifact it
#    uploads.
print("\n== report rendering ==")
print(render_text(result))
print(render_json(result, strict=True)[:200] + "...")

# 5. The real gate over one package of the live tree (CI runs it over the
#    whole tree): it must be strict-clean, every suppression an inline
#    directive that still silences a finding.
repo_root = Path(__file__).resolve().parents[1]
live = analyze_paths([repo_root / "src" / "repro" / "ft"], root=repo_root)
print("\n== live tree: src/repro/ft ==")
print(
    f"  files={live.files_checked} actionable={len(live.findings)} "
    f"suppressed={len(live.suppressed)}"
)
assert live.exit_code(strict=True) == 0, "the tree must pass its own gate"
print("  strict gate: PASS")
