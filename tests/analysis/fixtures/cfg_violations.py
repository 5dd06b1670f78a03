"""Deliberate config-flag (CFG) violations.  Parsed only.

The checker finds ``RuntimeConfig`` structurally, so this fixture
exercises it without replicating the repo layout.  Note that in a
single-file project *every* field is "never consulted outside the config
module" — the consultation negative case lives in ``test_confflags.py``
as a two-file project.
"""


class RuntimeConfig:
    # fast path: pipelined checkpoints (off = the paper protocol).
    pipelined_turbo: bool = True  # MARK:CFG001
    # fast path: delta shipping, off by default.
    delta_shipping: bool = False  # MARK:ok-flag
    # a knob nothing anywhere reads.
    dead_knob: int = 3  # MARK:CFG002
