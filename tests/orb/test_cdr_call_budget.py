"""Call-count gate for ``any`` marshalling.

A count, not a time: it reads the same on a noisy box, and it fails loudly
if a refactor drops the bulk lane of ``sequence<any>`` or starts
rebuilding typecodes per element again.
"""

import sys

from repro.orb.cdr import decode_any, encode_any


def roundtrip_calls(value) -> int:
    """Python-level and C-level calls one ``decode_any(encode_any(value))``
    makes once its plans are compiled."""
    assert decode_any(encode_any(value)) == value
    count = 0

    def on_event(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(on_event)
    try:
        decode_any(encode_any(value))
    finally:
        sys.setprofile(None)
    return count


def test_bulk_checkpoint_state_costs_calls_per_list_not_per_element():
    # the shape FT proxies checkpoint in benchmarks/e2e: 1 + 512 doubles
    state = {"total": 1.5, "weights": [0.5 * i for i in range(512)]}
    # 494 with the lane; 27 224 walking the list element by element
    assert roundtrip_calls(state) <= 600


def test_mixed_dict_costs_no_more_calls_than_before_the_lanes():
    # 1 + 6 fields of different types: nothing here is long enough for a
    # lane, so this is the per-element path every small state takes
    mixed = {
        "best": 1.25,
        "iters": 300,
        "name": "w3",
        "ok": True,
        "block": [1.0, 2.0, 3.0],
        "note": None,
    }
    # 1 249 at the parent of the change that added the lanes
    # (Python 3.11: 756 Python-level + 493 C-level); 915 after it
    assert roundtrip_calls(mixed) <= 1249
