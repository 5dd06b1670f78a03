"""The named random streams against NumPy, draw for draw.

:class:`repro.sim.randomness.RandomStream` reproduces
``np.random.default_rng(np.random.SeedSequence(entropy=seed & (2**64 - 1),
spawn_key=<CRC-32 words>))`` bit for bit, for every draw form the tree
makes.  NumPy is only the oracle here: no module of the program imports
``numpy.random``.  The exponential ziggurat tables in
``repro.sim.ziggurat`` were read from NumPy 2.4.6, the version these tests
were written against.  A later NumPy may change what a ``Generator`` method
draws from the bit generator's raw stream (its policy fixes only the raw
stream); that fails this file, and no pin of a seeded result moves.

The forced-state cases set the same PCG64 state on both sides (NumPy's
through ``bit_generator.state``) so that the next two 64-bit outputs are
chosen ones: that lands ``exponential`` on each of the 256 ziggurat layers,
on the layer-0 tail, and on both outcomes of the wedge test.
"""

from __future__ import annotations

import re
from math import exp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.randomness import RandomStream, rng_stream, stable_hash
from repro.sim.ziggurat import FE, KE, WE

MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645
MULT_INVERSE = pow(MULT, -1, 1 << 128)


def numpy_twin(seed: int, *names: str) -> np.random.Generator:
    sequence = np.random.SeedSequence(
        entropy=seed & MASK64, spawn_key=tuple(stable_hash(name) for name in names)
    )
    return np.random.default_rng(sequence)


def draw(generator, form: tuple):
    """Apply one draw form: ``(method, *args)``."""
    return getattr(generator, form[0])(*form[1:])


def assert_same(ours, theirs) -> None:
    if isinstance(theirs, np.ndarray):
        assert isinstance(ours, np.ndarray)
        assert ours.dtype == theirs.dtype
        assert ours.tolist() == theirs.tolist()
    else:
        if isinstance(theirs, np.generic):
            theirs = theirs.item()
        assert type(ours) is type(theirs)
        assert ours == theirs


def assert_same_state(ours: RandomStream, theirs: np.random.Generator) -> None:
    state = theirs.bit_generator.state
    assert ours._state == state["state"]["state"]
    assert ours._inc == state["state"]["inc"]
    has_half = ours._half is not None
    assert has_half == bool(state["has_uint32"])
    if has_half:
        assert ours._half == state["uinteger"]


# -- seeding -----------------------------------------------------------------------


SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1, -1, -(2**70) + 3)
NAMES = (
    (),
    ("x",),
    ("loadgen", "scale"),
    ("e2e", "ft_state_stream", "fresh"),
    ("a", "b", "c", "d", "e"),
)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("names", NAMES)
def test_seeding_matches_numpy(seed, names):
    assert_same_state(rng_stream(seed, *names), numpy_twin(seed, *names))


# -- draw forms --------------------------------------------------------------------

#: every form the tree calls, with the argument shapes it uses.
FORMS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("random"), st.integers(0, 40)),
    st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)).map(
        lambda f: ("uniform", f[0], f[0] + f[1])
    ),
    st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 10.0), st.integers(0, 40)).map(
        lambda f: ("uniform", f[0], f[0] + f[1], f[2])
    ),
    st.tuples(st.just("integers"), st.integers(1, 2**32)),
    st.tuples(st.integers(-(2**40), 2**40), st.integers(1, 2**32)).map(
        lambda f: ("integers", f[0], f[0] + f[1])
    ),
    st.tuples(st.integers(-100, 100), st.integers(1, 2**32), st.integers(0, 40)).map(
        lambda f: ("integers", f[0], f[0] + f[1], f[2])
    ),
    st.tuples(st.just("exponential"), st.floats(0.0, 1e3)),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(-(2**64), 2**64), forms=st.lists(FORMS, max_size=30))
def test_any_interleaving_of_draw_forms_matches_numpy(seed, forms):
    ours, theirs = rng_stream(seed, "parity"), numpy_twin(seed, "parity")
    for form in forms:
        assert_same(draw(ours, form), draw(theirs, form))
    assert_same_state(ours, theirs)


def sweep_forms(rng: np.random.Generator) -> list[tuple]:
    """A mixed call sequence, drawn from an oracle-side generator."""
    forms = []
    for _ in range(400):
        kind = int(rng.integers(9))
        size = int(rng.integers(0, 12))
        if kind == 0:
            forms.append(("random",))
        elif kind == 1:
            forms.append(("random", size))
        elif kind == 2:
            forms.append(("uniform", -0.1, 0.1))
        elif kind == 3:
            forms.append(("uniform", 0.02, 0.04, size))
        elif kind == 4:
            forms.append(("integers", int(rng.integers(1, 2**32 + 1))))
        elif kind == 5:
            forms.append(("integers", 1, 1_000_000))
        elif kind == 6:
            forms.append(("integers", 1, 4, size))
        elif kind == 7:
            forms.append(("integers", 1))
        else:
            forms.append(("exponential", float(rng.exponential())))
    return forms


@pytest.mark.parametrize("seed", range(0, 300, 3))
def test_seeded_sweep_of_mixed_streams(seed):
    forms = sweep_forms(np.random.default_rng(seed))
    names = ("sweep", str(seed))
    ours, theirs = rng_stream(seed, *names), numpy_twin(seed, *names)
    for form in forms:
        assert_same(draw(ours, form), draw(theirs, form))
    assert_same_state(ours, theirs)


def test_many_exponentials_match_numpy():
    ours, theirs = rng_stream(11, "loadgen", "x"), numpy_twin(11, "loadgen", "x")
    for _ in range(100_000):
        assert ours.exponential(0.25) == theirs.exponential(0.25)


def test_a_wide_range_rejects_and_redraws_like_numpy():
    """``integers(4e9)`` rejects about one 32-bit word in fourteen; a span
    of 2**32 takes each word as it is, and a span of 1 draws nothing."""
    ours, theirs = rng_stream(3, "wide"), numpy_twin(3, "wide")
    for high in (4_000_000_000, 2**32, 1, 3) * 300:
        assert_same(ours.integers(high), theirs.integers(high))
    assert_same_state(ours, theirs)


# -- forced states: every ziggurat layer, the tail and the wedge ------------------


def planted(
    first: int, second: int, rotation: int = 17
) -> tuple[RandomStream, np.random.Generator]:
    """A stream and its NumPy twin whose next two 64-bit outputs are
    ``first`` and ``second``.  PCG64 outputs ``rotr(hi ^ lo, state >> 122)``
    of the state after the step, so any output is one state; the increment
    then links the two states, and the start state is one step back."""

    def state_for(output: int) -> int:
        x = ((output << rotation) | (output >> (64 - rotation))) & MASK64
        high = (rotation << 58) | 0x2B7E151628AED2A & ((1 << 58) - 1)
        return (high << 64) | (x ^ high)

    after_first = state_for(first)
    after_second = state_for(second)
    if (after_second - after_first * MULT) % 2 == 0:
        after_second ^= (1 << 64) | 1  # flips hi and lo bit 0: same output
    inc = (after_second - after_first * MULT) & MASK128
    start = ((after_first - inc) * MULT_INVERSE) & MASK128
    ours = RandomStream(start, inc)
    theirs = np.random.Generator(np.random.PCG64())
    theirs.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": start, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return ours, theirs


def ziggurat_output(layer: int, bits: int) -> int:
    return (bits << 11) | (layer << 3) | 0b101


def test_planted_outputs_are_the_next_two_outputs():
    pairs = ((0, MASK64), (MASK64, 0), (0x0123456789ABCDEF, 0xFEDCBA9876543210))
    for first, second in pairs:
        ours, theirs = planted(first, second)
        expected = [(first >> 11) / 2**53, (second >> 11) / 2**53]
        assert [ours.random(), ours.random()] == expected
        assert [theirs.random(), theirs.random()] == expected


@pytest.mark.parametrize("layer", range(256))
def test_exponential_on_every_layer(layer):
    cases = []
    if KE[layer]:
        # inside the layer's rectangle: accepted at once
        cases.append((ziggurat_output(layer, 0), 0))
        cases.append((ziggurat_output(layer, KE[layer] - 1), 0))
    bits = KE[layer] if layer else (KE[0] + (1 << 53)) // 2
    for second in (0, MASK64):
        cases.append((ziggurat_output(layer, bits), second))
    for first, second in cases:
        ours, theirs = planted(first, second)
        assert ours.exponential(2.0) == theirs.exponential(2.0)
        assert_same_state(ours, theirs)


def test_both_wedge_outcomes_and_the_tail_are_reached():
    """The cases above reach every branch: for each layer past 0 the wedge
    accepts at ``u = 0`` and rejects at ``u -> 1`` (NumPy then draws
    afresh); layer 0 past its rectangle takes the ``r - log1p(-u)`` tail."""
    outcomes = set()
    for layer in range(1, 256):
        x = KE[layer] * WE[layer]
        for u in (0.0, (MASK64 >> 11) / 2**53):
            outcomes.add((FE[layer - 1] - FE[layer]) * u + FE[layer] < exp(-x))
    assert outcomes == {True, False}
    ours, theirs = planted(ziggurat_output(0, KE[0]), 1 << 63)
    tail = ours.exponential()
    assert tail == theirs.exponential() and tail > 7.69711747013104972


# -- refused arguments -------------------------------------------------------------


@pytest.mark.parametrize(
    "form",
    [
        ("integers", 0),
        ("integers", -3),
        ("integers", 5, 5),
        ("integers", 5, 3, 4),
        ("uniform", 1, 0),
        ("uniform", 0.0, -0.0),
        ("uniform", 0.0, float("inf")),
        ("uniform", 0.0, float("nan")),
        ("exponential", -1),
        ("exponential", -0.0),
    ],
)
def test_refused_arguments_raise_what_numpy_raises(form):
    with pytest.raises((ValueError, OverflowError)) as theirs:
        draw(numpy_twin(1), form)
    with pytest.raises(theirs.type, match=f"^{re.escape(str(theirs.value))}$"):
        draw(rng_stream(1), form)


def test_a_range_past_32_bits_is_refused():
    with pytest.raises(ValueError, match="more than 32 random bits"):
        rng_stream(1).integers(2**32 + 1)
