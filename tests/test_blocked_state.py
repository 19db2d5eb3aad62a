"""The blocked label state against explicit sets and full-width ints.

LabelState keeps A, C and C's mirror about n_tilde as BlockBits.  These
properties compare it with the admissible_labels oracle and with the
full-int formulas it replaced, on windows that straddle block
boundaries, touch 1 and n_tilde, and sit on either side of the parent
label or around it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracetree.bitset import BLOCK_BITS, BlockBits, from_indices, iter_bits, window
from gracetree.intervals import Interval, IntervalSystem
from gracetree.labeller import LabelState, admissible_labels

B = BLOCK_BITS


def ref_window(x: int, lo: int, width: int) -> int:
    """Bits lo..lo+width-1 of x on a full int; negative indices read 0."""
    pad = max(0, -lo)
    return window(x << pad, lo + pad, width)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nbits=st.sampled_from([1, B - 1, B, B + 1, 2 * B, 3 * B + 5]),
    lo=st.one_of(
        st.integers(-2 * B, 5 * B),
        st.sampled_from([k * B + d for k in range(-1, 5) for d in (-2, -1, 0, 1)]),
    ),
    width=st.one_of(st.integers(1, 3 * B + 2), st.sampled_from([B - 1, B, B + 1])),
)
def test_block_window_matches_full_int(seed, nbits, lo, width):
    x = random.Random(seed).getrandbits(nbits)
    bits = BlockBits(x)
    assert bits.to_int() == x
    assert bits.window(lo, width) == ref_window(x, lo, width)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nbits=st.integers(1, 3 * B + 3))
def test_block_remove_is_checked(seed, nbits):
    rnd = random.Random(seed)
    x = rnd.getrandbits(nbits) | 1 << (nbits - 1)
    bits = BlockBits(x)
    present = list(iter_bits(x))
    for i in rnd.sample(present, min(len(present), 40)):
        bits.remove(i)
        x ^= 1 << i
        assert bits.to_int() == x
        with pytest.raises(KeyError):
            bits.remove(i)
    for i in (-1, len(bits.blocks) * B):
        with pytest.raises(KeyError):
            bits.remove(i)
    assert bits.to_int() == x


def _edge_starts(nt: int) -> list[int]:
    near_blocks = [k * B + d for k in range(1, nt // B + 1) for d in (-3, -1, 0, 1)]
    return [lo for lo in [1, 2, nt - 1, nt] + near_blocks if 1 <= lo <= nt]


@st.composite
def _state_case(draw):
    half = draw(
        st.one_of(
            st.sampled_from([2, 3, B // 2 - 1, B // 2, B // 2 + 1, B, B + 3]),
            st.integers(2, 1800),
        )
    )
    nt = 2 * half
    seed = draw(st.integers(0, 2**32 - 1))
    keep_a = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    keep_c = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    width = draw(st.one_of(st.integers(1, min(nt, 1200)), st.sampled_from([1, nt])))
    width = min(width, nt)
    lo = draw(
        st.one_of(st.integers(1, nt - width + 1), st.sampled_from(_edge_starts(nt)))
    )
    lo = min(lo, nt - width + 1)
    hi = lo + width - 1
    side = draw(st.sampled_from(["below", "inside", "above", "any"]))
    ranges = {
        "below": (1, lo - 1),
        "inside": (lo, hi),
        "above": (hi + 1, nt),
        "any": (1, nt),
    }
    a_lo, a_hi = ranges[side]
    if a_lo > a_hi:
        a_lo, a_hi = 1, nt
    a = draw(st.integers(a_lo, a_hi))
    return nt, seed, keep_a, keep_c, Interval(lo, hi), a


@settings(max_examples=300, deadline=None)
@given(_state_case())
def test_label_state_matches_oracle_and_full_ints(case):
    nt, seed, keep_a, keep_c, iv, a = case
    rnd = random.Random(seed)
    state = LabelState(IntervalSystem(nt, 1, 1))
    labels = set(range(1, nt + 1))
    diffs = set(range(1, nt))
    gone_a = [b for b in range(1, nt + 1) if rnd.random() >= keep_a]
    gone_c = [d for d in range(1, nt) if rnd.random() >= keep_c]
    rnd.shuffle(gone_a)
    rnd.shuffle(gone_c)
    for b in gone_a:
        state.remove_label(b)
        labels.discard(b)
    for d in gone_c:
        state.remove_diff(d)
        diffs.discard(d)
    assert (state.size_a, state.size_c) == (len(labels), len(diffs))

    a_bits = from_indices(labels)
    c_bits = from_indices(diffs)
    assert state.a_bits == a_bits and state.c_bits == c_bits
    assert BlockBits(state.a_bits).to_int() == a_bits

    got = state.admissible_mask(a, iv)
    want = admissible_labels(a, iv, labels, diffs)
    assert {iv.lo + k for k in iter_bits(got)} == want
    # the full-width formulas the blocked state replaced
    w = iv.width
    c_rev = from_indices(nt - d for d in diffs)
    full = window(a_bits, iv.lo, w) & (
        window(c_bits << a, iv.lo, w) | window(c_rev >> (nt - a), iv.lo, w)
    )
    assert got == full
    assert state.first_mask(iv) == window(a_bits, iv.lo, w)

    if gone_a:
        with pytest.raises(AssertionError):
            state.remove_label(gone_a[0])
    if gone_c:
        with pytest.raises(AssertionError):
            state.remove_diff(gone_c[0])
    assert state.a_bits == a_bits and state.c_bits == c_bits
