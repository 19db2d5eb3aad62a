"""The byte label state and the full-width select against explicit
sets and full-width ints.

LabelState keeps A and C as bytearrays, one byte per value.  These
properties compare it with the admissible_labels oracle (tests/oracles.py)
and with the full-int formulas of the bitset state it replaced, on
windows that touch 1 and n_tilde, cross the 1024-value marks where the
bitset state's blocks ended, and sit on either side of the parent label
or around it.  The oracles' select, which the full-width audit oracle
uses, is compared with old_select and with iter_bits on ints up to
about 60,000 bits wide.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracetree.intervals import Interval, IntervalSystem
from gracetree.labeller import LabelState, take
from oracles import (admissible_labels, from_indices, full_ints,
                     interval_width, iter_bits, old_select, remove_diff,
                     remove_label, select, to_int, window)

B = 1024  # block width of the bitset state the byte state replaced


@st.composite
def _select_case(draw):
    """An int 1..~60,000 bits wide (dense, sparse, one bit, or bits only
    in its top word) and ranks to look up in it."""
    width = draw(
        st.one_of(
            st.integers(1, 3 * B),
            st.integers(1, 60_000),
            st.sampled_from([1, 63, 64, 65, B - 1, B, B + 1, 50 * B, 60_000]),
        )
    )
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "sparse", "single", "top"]))
    if kind == "dense":
        x = rnd.getrandbits(width) | 1 << (width - 1)
    elif kind == "sparse":
        x = from_indices(rnd.sample(range(width), 1 + width // 300))
    elif kind == "single":
        x = 1 << (width - 1)
    else:
        top = range(width - 1 - (width - 1) % 64, width)
        x = from_indices(rnd.sample(top, rnd.randint(1, len(top))))
    pop = x.bit_count()
    ranks = {0, pop - 1, *(rnd.randrange(pop) for _ in range(5))}
    return x, sorted(ranks)


@settings(max_examples=200, deadline=None)
@given(_select_case())
def test_select_matches_oracle_and_iter_bits(case):
    x, ranks = case
    bits = list(iter_bits(x))
    for k in ranks:
        assert select(x, k) == old_select(x, k) == bits[k]
    for k in (-1, len(bits), len(bits) + 64):
        with pytest.raises(IndexError):
            select(x, k)


def test_select_rejects_empty_int():
    for k in (-1, 0, 1):
        with pytest.raises(IndexError):
            select(0, k)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nbits=st.integers(1, 3 * B + 3))
def test_block_remove_is_checked(seed, nbits):
    # take on a byte set: a removal clears one byte, a second removal of
    # the same value and a negative value raise AssertionError (a
    # negative index would wrap silently), a value past the end raises
    # IndexError, and no failed removal changes the set
    rnd = random.Random(seed)
    x = rnd.getrandbits(nbits) | 1 << (nbits - 1)
    free = bytearray((x >> v) & 1 for v in range(nbits))
    present = list(iter_bits(x))
    for i in rnd.sample(present, min(len(present), 40)):
        take(free, i, "label")
        x ^= 1 << i
        assert to_int(free) == x
        with pytest.raises(AssertionError, match=f"^label {i} already"):
            take(free, i, "label")
    for i in (-1, -nbits):
        with pytest.raises(AssertionError):
            take(free, i, "label")
    with pytest.raises(IndexError):
        take(free, nbits, "label")
    assert to_int(free) == x


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
        remove_label(state, b)
        labels.discard(b)
    for d in gone_c:
        remove_diff(state, d)
        diffs.discard(d)
    assert ((state.labels.count(1), state.diffs.count(1))
            == (len(labels), len(diffs)))

    a_bits = from_indices(labels)
    c_bits = from_indices(diffs)
    assert full_ints(state) == (a_bits, c_bits)
    assert len(state.labels) == len(state.diffs) == nt + 1

    got = state.admissible_mask(a, iv)
    want = admissible_labels(a, iv, labels, diffs)
    assert len(got) == interval_width(iv) and set(got.tolist()) <= {0, 1}
    assert {iv.lo + k for k in iter_bits(to_int(got))} == want
    # the full-width formulas of the bitset state, C's lower side read
    # from C's mirror about n_tilde
    w = interval_width(iv)
    c_rev = from_indices(nt - d for d in diffs)
    full = window(a_bits, iv.lo, w) & (
        window(c_bits << a, iv.lo, w) | window(c_rev >> (nt - a), iv.lo, w)
    )
    assert to_int(got) == full

    if gone_a:
        with pytest.raises(AssertionError):
            remove_label(state, gone_a[0])
    if gone_c:
        with pytest.raises(AssertionError):
            remove_diff(state, gone_c[0])
    assert full_ints(state) == (a_bits, c_bits)
