"""Quasirandomness diagnostics over label-state snapshots.

Four local structure patterns are counted against a snapshot (A, C) of
free vertex and edge labels, read where the labeller keeps them: the
windows of its LabelState.  X1 is a bare free slot, X3 an anchor
joined to a free slot, X2 an anchor plus a fixed edge label between two
free slots, and X4 two anchors joined through one free slot.  Counts on
width-m slots never exceed m.  Their deviations from the ambient
density prediction are the QUASI2 statistic.  The ambient count is the
count on the full state (every label and every difference free), so it
depends only on the pattern's geometry and has a closed form.  QUASI1
compares the free differences of every edge window with their expected
number; all window counts come from one numpy pass over C's words.
Every deviation is an exact integer ratio, rounded once to a float.
All counting is read-only.

Also computed here: the idealized per-step consumption estimates
(exact rationals) used as run diagnostics, and the window check for
structure counts over a target interval and its complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

# select is not called here (_Words maps ranks in numpy); the binding
# stays because perfbench's traced runs wrap quasirandom.select
from .bitset import BLOCK_BITS, BlockBits, select  # noqa: F401
from .intervals import Interval, IntervalSystem
from .labeller import LabelState
from .params import ParamError
from .rng import Rng

_FIELDS = {
    "X1": frozenset({"slot"}),
    "X2": frozenset({"a", "c", "slot", "slot2"}),
    "X3": frozenset({"a", "slot"}),
    "X4": frozenset({"a", "a2", "slot"}),
}
_FREE = {"X1": 1, "X2": 3, "X3": 2, "X4": 3}


@dataclass(frozen=True)
class Structure:
    """One pattern instance: fixed labels plus free interval slots."""

    kind: str
    a: Optional[int] = None
    a2: Optional[int] = None
    c: Optional[int] = None
    slot: Optional[Interval] = None
    slot2: Optional[Interval] = None

    def __post_init__(self):
        need = _FIELDS.get(self.kind)
        if need is None:
            raise ValueError(f"unknown structure kind {self.kind!r}")
        for name in ("a", "a2", "c", "slot", "slot2"):
            if (getattr(self, name) is not None) != (name in need):
                raise ValueError(
                    f"{self.kind} takes exactly fields {sorted(need)}")
        for anchor in (self.a, self.a2):
            if anchor is not None and anchor < 1:
                raise ValueError("anchor labels are positive")
        for iv in (self.slot, self.slot2):
            if iv is not None and iv.lo > iv.hi:
                raise ValueError(f"empty interval slot {iv}")
        if self.kind == "X2":
            if self.c < 1:
                raise ValueError("fixed edge label must be positive")
            if self.slot == self.slot2:
                raise ValueError("X2 needs two distinct interval slots")
        if self.kind == "X4" and self.a == self.a2:
            raise ValueError("X4 needs two distinct anchors")

    @property
    def free(self) -> int:
        """Number of free vertex and edge labels in the pattern."""
        return _FREE[self.kind]

    @property
    def free_slots(self) -> Tuple[Interval, ...]:
        if self.kind == "X2":
            return (self.slot, self.slot2)
        return (self.slot,)

    @property
    def edge_diffs(self) -> Tuple[int, ...]:
        """Anchor-to-slot-minimum distance, one entry per free edge."""
        if self.kind == "X1":
            return ()
        if self.kind == "X4":
            return (abs(self.a - self.slot.lo), abs(self.a2 - self.slot.lo))
        return (abs(self.a - self.slot.lo),)


def x1(slot: Interval) -> Structure:
    return Structure("X1", slot=slot)


def x2(a: int, slot: Interval, c: int, slot2: Interval) -> Structure:
    return Structure("X2", a=a, c=c, slot=slot, slot2=slot2)


def x3(a: int, slot: Interval) -> Structure:
    return Structure("X3", a=a, slot=slot)


def x4(a: int, a2: int, slot: Interval) -> Structure:
    return Structure("X4", a=a, a2=a2, slot=slot)


def _shift(x: int, s: int) -> int:
    return x << s if s >= 0 else x >> -s


def count_structure(X: Structure, state: LabelState) -> int:
    """Number of label choices for the free slots of X inside the free
    labels A and free differences C of state.

    Chosen vertex labels come from A restricted to the slots, chosen
    edge labels from C, and all labels within one instance are distinct
    (for X2 also distinct from the fixed edge label c).  Every count is
    read from the state's slot windows, so it costs O(width/64) words.
    """
    return _count(state, X.kind, X.a, X.a2, X.c, X.slot, X.slot2)


def _count(state: LabelState, kind: str, a, a2, c, iv: Interval,
           iv2) -> int:
    """count_structure on a pattern given by its fields, the one counter
    behind count_structure and the audit's sampled patterns."""
    if kind == "X1":
        return state.first_mask(iv).bit_count()
    hits = state.admissible_mask(a, iv)
    if kind == "X3":
        return hits.bit_count()
    if kind == "X4":
        hits &= state.admissible_mask(a2, iv)
        twice_mid = a + a2
        # equal induced labels force b equidistant from both anchors
        if twice_mid % 2 == 0 and iv.lo <= twice_mid // 2 <= iv.hi:
            hits &= ~(1 << (twice_mid // 2 - iv.lo))
        return hits.bit_count()
    # X2: the induced label |a - b| may not repeat the fixed label c
    for b in (a - c, a + c):
        if iv.lo <= b <= iv.hi:
            hits &= ~(1 << (b - iv.lo))
    # partner b' = b + c or b - c; b' = a is impossible once |a - b| != c.
    # Bit k of hits is label iv.lo + k, so b +- c sits at bit
    # iv.lo +- c - iv2.lo of slot2's window.
    avail2 = state.first_mask(iv2)
    up = _shift(hits, iv.lo + c - iv2.lo) & avail2
    down = _shift(hits, iv.lo - c - iv2.lo) & avail2
    return up.bit_count() + down.bit_count()


def _ambient(kind: str, a, a2, c, iv: Interval, iv2) -> int:
    """_count on the full state, where every label 1..n_tilde and every
    difference 1..n_tilde-1 is free, for slots inside 1..n_tilde.

    There a slot label b is admissible against an anchor exactly when
    b is not the anchor, so the count is the slot width less the labels
    the pattern bans.
    """
    lo, hi = iv
    if kind == "X1":
        return hi - lo + 1
    if kind == "X3":
        return hi - lo + 1 - (lo <= a <= hi)
    if kind == "X4":
        twice_mid = a + a2
        return (hi - lo + 1 - (lo <= a <= hi) - (lo <= a2 <= hi)
                - (twice_mid % 2 == 0 and lo <= twice_mid // 2 <= hi))
    # X2: sources b whose partner b + s lies in slot2, for s = +c and
    # -c, less the banned sources a, a - c and a + c among them
    total = 0
    for s in (c, -c):
        x, y = max(lo, iv2.lo - s), min(hi, iv2.hi - s)
        if x <= y:
            total += (y - x + 1 - (x <= a <= y) - (x <= a - c <= y)
                      - (x <= a + c <= y))
    return total


@dataclass(frozen=True)
class QuasiSampleSpec:
    """Sampling budget for the QUASI2 sweep: per_kind structures of each
    kind, with anchors uniform over the currently free labels and slots
    uniform over the vertex windows."""

    per_kind: int = 256


@dataclass(frozen=True)
class QuasiReport:
    checkpoint: int
    alpha: float
    quasi1_max_dev: float
    quasi1_argmax_lo: int  # lo of the edge window with the largest QUASI1
    quasi2_devs: Tuple[float, ...]

    @property
    def quasi2_max_dev(self) -> float:
        return max(self.quasi2_devs, default=0.0)

    @property
    def ok(self) -> bool:
        return (self.quasi1_max_dev <= self.alpha
                and self.quasi2_max_dev <= self.alpha)


class _Words:
    """Rank and select on one BlockBits, fixed for one checkpoint.

    The blocks are read once as little-endian 64-bit words, plus one zero
    word past the end, and below[i] counts the set bits of words
    0..i-1.  Setting up costs O(N/64) words in numpy for a universe of
    size N; each query is then O(1) array work per position or rank.
    """

    __slots__ = ("words", "below")

    def __init__(self, bits: BlockBits):
        raw = [b.to_bytes(BLOCK_BITS // 8, "little") for b in bits.blocks]
        raw.append(bytes(8))
        self.words = np.frombuffer(b"".join(raw), "<u8")
        pop = np.bitwise_count(self.words).astype(np.int64)
        self.below = np.cumsum(pop) - pop

    def rank(self, p: np.ndarray) -> np.ndarray:
        """Set bits below each position of the uint64 array p (positions
        up to the end of the last block)."""
        w = p >> 6
        return self.below[w] + np.bitwise_count(
            self.words[w] & ((1 << (p & 63)) - 1))

    def select(self, ranks: List[int]) -> List[int]:
        """Index of the k-th (0-based, ascending) set bit for each k in
        ranks: the word by a search of below, then the bit by a running
        count over that word's 64 bits."""
        k = np.array(ranks, np.int64)
        w = np.searchsorted(self.below, k, side="right") - 1
        bits = np.unpackbits(self.words[w].view(np.uint8).reshape(-1, 8),
                             axis=1, bitorder="little")
        seen = np.cumsum(bits, axis=1, dtype=np.int64)
        hit = np.argmax(seen > (k - self.below[w])[:, None], axis=1)
        return (64 * w + hit).tolist()


def check_quasi(state: LabelState, sys: IntervalSystem, alpha: float,
                sample_spec: Optional[QuasiSampleSpec] = None,
                rng: Optional[Rng] = None, *, t: int = 0) -> QuasiReport:
    """Evaluate both quasirandomness conditions on the free labels and
    differences of state.

    The edge-window condition is checked exhaustively: one numpy pass
    over C's words gives the free differences of every edge window, and
    the largest deviation is found on the integers, at the lowest
    window lo on ties, before its one division.  The structure
    condition is checked on a seeded sample (kinds in order X1..X4), so
    the report is a deterministic function of (state, sample_spec, rng
    state).  The sample's values are all drawn first, in the order of
    one pattern after another; then the anchor and fixed-edge ranks are
    mapped to labels in one numpy pass per set, and each pattern is
    counted once on state, its ambient count coming from _ambient.
    Deviations are reported in units of m.
    """
    spec = sample_spec if sample_spec is not None else QuasiSampleSpec()
    m, nt = sys.m, sys.n_tilde
    size_a, size_c = state.size_a, state.size_c

    diffs = _Words(state.diffs)
    # free differences of the edge windows lo = 0, m, ..., n_tilde - m
    cnt = np.diff(diffs.rank(np.arange(0, nt + 1, m, dtype=np.uint64)))
    # |cnt * nt - m * |A|| is convex in cnt, so the extreme counts hold
    # its maximum
    dev = {c: abs(c * nt - m * size_a)
           for c in (int(cnt.min()), int(cnt.max()))}
    top = max(dev.values())
    best = [c for c, d in dev.items() if d == top]
    worst = int(np.argmax((cnt == best[0]) | (cnt == best[-1])))

    if spec.per_kind > 0 and rng is None:
        raise ValueError("structure sampling requires an rng")

    devs = []
    if (spec.per_kind > 0 and size_a >= 2 and size_c >= 1
            and len(sys.iv_intervals) >= 2):
        scale = {kind: (nt ** f, size_a ** f, m * nt ** f)
                 for kind, f in _FREE.items()}
        for X in _sample(state, sys, spec.per_kind, rng, diffs):
            nt_f, size_f, den = scale[X[0]]
            devs.append(abs(_count(state, *X) * nt_f
                            - _ambient(*X) * size_f) / den)

    return QuasiReport(checkpoint=t, alpha=float(alpha),
                       quasi1_max_dev=top / (m * nt),
                       quasi1_argmax_lo=worst * m, quasi2_devs=tuple(devs))


def _sample(state: LabelState, sys: IntervalSystem, k: int, rng: Rng,
            diffs: _Words) -> list:
    """k patterns of each kind as _count's field tuples: slots uniform
    over the vertex windows (two distinct ones for X2), anchors uniform
    over A (X4's second over A minus the first), fixed edge labels
    uniform over C."""
    slots = sys.iv_intervals
    nslots = len(slots)
    size_a = state.size_a
    rb = rng.randbelow
    x1s = [slots[rb(nslots)] for _ in range(k)]
    ranks, c_ranks, pairs, x3s, x4s = [], [], [], [], []
    for _ in range(k):
        ranks.append(rb(size_a))
        c_ranks.append(rb(state.size_c))
        i = rb(nslots)
        j = rb(nslots - 1)
        pairs.append((slots[i], slots[j + (j >= i)]))
    for _ in range(k):
        ranks.append(rb(size_a))
        x3s.append(slots[rb(nslots)])
    for _ in range(k):
        rank = rb(size_a)
        # uniform over A minus the anchor: skip the anchor's rank
        rank2 = rb(size_a - 1)
        ranks += (rank, rank2 + (rank2 >= rank))
        x4s.append(slots[rb(nslots)])
    labels = _Words(state.labels).select(ranks)
    fixed = diffs.select(c_ranks)
    return ([("X1", None, None, None, iv, None) for iv in x1s]
            + [("X2", a, None, c, s1, s2)
               for a, c, (s1, s2) in zip(labels[:k], fixed, pairs)]
            + [("X3", a, None, None, iv, None)
               for a, iv in zip(labels[k:2 * k], x3s)]
            + [("X4", a, a2, None, iv, None)
               for a, a2, iv in zip(labels[2 * k::2], labels[2 * k + 1::2],
                                    x4s)])


def crude_estimates(plan, sys: IntervalSystem, params, t: int):
    """Idealized step-t consumption estimates for a fixed plan.

    Returns (p_edge, p_struct): p_edge maps each edge window to the
    exact chance of drawing an edge label from it at step t, assuming
    the step label were uniform in its target interval with the induced
    edge label following the cross-pair profile.  p_struct evaluates
    the analogous per-structure estimate.  Both are exact rationals and
    depend only on the plan, never on run state.
    """
    n = plan.n if params is None else params.n
    if not 1 <= t <= n:
        raise ParamError(f"step {t} outside 1..{n}")
    J = plan.interval_of[t - 1]
    m, ell, nt = sys.m, sys.ell, sys.n_tilde
    p_edge: Dict[Interval, Fraction] = {
        ie: m * sys.el(J, ie.lo) for ie in sys.ie_intervals}

    bound = Fraction(4 * m, ell)

    def p_struct(X: Structure) -> Fraction:
        base = _ambient(X.kind, X.a, X.a2, X.c, X.slot, X.slot2)
        factor = Fraction((nt - t) ** (X.free - 1), nt ** (X.free - 1))
        acc = Fraction(0)
        for slot in X.free_slots:
            if J.contains(slot):
                acc += Fraction(1, ell)
        for d in X.edge_diffs:
            acc += sys.el(J, d)
        p = base * factor * acc
        assert p <= bound
        return p

    return p_edge, p_struct


@dataclass(frozen=True)
class WindowCheckRow:
    kind: str
    count: int
    center: float
    halfwidth: float
    ok: bool


@dataclass(frozen=True)
class WindowCheckReport:
    rows: Tuple[WindowCheckRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)


def lemma36_check(state: LabelState, sys: IntervalSystem, alpha: float,
                  a: int, a2: int, c: int, J: Interval) -> WindowCheckReport:
    """Check the interval-level structure counts a quasirandom snapshot
    must satisfy over a target interval J and its complement.

    Counting X2 over (J, complement) or X3/X4 over J equals summing the
    window-level counts over the width-m slots tiling them, so slot
    windows of width ell are counted directly.
    """
    ell, nt = sys.ell, sys.n_tilde
    if Fraction(alpha) * ell < 3:
        raise ParamError(f"need ell >= 3/alpha, got ell={ell} alpha={alpha}")
    j_bar = sys.complement(J)
    dens = Fraction(state.size_a, nt)
    half_pair = 3 * Fraction(alpha) * ell
    half_single = 2 * Fraction(alpha) * ell

    def row(kind: str, count: int, center: Fraction, half: Fraction):
        return WindowCheckRow(kind, count, float(center), float(half),
                              abs(count - center) <= half)

    rows = (
        row("X3", count_structure(x3(a, J), state),
            dens ** 2 * ell, half_single),
        row("X2", count_structure(x2(a, J, c, j_bar), state),
            dens ** 3 * sys.el_count(J.lo, c), half_pair),
        row("X4", count_structure(x4(a, a2, J), state),
            dens ** 3 * ell, half_single),
    )
    return WindowCheckReport(rows)
