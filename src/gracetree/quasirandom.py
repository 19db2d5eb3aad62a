"""Quasirandomness diagnostics over label-state snapshots.

Four local structure patterns are counted against a snapshot (A, C) of
free vertex and edge labels, read where the labeller keeps them: the
windows of its LabelState.  X1 is a bare free slot, X3 an anchor
joined to a free slot, X2 an anchor plus a fixed edge label between two
free slots, and X4 two anchors joined through one free slot.  Counts on
width-m slots never exceed m, and their deviations from the ambient
density prediction (a fresh LabelState) are the QUASI2 statistic;
QUASI1 sweeps the edge windows directly.  All counting is read-only.

Also computed here: the idealized per-step consumption estimates
(exact rationals) used as run diagnostics, and the window check for
structure counts over a target interval and its complement.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Optional, Tuple

from .bitset import BLOCK_BITS, BlockBits, select
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
    iv = X.slot
    if X.kind == "X1":
        return state.first_mask(iv).bit_count()
    hits = state.admissible_mask(X.a, iv)
    if X.kind == "X3":
        return hits.bit_count()
    if X.kind == "X4":
        hits &= state.admissible_mask(X.a2, iv)
        twice_mid = X.a + X.a2
        # equal induced labels force b equidistant from both anchors
        if twice_mid % 2 == 0 and iv.lo <= twice_mid // 2 <= iv.hi:
            hits &= ~(1 << (twice_mid // 2 - iv.lo))
        return hits.bit_count()
    # X2: the induced label |a - b| may not repeat the fixed label c
    for b in (X.a - X.c, X.a + X.c):
        if iv.lo <= b <= iv.hi:
            hits &= ~(1 << (b - iv.lo))
    # partner b' = b + c or b - c; b' = a is impossible once |a - b| != c.
    # Bit k of hits is label iv.lo + k, so b +- c sits at bit
    # iv.lo +- c - iv2.lo of slot2's window.
    iv2 = X.slot2
    avail2 = state.first_mask(iv2)
    up = _shift(hits, iv.lo + X.c - iv2.lo) & avail2
    down = _shift(hits, iv.lo - X.c - iv2.lo) & avail2
    return up.bit_count() + down.bit_count()


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
    quasi2_devs: Tuple[float, ...]

    @property
    def quasi2_max_dev(self) -> float:
        return max(self.quasi2_devs, default=0.0)

    @property
    def ok(self) -> bool:
        return (self.quasi1_max_dev <= self.alpha
                and self.quasi2_max_dev <= self.alpha)


class _Ranks:
    """Rank-to-element map of one BlockBits, fixed for one checkpoint.

    Cumulative block popcounts locate the block holding rank k by
    bisection; one select on that block finishes the draw.
    """

    __slots__ = ("blocks", "cum")

    def __init__(self, bits: BlockBits):
        self.blocks = bits.blocks
        self.cum = list(accumulate(b.bit_count() for b in bits.blocks))

    def element(self, k: int) -> int:
        j = bisect_right(self.cum, k)
        below = self.cum[j - 1] if j else 0
        return j * BLOCK_BITS + select(self.blocks[j], k - below)


def check_quasi(state: LabelState, sys: IntervalSystem, alpha: float,
                sample_spec: Optional[QuasiSampleSpec] = None,
                rng: Optional[Rng] = None, *, t: int = 0) -> QuasiReport:
    """Evaluate both quasirandomness conditions on the free labels and
    differences of state.

    The edge-window condition is checked exhaustively, one m-window read
    per edge window.  The structure condition is checked on a seeded
    sample (kinds in order X1..X4), so the report is a deterministic
    function of (state, sample_spec, rng state).  Every anchor or fixed
    edge label drawn costs one bisection over block popcounts and one
    select on a single block.  Deviations are reported in units of m.
    """
    spec = sample_spec if sample_spec is not None else QuasiSampleSpec()
    m, nt = sys.m, sys.n_tilde
    size_a, size_c = state.size_a, state.size_c

    worst = 0.0
    for ie in sys.ie_intervals:
        cnt = state.diffs.window(ie.lo, m).bit_count()
        worst = max(worst, abs(cnt * nt - m * size_a) / (m * nt))

    ambient = LabelState(sys)
    dens = Fraction(size_a, nt)
    devs = []

    def push(X: Structure) -> None:
        cnt = count_structure(X, state)
        amb = count_structure(X, ambient)
        devs.append(float(abs(Fraction(cnt) - amb * dens ** X.free) / m))

    slots = sys.iv_intervals
    nslots = len(slots)

    def rand_slot() -> Interval:
        return slots[rng.randbelow(nslots)]

    def rand_slot_pair() -> Tuple[Interval, Interval]:
        i = rng.randbelow(nslots)
        j = rng.randbelow(nslots - 1)
        if j >= i:
            j += 1
        return slots[i], slots[j]

    if spec.per_kind > 0 and rng is None:
        raise ValueError("structure sampling requires an rng")

    if spec.per_kind > 0 and size_a >= 2 and size_c >= 1 and nslots >= 2:
        labels = _Ranks(state.labels)
        diffs = _Ranks(state.diffs)
        for _ in range(spec.per_kind):
            push(x1(rand_slot()))
        for _ in range(spec.per_kind):
            anchor = labels.element(rng.randbelow(size_a))
            fixed_c = diffs.element(rng.randbelow(size_c))
            s1, s2 = rand_slot_pair()
            push(x2(anchor, s1, fixed_c, s2))
        for _ in range(spec.per_kind):
            push(x3(labels.element(rng.randbelow(size_a)), rand_slot()))
        for _ in range(spec.per_kind):
            rank = rng.randbelow(size_a)
            anchor = labels.element(rank)
            # uniform over A minus the anchor: skip the anchor's rank
            rank2 = rng.randbelow(size_a - 1)
            other = labels.element(rank2 + (rank2 >= rank))
            push(x4(anchor, other, rand_slot()))

    return QuasiReport(checkpoint=t, alpha=float(alpha),
                       quasi1_max_dev=worst, quasi2_devs=tuple(devs))


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

    ambient = LabelState(sys)
    bound = Fraction(4 * m, ell)

    def p_struct(X: Structure) -> Fraction:
        base = count_structure(X, ambient)
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
