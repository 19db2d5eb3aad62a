"""Sequential randomized labelling with corrective removals.

Vertices are revealed in plan order.  Each step draws the new vertex's
label uniformly from the admissible part of its target interval (values
still unused whose difference to the parent's label is also unused),
burns that label and difference, then applies one vertex-side and one
edge-side corrective removal drawn from fixed distributions, so the
stock of unused values stays near-uniform across every window.

Each uniform draw is a rejection draw: up to K uniform positions of the
window are tried, each accepted when its bytes say it is free, and only
after K misses is the whole window read (numpy slices of the label
state) and a rank drawn among its free entries.  Both are uniform on the
same set, so the law is that of a draw from the window's mask; the
expected cost is about 1/density tries plus a rare O(ell) fallback.
The tries loop in place over an endless width-ell (label) or width-m
(pick) offset iterator, Rng.offsets, and a fallback rank is one
draws(k, 1) call.  The correction laws do not depend on the label
state, so an attempt draws both for all of its steps up front
(CorrectionDistribution.hits) and keeps only the steps that hit.
run_labelling's docstring gives each stream's address and the draw
order.

The label loop (_attempt) is one pass over the plan with the label
draw written inline.  It reads the plan's parent positions and window
starts as Python ints in chunks of 4096 (rng.chunks), so no step
indexes numpy and no list of the whole plan is built; its one
per-vertex list is the labels, which parents read at random.  A step
reads its parent's label, makes its tries (two byte reads each), clears
the label's byte in A and the difference's in C, appends the label, and
makes one test against the next event: the next step that a correction
law hits, or the last step.  Only an event runs the rare work, the
vertex pick and then the edge pick, each appending the value it took,
and finds the next event with one compare of the two laws' next hits.
So the labels and the picks are the attempt's removal history: the
loop keeps no counter and writes no trace.  run_labelling turns the
last attempt's lists into an AttemptHistory once it has ended, and the
counts, the Trace, the audit (quasirandom.audit_history) and a
completed attempt's labels by vertex (a read-only LabelArray) are read
off it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from itertools import chain, islice
from operator import eq
from typing import Iterator

import numpy as np

from . import prepare
from .intervals import (
    CorrectionDistribution,
    Interval,
    IntervalSystem,
    core_distribution,
    corv_distribution,
)
from .prepare import Plan
from .rng import Rng, chunks
from .verify import LabelArray

FAIL_CHOOSE = "choose-label"
FAIL_CORV = "corv-removal"
FAIL_CORE = "core-removal"

# uniform positions a draw tries before it reads its whole window (see
# _attempt and pick_free).  On a shared 2-vCPU host a missed label try
# costs 0.12-0.24 us, a fallback 3-6 us at ell = 512 and 50-110 us at
# 51200.  On random trees at gamma = 1/2 with components capped at 32,
# about 2% of label draws miss 16 tries and under 0.01% miss 64 (n = 10^5
# and 10^6, ell = 512 and 51200).  At ell = 512 tries 17..64 cost about
# what the fallbacks they save did; at ell = 51200 they cut the 10^6
# label stage from 4.3-4.7 s to 1.6-2.0 s.
K = 64
TRIES = range(K)


class LabelState:
    """Free vertex labels A and free differences C of one attempt.

    A and C are bytearrays of n_tilde + 1 bytes, labels and diffs: byte
    v is 1 iff v is free, and byte 0 is 0 in both (no label is 0, and
    difference 0 is never an edge label).  A label try reads one byte of
    A and one of C, and about 1/density tries hit; only after K misses
    does the draw read the label window of its target interval and the
    matching difference window (admissible_mask, one row of _diff_rows):
    a forward slice of C when the parent's label lies below the
    interval, a reversed one when it lies above, and C indexed by
    |b - a| when it lies inside, which target intervals and their
    complements all but rule out.  The first vertex and the correction
    picks draw with pick_free, one byte per try.  A removal clears one
    byte: in place when a try hits, else through take, which checks that
    the value is still free.  So a step costs O(1/density) byte reads
    plus, rarely, O(ell) bytes of numpy work, whatever n_tilde is.  The
    audit (quasirandom.py) reads difference windows by _diff_rows too.
    The state is the two sets and nothing else: |A| and |C| are counted
    off the bytes, and an attempt's counts and trace are read off its
    history (LabelResult).
    """

    __slots__ = ("labels", "diffs")

    def __init__(self, sys: IntervalSystem):
        nt = sys.n_tilde
        self.labels = bytearray(b"\0" + b"\1" * nt)
        self.diffs = bytearray(b"\0" + b"\1" * (nt - 1) + b"\0")

    def admissible_mask(self, a: int, iv: Interval) -> np.ndarray:
        """Window mask of labels in iv admissible against parent label a:
        a new bool array whose entry k is set iff label iv.lo + k is free
        and so is its difference to a (_diff_rows' one row); a and iv
        lie in 1..n_tilde."""
        lo, hi = iv
        w = hi - lo + 1
        row = _diff_rows(self.diffs, np.array([a]), np.array([lo]), w)[0]
        row &= _rows(self.labels, w)[lo]
        return row.view(bool)


def _rows(buf, w: int, reverse: bool = False) -> np.ndarray:
    """buf's len(buf) - w + 1 windows of w bytes as one uint8 view, no
    copy: row r is bytes r..r+w-1, in reverse order when reverse.
    Indexing it with an array of rows gathers them."""
    return np.ndarray((len(buf) - w + 1, w), np.uint8, buf,
                      offset=w - 1 if reverse else 0,
                      strides=(1, -1 if reverse else 1))


def _diff_rows(diffs: bytearray, a: np.ndarray, lo: np.ndarray,
               w: int) -> np.ndarray:
    """The difference windows of anchors a over the slots lo..lo+w-1, as
    a new uint8 array: entry j of row i is byte |lo[i] + j - a[i]| of
    diffs, so on the label state it is 1 iff that difference is free.
    diffs is C's bytes or any n_tilde + 1 bytes indexed like them whose
    byte 0 is 0; a and lo are int64 arrays, a slot lies in 1..n_tilde
    and an anchor in 1..n_tilde.  The label draw's fallback
    (admissible_mask) reads one row, the audit (quasirandom.py) one per
    pattern."""
    d = lo - a
    # a below the slot: label b needs difference b - a
    rows = _rows(diffs, w)[np.maximum(d, 0)]
    # a above it: difference a - b, read backwards from a - hi
    i = np.flatnonzero(d <= 0)
    rows[i] = _rows(diffs, w, True)[np.maximum(1 - w - d[i], 0)]
    i = i[d[i] > -w]
    if len(i):  # a inside: both sides; difference 0, at b = a, is never free
        rows[i] = np.frombuffer(diffs, np.uint8)[
            np.abs(np.arange(w) + d[i, None])]
    return rows


def pick_free(free: bytearray, lo: int, w: int, offsets: Iterator[int],
              ranks: Rng) -> int:
    """A value drawn uniformly from the free values of free (byte v is 1
    iff v is free) in lo..lo+w-1, or -1 when there is none: up to TRIES
    positions lo + x, x the next of offsets (uniform on 0..w - 1), each
    one byte read, then the window and a rank drawn from ranks, as the
    label draw in _attempt does.  lo..lo+w-1 must lie in free.
    """
    for x in islice(offsets, len(TRIES)):
        if free[lo + x]:
            return lo + x
    return _rank_draw(np.frombuffer(free, bool, w, lo), lo, ranks)


def _rank_draw(mask: np.ndarray, lo: int, ranks: Rng) -> int:
    """lo plus a uniform set index of the bool array mask, or -1 when it
    has none: the set indices in ascending order, and one of them by the
    rank ranks.draws(count, 1) gives."""
    idx = mask.nonzero()[0]
    if not len(idx):
        return -1
    return lo + int(idx[ranks.draws(len(idx), 1)[0]])


def take(free: bytearray, v: int, what: str) -> None:
    """Clear value v of free; AssertionError, naming v as a what, if v
    is not free.  v < 0 counts as not free."""
    if v < 0 or not free[v]:
        raise AssertionError(f"{what} {v} already removed")
    free[v] = 0


@dataclass(frozen=True)
class TraceRow:
    t: int
    label: int
    edge_label: int  # -1 on the first step
    corv_label: int  # removed vertex label, -1 when the draw was the null outcome
    core_diff: int  # removed edge difference, -1 likewise
    size_a: int
    size_c: int


class Trace(Sequence):
    """An attempt's trace, one TraceRow per completed step in step
    order, held as one int64 array whose row i holds row i's fields.
    Indexing gives a TraceRow and slicing a Trace; a Trace equals any
    sequence of the same TraceRows."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(self.rows[i])
        return TraceRow(*self.rows[i].tolist())

    def __iter__(self):
        return (TraceRow(*row) for c in chunks(self.rows) for row in c)

    def __eq__(self, other):
        return (isinstance(other, Sequence) and len(self) == len(other)
                and all(map(eq, self, other)))


@dataclass(frozen=True)
class AttemptFailure:
    site: str
    step: int


@dataclass(frozen=True, eq=False)
class AttemptHistory:
    """What one attempt removed from its free sets, in step order, as
    int32 arrays: labels[p] is position p's label, and diffs[p - 1] its
    edge difference for p >= 1, which leave A and C at step p + 1; the
    vertex picks took corv[i] from A at step corv_steps[i], and the edge
    picks core[i] from C at step core_steps[i].  steps counts the
    completed steps; a failed attempt also keeps its failing step's
    label and picks, which leave after every completed step.  So the
    free sets after t <= steps completed steps are 1..n_tilde and
    1..n_tilde-1 less what left at steps 1..t."""

    steps: int
    n_tilde: int
    labels: np.ndarray
    diffs: np.ndarray
    corv_steps: np.ndarray
    corv: np.ndarray
    core_steps: np.ndarray
    core: np.ndarray

    def __eq__(self, other):
        return isinstance(other, AttemptHistory) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in self.__dataclass_fields__)


def _trace(h: AttemptHistory) -> Trace:
    """The Trace of the attempt whose history is h: step t's label and
    edge difference, the picks made on it (-1 for none), and the sizes
    of A and C after it, n_tilde - t less the picks so far."""
    s = h.steps
    rows = np.full((s, 7), -1, np.int64)
    rows[:, 0] = t = np.arange(1, s + 1)
    rows[:, 1] = h.labels[:s]
    rows[1:, 2] = h.diffs[:max(s - 1, 0)]
    for col, at, values in ((3, h.corv_steps, h.corv),
                            (4, h.core_steps, h.core)):
        rows[at[at <= s] - 1, col] = values[at <= s]
        rows[:, col + 2] = h.n_tilde - t - np.cumsum(rows[:, col] >= 0)
    return Trace(rows)


def _history(plan: Plan, sys: IntervalSystem, steps: int, labels: list,
             corv_at: list, corv: list, core_at: list,
             core: list) -> AttemptHistory:
    """An attempt's AttemptHistory from the lists _attempt returns: the
    labels placed, in position order, and the law hit positions and the
    values the picks took (a hit at position p is made on step p + 1).
    """
    lab = np.array(labels, np.int32)
    diffs = lab[1:] - lab[plan.parent_pos[1:len(lab)]]
    np.abs(diffs, out=diffs)

    def picks(at, values):
        return (np.array(at[:len(values)], np.int32) + 1,
                np.array(values, np.int32))

    return AttemptHistory(steps, sys.n_tilde, lab, diffs,
                          *picks(corv_at, corv), *picks(core_at, core))


@dataclass(frozen=True)
class LabelResult:
    """The outcome of run_labelling.  psi holds the labels of the
    completed attempt by vertex, as one read-only int64 array (see
    verify.LabelArray), and is None when every attempt failed.  history
    is the last attempt's AttemptHistory, and steps, corv_hits,
    core_hits and trace are read off it: that attempt's completed
    steps, the vertex and edge removals made in them, and its Trace,
    built anew on each read."""

    success: bool
    psi: LabelArray | None
    plan: Plan
    attempts: int
    failures: tuple[AttemptFailure, ...]
    history: AttemptHistory | None = None
    # ignored: perfbench's tests still pass trace=None (see the property)
    trace: InitVar[None] = None

    @property
    def steps(self) -> int:
        return self.history.steps

    @property
    def corv_hits(self) -> int:
        # a failed attempt may have made a vertex pick on its failing step
        h = self.history
        return int(np.count_nonzero(h.corv_steps <= h.steps))

    @property
    def core_hits(self) -> int:
        h = self.history
        return int(np.count_nonzero(h.core_steps <= h.steps))

    def failure_histogram(self) -> dict[str, int]:
        return dict(Counter(f.site for f in self.failures))


# set after the class, so that the dataclass keeps the keyword above
LabelResult.trace = property(lambda self: _trace(self.history))


def _attempt(
    plan: Plan,
    sys: IntervalSystem,
    corv: CorrectionDistribution,
    core: CorrectionDistribution,
    rng: Rng,
) -> tuple[AttemptFailure | None, tuple]:
    """One attempt: (its failure or None, its removal lists: the labels
    in position order, the vertex law's hit positions, the values its
    picks took, and the same two for the edge law, which _history
    reads)."""
    state = LabelState(sys)
    # the loop's lookups, bound once per attempt
    free_a = state.labels
    free_c = state.diffs
    n = len(plan.lo)
    m = sys.m
    ell = sys.ell
    # one stream per purpose; run_labelling documents the addresses
    label_offsets = rng.child(0).offsets(ell)
    pick_offsets = rng.child(1).offsets(sys.m)
    corv_at, corv_lo = corv.hits(rng.child(2), n)
    core_at, core_lo = core.hits(rng.child(3), n)
    ranks = rng.child(4)
    # each law's hit positions end with n, a position no step has; ci
    # and ei index the next hit
    corv_at.append(n)
    core_at.append(n)
    ci = ei = 0
    # the values the picks took, in step order
    corv_picks: list[int] = []
    core_picks: list[int] = []
    labels: list[int] = []
    removals = (labels, corv_at, corv_picks, core_at, core_picks)

    # step 1: the first vertex has no parent, so its label is a free
    # label of its interval; a failure here leaves the state untouched
    b = pick_free(free_a, int(plan.lo[0]), ell, label_offsets, ranks)
    if b < 0:
        return AttemptFailure(FAIL_CHOOSE, 1), removals
    take(free_a, b, "label")
    labels.append(b)
    failure = None
    # a label draw reads at most budget offsets, none when it is 0
    budget = len(TRIES)
    tries = label_offsets if budget else ()
    # the step whose picks are due next, or the last step, which ends
    # the loop; step 1 is handled as one, and finds the next
    event = 1
    # the plan from position 1, in chunks; step n runs its rare work
    # before the loop breaks, so each stream ends in one spare entry
    # that no draw reads
    parents = chain.from_iterable(chain(chunks(plan.parent_pos, 1), ([0],)))
    los = chain.from_iterable(chain(chunks(plan.lo, 1), ([0],)))
    for t, pp, lo in zip(range(1, n + 1), parents, los):
        # labels[:t] are placed; first step t's picks, on an event
        if t == event:
            p = t - 1
            if p == corv_at[ci]:
                x = pick_free(free_a, corv_lo[ci], m, pick_offsets, ranks)
                ci += 1
                if x < 0:
                    failure = AttemptFailure(FAIL_CORV, t)
                    break
                take(free_a, x, "label")
                corv_picks.append(x)
            if p == core_at[ei]:
                x = pick_free(free_c, core_lo[ei], m, pick_offsets, ranks)
                ei += 1
                if x < 0:
                    failure = AttemptFailure(FAIL_CORE, t)
                    break
                take(free_c, x, "difference")
                core_picks.append(x)
            if t == n:
                break
            # a hit at position p is made on step p + 1; the sentinels
            # give n + 1, and the last step is the event after them
            nc, ne = corv_at[ci], core_at[ei]
            event = (nc if nc < ne else ne) + 1
            if event > n:
                event = n
        # then step t + 1: the label of position t, drawn as in the
        # class docstring; a try that hits has checked both bytes, so it
        # clears them in place
        a = labels[pp]
        left = budget
        for x in tries:
            b = lo + x
            if free_a[b]:
                d = b - a if b > a else a - b
                if free_c[d]:
                    free_a[b] = free_c[d] = 0
                    break
            left -= 1
            if not left:
                break
        if not left:
            b = _rank_draw(state.admissible_mask(
                a, Interval(lo, lo + ell - 1)), lo, ranks)
            if b < 0:
                failure = AttemptFailure(FAIL_CHOOSE, t + 1)
                break
            take(free_a, b, "label")
            take(free_c, abs(b - a), "difference")
        labels.append(b)
    return failure, removals


def run_labelling(
    plan: Plan,
    sys: IntervalSystem,
    rng: Rng,
    *,
    max_retries: int = 0,
) -> LabelResult:
    """Run attempts until one completes or retries are exhausted.

    The first attempt labels plan, and attempt k >= 1 a new draw of its
    intervals, prepare.assign_intervals(plan, sys, rng.child(k).child(0))
    looked up when it runs.  Attempt k draws its labels from
    r = rng.child(k).child(1), each purpose from its own child, in order:

    - r.child(0): the label tries, offsets(ell), at most K per step;
    - r.child(1): the correction picks' tries, offsets(m), the vertex
      pick's before the edge pick's;
    - r.child(2), r.child(3): the vertex and the edge removal law,
      draws(den, ...) in blocks of up to 4096 steps, one value per step
      of the plan, drawn before the first step;
    - r.child(4): every fallback rank, draws(k, 1) for a window with k
      candidates, in the order the label, the vertex pick and the edge
      pick fall back.

    The last attempt's lists become its AttemptHistory (O(n) int32
    arrays), all the result keeps of it, and psi is scattered from it.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    failures: list[AttemptFailure] = []
    corv = corv_distribution(sys)
    core = core_distribution(sys)
    cur_plan = plan
    for k in range(max_retries + 1):
        # a failed attempt's lists are dropped before the next one runs
        removals = None
        s = rng.child(k)
        if k:
            cur_plan = prepare.assign_intervals(plan, sys, s.child(0))
        failure, removals = _attempt(cur_plan, sys, corv, core, s.child(1))
        if failure is None:
            break
        failures.append(failure)
    n = len(plan.order)
    history = _history(cur_plan, sys, n if failure is None
                       else failure.step - 1, *removals)
    del removals
    psi = None
    if failure is None:
        by_vertex = np.zeros(n + 1, np.int64)
        by_vertex[cur_plan.order] = history.labels
        psi = LabelArray(by_vertex)
    return LabelResult(
        success=failure is None,
        psi=psi,
        plan=cur_plan,
        attempts=k + 1,
        failures=tuple(failures),
        history=history,
    )
