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

The label loop (_attempt) is one pass over the plan with the label
draw written inline.  It reads the plan's parent positions and window
starts as Python ints in chunks of 4096 (rng.chunks), so no step
indexes numpy and no list of the whole plan is built; its one
per-vertex list is the labels, which parents read at random.  A step
reads its parent's label, makes its tries (two byte reads each), clears
the label's byte in A and the difference's in C, appends the label, and
makes one test against the next event: the next step that one of the
correction laws hits, the next checkpoint or the last step, and every
step when a trace is collected.  Only an event step runs the rare work,
in this order: the vertex correction pick, the edge correction pick,
the trace row, the checkpoint.  No count is kept per step: the loop
counts only the corrective removals (corv_hits, core_hits), on events,
and a trace row derives |A| = n_tilde - t - corv_hits and
|C| = n_tilde - t - core_hits from them after t completed steps, and
its edge label from the last label and the parent label its draw read.
A checkpoint hands the callback the state itself, and the audit counts
A and C off its bytes.  A completed attempt scatters the labels by
vertex into an int64 array once and returns that array read-only
(LabelArray), so the pipeline builds no dict of labels.

Every value is read by Rng.draws, in blocks.  Every target interval
has width ell and every correction window width m, so a try reads the
next value of an endless width-ell (label) or width-m (pick) offset
iterator, Rng.offsets, one next() each.  The correction laws do not
depend on the label state, so an attempt draws both for all of its
steps up front (CorrectionDistribution.hits) and keeps only the steps
that hit.  A rare fallback rank is one draws(k, 1) call.
run_labelling's docstring gives each stream's address and the draw
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterator

import numpy as np

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
# _attempt and pick_free).  On a shared 2-vCPU host a label try that
# misses costs 0.12-0.24 us (one next() of an offset iterator and one
# or two byte reads).  The fallback costs 3-5 us at ell = 512, 7-11 us
# at 5120 and 50-70 us at 51200 when the parent's label lies below the
# window, and 4-6, 12-19 and 95-110 us when it lies above (C's slice is
# then read backwards).  On random trees at gamma = 1/2 with components
# capped at 32, 1.8% of label draws miss 16 tries and 0.005-0.007% miss
# 64, at n = 10^5 and 10^6 with m = 128, ell = 512, and at n = 10^6 with
# m = 12800, ell = 51200 (2.3% and 0.006% there).  At ell = 512 tries
# 17..64 cost about what the fallbacks they save did (the 10^6 label
# stage takes 1.05-1.41 s at K = 64 and 1.09-1.37 s at K = 16); at
# ell = 51200 they cut it from 4.3-4.7 s to 1.6-2.0 s, and at n = 2*10^6,
# ell = 102400 from 14.0-14.8 s to 4.5-4.6 s.
K = 64
TRIES = range(K)


class LabelState:
    """Free vertex labels A and free differences C of one attempt.

    A and C are bytearrays of n_tilde + 1 bytes, labels and diffs: byte
    v is 1 iff v is free, and byte 0 is 0 in both (no label is 0, and
    difference 0 is never an edge label).  label_view and diff_view are
    numpy bool views of the same bytes, for the whole-window reads.  A
    step draws its label in the label loop (_attempt): each try reads one
    byte of A and one of C, and about 1/density tries hit; only after K
    misses does it read the label window of its target interval and the
    matching difference window (admissible_mask, one row of _diff_rows):
    a forward slice of C when the parent's label lies below the
    interval, a reversed one when it lies above, and C indexed by
    |b - a| when it lies inside, which target intervals and their
    complements all but rule out.  The first vertex, which has no
    parent, and the correction picks draw with pick_free, one byte of A
    or C per try.  A removal clears one byte: in place when a try hits,
    through take, which checks that the value is still free, everywhere
    else.  So a step costs O(1/density) byte reads plus, rarely, O(ell)
    bytes of numpy work, whatever n_tilde is.  Every difference window,
    here and in the audit (quasirandom.py), is read by _diff_rows; the
    audit also packs A and C into 64-bit words once per checkpoint and
    keeps no copy of the state between checkpoints.

    The state is the two free sets and nothing else: |A| and |C| are
    counted off the bytes by whoever needs them, and an attempt's step
    and removal counts come back from _attempt.
    """

    __slots__ = ("labels", "diffs", "label_view", "diff_view")

    def __init__(self, sys: IntervalSystem):
        nt = sys.n_tilde
        self.labels = bytearray(b"\0" + b"\1" * nt)
        self.diffs = bytearray(b"\0" + b"\1" * (nt - 1) + b"\0")
        self.label_view = np.frombuffer(self.labels, bool)
        self.diff_view = np.frombuffer(self.diffs, bool)

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
    a new uint8 array: entry j of row i is 1 iff difference
    |lo[i] + j - a[i]| is free.  a and lo are int64 arrays, a slot lies
    in 1..n_tilde and an anchor in 1..n_tilde.  The label draw's
    fallback (admissible_mask) reads one row, the audit
    (quasirandom.py) one per pattern."""
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
    positions lo + next(offsets) (offsets uniform on 0..w - 1), each one
    byte read, then the window and a rank drawn from ranks, as the label
    draw in _attempt does.  lo..lo+w-1 must lie in free.
    """
    for _ in TRIES:
        b = lo + next(offsets)
        if free[b]:
            return b
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


@dataclass(frozen=True)
class AttemptFailure:
    site: str
    step: int


@dataclass(frozen=True)
class LabelResult:
    """The outcome of run_labelling.  psi holds the labels of the
    completed attempt by vertex, as one read-only int64 array (see
    verify.LabelArray), and is None when every attempt failed.  steps,
    corv_hits, core_hits and reports describe the last attempt: its
    completed steps, the corrective removals made in them, and what
    on_checkpoint returned at each of its checkpoints, in step order."""

    success: bool
    psi: LabelArray | None
    plan: Plan
    attempts: int
    failures: tuple[AttemptFailure, ...]
    trace: tuple[TraceRow, ...] | None
    steps: int = 0
    corv_hits: int = 0
    core_hits: int = 0
    reports: tuple = ()

    def failure_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for f in self.failures:
            hist[f.site] = hist.get(f.site, 0) + 1
        return hist


def _attempt(
    plan: Plan,
    sys: IntervalSystem,
    corv: CorrectionDistribution,
    core: CorrectionDistribution,
    rng: Rng,
    checkpoint_every: int,
    on_checkpoint: Callable[[LabelState, int], Any] | None,
    collect_trace: bool,
) -> tuple[LabelArray | None, AttemptFailure | None, list[TraceRow] | None,
           int, int, int, list]:
    """One attempt: (labels or None, failure or None, trace rows or None,
    completed steps, vertex and edge removals made in them, the values
    on_checkpoint returned)."""
    state = LabelState(sys)
    # the loop's lookups, bound once per attempt
    free_a = state.labels
    free_c = state.diffs
    n = len(plan.lo)
    m = sys.m
    nt = sys.n_tilde
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
    # the step of the next checkpoint, n + 1 when there is none
    cp_next = checkpoint_every if checkpoint_every and on_checkpoint else n + 1
    trace: list[TraceRow] | None = [] if collect_trace else None
    reports: list = []

    # step 1: the first vertex has no parent, so its label is a free
    # label of its interval; a failure here leaves the state untouched
    b = pick_free(free_a, int(plan.lo[0]), ell, label_offsets, ranks)
    if b < 0:
        return None, AttemptFailure(FAIL_CHOOSE, 1), trace, 0, 0, 0, reports
    take(free_a, b, "label")
    labels = [b]
    # removals made in completed steps; |A| and |C| follow from them
    corv_hits = core_hits = 0
    failure = None
    # the step whose rare work is due next: every step when tracing,
    # else the first of the next law hit, the next checkpoint and the
    # last step, which ends the loop; step 1 is handled as one, and
    # finds the next
    event = 1
    # the plan from position 1, in chunks; step n runs its rare work
    # before the loop breaks, so each stream ends in one spare entry
    # that no draw reads
    parents = chain(chain.from_iterable(chunks(plan.parent_pos, 1)), (0,))
    los = chain(chain.from_iterable(chunks(plan.lo, 1)), (0,))
    for t, pp, lo in zip(range(1, n + 1), parents, los):
        # labels[:t] are placed; first the rare work of step t, in order
        # the vertex pick, the edge pick, the trace row, the checkpoint
        if t == event:
            p = t - 1
            corv_label = core_diff = -1
            if p == corv_at[ci]:
                corv_label = pick_free(free_a, corv_lo[ci], m,
                                       pick_offsets, ranks)
                ci += 1
                if corv_label < 0:
                    failure = AttemptFailure(FAIL_CORV, t)
                    break
                take(free_a, corv_label, "label")
            if p == core_at[ei]:
                core_diff = pick_free(free_c, core_lo[ei], m,
                                      pick_offsets, ranks)
                ei += 1
                if core_diff < 0:
                    failure = AttemptFailure(FAIL_CORE, t)
                    break
                take(free_c, core_diff, "difference")
            corv_hits += corv_label >= 0
            core_hits += core_diff >= 0
            if trace is not None:
                # b is position p's label, a the parent label its draw
                # read
                trace.append(
                    TraceRow(
                        t=t,
                        label=b,
                        edge_label=abs(b - a) if p else -1,
                        corv_label=corv_label,
                        core_diff=core_diff,
                        size_a=nt - t - corv_hits,
                        size_c=nt - t - core_hits,
                    )
                )
            if t == cp_next:
                reports.append(on_checkpoint(state, t))
                cp_next += checkpoint_every
            if t == n:
                break
            event = t + 1 if trace is not None else min(
                corv_at[ci] + 1, core_at[ei] + 1, cp_next, n)
        # then step t + 1: the label of position t, drawn as in the
        # class docstring; a try that hits has checked both bytes, so it
        # clears them in place
        a = labels[pp]
        for _ in TRIES:
            b = lo + next(label_offsets)
            if free_a[b]:
                d = b - a if b > a else a - b
                if free_c[d]:
                    free_a[b] = free_c[d] = 0
                    break
        else:
            b = _rank_draw(state.admissible_mask(
                a, Interval(lo, lo + ell - 1)), lo, ranks)
            if b < 0:
                failure = AttemptFailure(FAIL_CHOOSE, t + 1)
                break
            take(free_a, b, "label")
            take(free_c, abs(b - a), "difference")
        labels.append(b)
    if failure is not None:
        return (None, failure, trace, failure.step - 1, corv_hits, core_hits,
                reports)
    by_vertex = np.zeros(n + 1, np.int64)
    by_vertex[plan.order] = labels
    return LabelArray(by_vertex), None, trace, n, corv_hits, core_hits, reports


def run_labelling(
    plan: Plan,
    sys: IntervalSystem,
    rng: Rng,
    *,
    max_retries: int = 0,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[LabelState, int], Any] | None = None,
    collect_trace: bool = False,
    replan: Callable[[Rng], Plan] | None = None,
) -> LabelResult:
    """Run attempts until one completes or retries are exhausted.

    Attempt k draws from r = rng.child(k).child(1); when replan is
    given, attempts after the first rebuild the plan from
    rng.child(k).child(0), otherwise every attempt reuses the given
    plan.  Each purpose of an attempt reads its own child of r, in step
    order:

    - r.child(0): the label tries, offsets(ell), at most K per step;
    - r.child(1): the correction picks' tries, offsets(m), the vertex
      pick's before the edge pick's;
    - r.child(2), r.child(3): the vertex and the edge removal law,
      draws(den, ...) in blocks of up to 4096 steps, one value per step
      of the plan, drawn before the first step;
    - r.child(4): every fallback rank, draws(k, 1) for a window with k
      candidates, in the order the label, the vertex pick and the edge
      pick fall back.

    Every checkpoint_every steps of an attempt (none when it is 0 or
    on_checkpoint is None), on_checkpoint(state, t) is called with the
    attempt's state after t completed steps; the state is live and must
    not be changed.  The result's reports are the values it returned on
    the last attempt, and its step and removal counts are that
    attempt's too, whether or not a trace is collected.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    failures: list[AttemptFailure] = []
    corv = corv_distribution(sys)
    core = core_distribution(sys)
    cur_plan = plan
    for k in range(max_retries + 1):
        s = rng.child(k)
        if k and replan is not None:
            cur_plan = replan(s.child(0))
        psi, failure, trace, steps, corv_hits, core_hits, reports = _attempt(
            cur_plan,
            sys,
            corv,
            core,
            s.child(1),
            checkpoint_every,
            on_checkpoint,
            collect_trace,
        )
        if failure is None:
            break
        failures.append(failure)
    return LabelResult(
        success=failure is None,
        psi=psi,
        plan=cur_plan,
        attempts=k + 1,
        failures=tuple(failures),
        trace=tuple(trace) if trace is not None else None,
        steps=steps,
        corv_hits=corv_hits,
        core_hits=core_hits,
        reports=tuple(reports),
    )
