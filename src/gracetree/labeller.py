"""Sequential randomized labelling with corrective removals.

Vertices are revealed in plan order.  Each step draws the new vertex's
label uniformly from the admissible part of its target interval (values
still unused whose difference to the parent's label is also unused),
burns that label and difference, then applies one vertex-side and one
edge-side corrective removal drawn from fixed distributions, so the
stock of unused values stays near-uniform across every window.

Each uniform draw is a rejection draw: up to K uniform positions of the
window are tried, each accepted when its bits say it is free, and only
after K misses is the whole window read and a rank selected in it.  Both
are uniform on the same set, so the law is that of a draw from the
window's mask; the expected cost is about 1/density tries plus a rare
O(ell/64) fallback.

The randomness comes in batches.  Every target interval has width ell
and every correction window width m, so a try reads the next value of
an endless width-ell (label) or width-m (pick) offset iterator,
Rng.offsets, one next() each.  The correction laws do not depend on
the label state, so an attempt draws both for all of its steps up front
(CorrectionDistribution.hits) and keeps only the steps that hit.  Only
the rare fallback ranks are single randbelow calls.  run_labelling's
docstring gives each stream's address and the draw order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .bitset import _LOW, _SHIFT, BlockBits, select
from .intervals import (
    CorrectionDistribution,
    Interval,
    IntervalSystem,
    core_distribution,
    corv_distribution,
)
from .prepare import Plan
from .rng import Rng

FAIL_CHOOSE = "choose-label"
FAIL_CORV = "corv-removal"
FAIL_CORE = "core-removal"

# uniform positions a draw tries before it reads its whole window (see
# draw_label and pick_free).  On a shared 2-vCPU host a try cost about
# 1 us whatever the width when it was one randbelow call, the fallback
# about 4.4 us at ell = 512, 22 us at 5120 and 110 us at 51200.  On a
# random 10^5-vertex tree (gamma = 1/2, m = ell/4) 7.2% of label draws
# miss 8 tries and 1.8% miss 16, so 16 tries cost about 3% more per draw
# than the best K at ell = 512 and are near the best at ell = 1024 and
# above.  A try that reads an offset iterator is cheaper, which moves
# the best K up, not down.
K = 16
TRIES = range(K)


class LabelState:
    """Free vertex labels A and free differences C of one attempt.

    Both are BlockBits, and so is the mirror of C about n_tilde (bit k
    set iff difference n_tilde - k is free), so the labels below the
    parent read a forward window of the mirror just as the labels above
    it read one of C.  A step draws its label with draw_label: each try
    reads one bit of A and one of C, and about 1/density tries hit; only
    after K misses does it read the label window of its target interval
    plus one difference window, on the parent's side of it (both sides
    only when the parent's label lies inside the interval, which target
    intervals and their complements all but rule out).  The first
    vertex, which has no parent, and the correction picks draw with
    pick_free, one bit of A or C per try, and every removal rewrites one
    block (take_label, take_diff).  So a step costs O(1/density) bit
    reads plus, rarely, O(ell/64) words, whatever n_tilde is.  Every
    window, here and in the audit (quasirandom.py), is read by the one
    window reader, BlockBits.window; the audit also reads A and C as
    numpy word arrays once per checkpoint and keeps no copy of the
    state between checkpoints.

    size_a and size_c are |A| and |C|; steps_done, corv_hits and
    core_hits count completed steps and the corrective removals made in
    them; attempt is the attempt's index.  The label loop keeps all five
    counts in locals and writes them here before every checkpoint and
    when the attempt ends, so they are current whenever a caller sees
    the state.
    """

    __slots__ = (
        "sys",
        "attempt",
        "labels",
        "diffs",
        "diffs_rev",
        "size_a",
        "size_c",
        "steps_done",
        "corv_hits",
        "core_hits",
    )

    def __init__(self, sys: IntervalSystem, attempt: int = 0):
        self.sys = sys
        self.attempt = attempt
        nt = sys.n_tilde
        self.labels = BlockBits.span(1, nt)
        self.diffs = BlockBits.span(1, nt - 1)
        self.diffs_rev = BlockBits.span(1, nt - 1)
        self.size_a = nt
        self.size_c = nt - 1
        self.steps_done = 0
        self.corv_hits = 0
        self.core_hits = 0

    def admissible_mask(self, a: int, iv: Interval) -> int:
        """Window bitmask of labels in iv admissible against parent label a
        (bit k = label iv.lo + k); a and iv lie in 1..n_tilde."""
        lo, hi = iv
        w = hi - lo + 1
        # labels above a need difference b - a free in C, labels below
        # it need n_tilde - (a - b) free in the mirror; a side that holds
        # no label of iv is not read
        up = self.diffs.window(lo - a, w) if a <= hi else 0
        down = (self.diffs_rev.window(lo + self.sys.n_tilde - a, w)
                if a >= lo else 0)
        return self.labels.window(lo, w) & (up | down)

    def draw_label(self, a: int, iv: Interval, offsets: Iterator[int],
                   randbelow: Callable[[int], int]) -> int:
        """A label drawn uniformly from the labels of iv admissible
        against parent label a >= 1, or -1 when there is none.

        Up to TRIES positions lo + next(offsets) of iv are tried
        (offsets must be uniform on 0..width - 1), each accepted when
        its label is free in A and its difference to a is free in C: two
        bit reads.  After TRIES misses the draw falls back to
        admissible_mask and select, with the rank drawn by randbelow,
        which also finds an empty window.  Every try and the fallback
        are uniform on the same admissible set, so the draw is too.
        """
        lo = iv.lo
        labels = self.labels.blocks
        diffs = self.diffs.blocks
        for _ in TRIES:
            b = lo + next(offsets)
            if labels[b >> _SHIFT] >> (b & _LOW) & 1:
                d = b - a if b > a else a - b
                if diffs[d >> _SHIFT] >> (d & _LOW) & 1:
                    return b
        return _rank_draw(self.admissible_mask(a, iv), lo, randbelow)


def pick_free(bits: BlockBits, lo: int, w: int, offsets: Iterator[int],
              randbelow: Callable[[int], int]) -> int:
    """A bit drawn uniformly from the set bits of bits in lo..lo+w-1, or
    -1 when there is none: up to TRIES positions lo + next(offsets)
    (offsets uniform on 0..w - 1), each one bit read, then the window
    and select, as in LabelState.draw_label.

    lo..lo+w-1 must lie below the last block's end.
    """
    blocks = bits.blocks
    for _ in TRIES:
        b = lo + next(offsets)
        if blocks[b >> _SHIFT] >> (b & _LOW) & 1:
            return b
    return _rank_draw(bits.window(lo, w), lo, randbelow)


def _rank_draw(mask_bits: int, lo: int,
               randbelow: Callable[[int], int]) -> int:
    """lo plus a uniform set bit of mask_bits, or -1 when it has none."""
    cnt = mask_bits.bit_count()
    if not cnt:
        return -1
    return lo + select(mask_bits, randbelow(cnt))


def take_label(labels: list[int], b: int) -> None:
    """Clear label b in A's blocks; AssertionError if it is not free.

    b must lie below the last block's end; b < 0 counts as not free.
    """
    j = b >> _SHIFT
    bit = 1 << (b & _LOW)
    if j < 0 or not labels[j] & bit:
        raise AssertionError(f"label {b} already removed")
    labels[j] ^= bit


def take_diff(diffs: list[int], mirror: list[int], d: int,
              n_tilde: int) -> None:
    """Clear difference d in C's blocks and n_tilde - d in its mirror's;
    AssertionError if d is not free.

    d must lie below the last block's end; d < 0 counts as not free.
    """
    j = d >> _SHIFT
    bit = 1 << (d & _LOW)
    if j < 0 or not diffs[j] & bit:
        raise AssertionError(f"difference {d} already removed")
    diffs[j] ^= bit
    r = n_tilde - d
    mirror[r >> _SHIFT] ^= 1 << (r & _LOW)


@dataclass(frozen=True)
class TraceRow:
    t: int
    vertex: int
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
    success: bool
    psi: dict[int, int] | None
    plan: Plan
    attempts: int
    failures: tuple[AttemptFailure, ...]
    trace: tuple[TraceRow, ...] | None
    # completed steps of the last attempt, and its corrective removals
    steps: int = 0
    corv_hits: int = 0
    core_hits: int = 0

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
    on_checkpoint: Callable[[LabelState, int], None] | None,
    collect_trace: bool,
    attempt: int,
) -> tuple[
    dict[int, int] | None, AttemptFailure | None, list[TraceRow] | None, LabelState
]:
    state = LabelState(sys, attempt)
    # the loop's lookups, bound once per attempt
    draw = state.draw_label
    label_bits = state.labels
    diff_bits = state.diffs
    a_blocks = state.labels.blocks
    c_blocks = state.diffs.blocks
    mirror_blocks = state.diffs_rev.blocks
    # one stream per purpose; run_labelling documents the addresses
    label_offsets = rng.child(0).offsets(sys.ell)
    pick_offsets = rng.child(1).offsets(sys.m)
    corv_at, corv_lo = corv.hits(rng.child(2), len(plan.order))
    core_at, core_lo = core.hits(rng.child(3), len(plan.order))
    randbelow = rng.child(4).randbelow
    # the next hit of each law: index into its schedule, and its step
    # (-1 past the last hit, which no step matches)
    corv_at.append(-1)
    core_at.append(-1)
    ci = ei = 0
    corv_next, core_next = corv_at[0], core_at[0]
    interval_of = plan.interval_of
    parent_pos = plan.parent_pos
    m = sys.m
    nt = sys.n_tilde
    if not (checkpoint_every and on_checkpoint):
        checkpoint_every = 0
    labels: list[int] = []
    trace: list[TraceRow] | None = [] if collect_trace else None
    # |A|, |C|, completed steps and their removals; written to state
    # before every checkpoint and on return
    size_a, size_c = state.size_a, state.size_c
    steps = corv_hits = core_hits = 0
    failure = None
    for pos, vertex in enumerate(plan.order):
        t = pos + 1
        if pos:
            a = labels[parent_pos[pos]]
            b = draw(a, interval_of[pos], label_offsets, randbelow)
        else:  # the first vertex has no parent: a free label of A
            b = pick_free(label_bits, interval_of[0].lo, sys.ell,
                          label_offsets, randbelow)
        if b < 0:
            failure = AttemptFailure(FAIL_CHOOSE, t)
            break
        take_label(a_blocks, b)
        size_a -= 1
        labels.append(b)
        edge_label = -1
        if pos:
            edge_label = abs(b - a)
            take_diff(c_blocks, mirror_blocks, edge_label, nt)
            size_c -= 1

        corv_label = -1
        if pos == corv_next:
            corv_label = pick_free(label_bits, corv_lo[ci], m, pick_offsets,
                                   randbelow)
            ci += 1
            corv_next = corv_at[ci]
            if corv_label < 0:
                failure = AttemptFailure(FAIL_CORV, t)
                break
            take_label(a_blocks, corv_label)
            size_a -= 1
        core_diff = -1
        if pos == core_next:
            core_diff = pick_free(diff_bits, core_lo[ei], m, pick_offsets,
                                  randbelow)
            ei += 1
            core_next = core_at[ei]
            if core_diff < 0:
                failure = AttemptFailure(FAIL_CORE, t)
                break
            take_diff(c_blocks, mirror_blocks, core_diff, nt)
            size_c -= 1

        steps = t
        corv_hits += corv_label >= 0
        core_hits += core_diff >= 0
        if trace is not None:
            trace.append(
                TraceRow(
                    t=t,
                    vertex=vertex,
                    label=b,
                    edge_label=edge_label,
                    corv_label=corv_label,
                    core_diff=core_diff,
                    size_a=size_a,
                    size_c=size_c,
                )
            )
        if checkpoint_every and t % checkpoint_every == 0:
            state.size_a = size_a
            state.size_c = size_c
            state.steps_done = steps
            state.corv_hits = corv_hits
            state.core_hits = core_hits
            on_checkpoint(state, t)
    state.size_a = size_a
    state.size_c = size_c
    state.steps_done = steps
    state.corv_hits = corv_hits
    state.core_hits = core_hits
    if failure is not None:
        return None, failure, trace, state
    psi = {v: labels[i] for i, v in enumerate(plan.order)}
    return psi, None, trace, state


def run_labelling(
    plan: Plan,
    sys: IntervalSystem,
    rng: Rng,
    *,
    max_retries: int = 0,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[LabelState, int], None] | None = None,
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
      batches(den), one value per step of the plan, drawn before the
      first step;
    - r.child(4): every fallback rank, randbelow, in the order the
      label, the vertex pick and the edge pick fall back.

    The result's step and removal counts are those of the last attempt,
    whether or not a trace is collected.
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
        psi, failure, trace, state = _attempt(
            cur_plan,
            sys,
            corv,
            core,
            s.child(1),
            checkpoint_every,
            on_checkpoint,
            collect_trace,
            k,
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
        steps=state.steps_done,
        corv_hits=state.corv_hits,
        core_hits=state.core_hits,
    )
