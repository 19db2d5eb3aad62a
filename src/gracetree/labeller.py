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

The label loop (_attempt) is one pass over the plan with the label
draw written inline.  A step reads its parent's label, makes its tries
(two bit reads each), clears the label and the difference in A, C and
C's mirror in place, appends the label, and makes one test against the
next event: the next step that one of the correction laws hits, the
next checkpoint or the last step, and every step when a trace is
collected.  Only an event step runs the rare work, in this order: the
vertex correction pick, the edge correction pick, the trace row, the
checkpoint.  No count is kept per step: after t completed steps
|A| = n_tilde - t - corv_hits and |C| = n_tilde - t - core_hits, and
those two hit counts change only on events.

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
# _attempt and pick_free).  On a shared 2-vCPU host a label try that
# misses costs about 0.3 us (one next() of an offset iterator and two
# bit reads), the fallback about 3 us at ell = 512, 13 us at 5120 and
# 72 us at 51200.  On a random 10^5-vertex tree (gamma = 1/2, m = ell/4)
# 7.2% of label draws miss 8 tries and 1.8% miss 16, so at ell = 512
# tries 9..16 cost about what the fallbacks they save would (at most
# 0.6 tries, 0.17 us, against 0.16 us per draw), and wider windows,
# whose fallback costs more, favour 16 tries over 8.
K = 16
TRIES = range(K)


class LabelState:
    """Free vertex labels A and free differences C of one attempt.

    Both are BlockBits, and so is the mirror of C about n_tilde (bit k
    set iff difference n_tilde - k is free), so the labels below the
    parent read a forward window of the mirror just as the labels above
    it read one of C.  A step draws its label in the label loop
    (_attempt): each try reads one bit of A and one of C, and about
    1/density tries hit; only after K misses does it read the label
    window of its target interval plus one difference window, on the
    parent's side of it (admissible_mask; both sides only when the
    parent's label lies inside the interval, which target intervals and
    their complements all but rule out).  The first vertex, which has no
    parent, and the correction picks draw with pick_free, one bit of A
    or C per try.  Every removal rewrites one block: in place when a try
    hits, through take_label and take_diff, which check that the value
    is still free, everywhere else.  So a step costs O(1/density) bit
    reads plus, rarely, O(ell/64) words, whatever n_tilde is.  Every
    window, here and in the audit (quasirandom.py), is read by the one
    window reader, BlockBits.window; the audit also reads A and C as
    numpy word arrays once per checkpoint and keeps no copy of the
    state between checkpoints.

    size_a and size_c are |A| and |C|; steps_done, corv_hits and
    core_hits count completed steps and the corrective removals made in
    them; attempt is the attempt's index.  The label loop keeps only
    the two hit counts, and only on event steps.  Before every
    checkpoint it writes all five, |A| and |C| derived from the hit
    counts (see the module docstring); when the attempt ends it reads
    |A| and |C| off the bits, since a step that failed part-way may have
    made some of its removals.  So the counts are current whenever a
    caller sees the state.
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


def pick_free(bits: BlockBits, lo: int, w: int, offsets: Iterator[int],
              randbelow: Callable[[int], int]) -> int:
    """A bit drawn uniformly from the set bits of bits in lo..lo+w-1, or
    -1 when there is none: up to TRIES positions lo + next(offsets)
    (offsets uniform on 0..w - 1), each one bit read, then the window
    and select, as the label draw in _attempt does.

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
    label_bits = state.labels
    diff_bits = state.diffs
    a_blocks = label_bits.blocks
    c_blocks = diff_bits.blocks
    mirror_blocks = state.diffs_rev.blocks
    # the plan's arrays as lists, so that no step indexes numpy; the
    # vertices are needed only by trace rows and a completed attempt
    parent_pos = plan.parent_pos.tolist()
    los = plan.lo.tolist()
    order = plan.order.tolist() if collect_trace else None
    n = len(los)
    m = sys.m
    nt = sys.n_tilde
    ell = sys.ell
    # one stream per purpose; run_labelling documents the addresses
    label_offsets = rng.child(0).offsets(ell)
    pick_offsets = rng.child(1).offsets(sys.m)
    corv_at, corv_lo = corv.hits(rng.child(2), n)
    core_at, core_lo = core.hits(rng.child(3), n)
    randbelow = rng.child(4).randbelow
    # each law's hit positions end with n, a position no step has; ci
    # and ei index the next hit
    corv_at.append(n)
    core_at.append(n)
    ci = ei = 0
    # the step of the next checkpoint, n + 1 when there is none
    cp_next = checkpoint_every if checkpoint_every and on_checkpoint else n + 1
    trace: list[TraceRow] | None = [] if collect_trace else None

    # step 1: the first vertex has no parent, so its label is a free
    # label of its interval; a failure here leaves the state untouched
    b = pick_free(label_bits, los[0], ell, label_offsets, randbelow)
    if b < 0:
        return None, AttemptFailure(FAIL_CHOOSE, 1), trace, state
    take_label(a_blocks, b)
    labels = [b]
    # removals made in completed steps; |A| and |C| follow from them
    corv_hits = core_hits = 0
    failure = None
    # the step whose rare work is due next: every step when tracing,
    # else the first of the next law hit, the next checkpoint and the
    # last step, which ends the loop; step 1 is handled as one, and
    # finds the next
    event = 1
    for t in range(1, n + 1):
        # labels[:t] are placed; first the rare work of step t, in order
        # the vertex pick, the edge pick, the trace row, the checkpoint
        if t == event:
            p = t - 1
            corv_label = core_diff = -1
            if p == corv_at[ci]:
                corv_label = pick_free(label_bits, corv_lo[ci], m,
                                       pick_offsets, randbelow)
                ci += 1
                if corv_label < 0:
                    failure = AttemptFailure(FAIL_CORV, t)
                    break
                take_label(a_blocks, corv_label)
            if p == core_at[ei]:
                core_diff = pick_free(diff_bits, core_lo[ei], m,
                                      pick_offsets, randbelow)
                ei += 1
                if core_diff < 0:
                    failure = AttemptFailure(FAIL_CORE, t)
                    break
                take_diff(c_blocks, mirror_blocks, core_diff, nt)
            corv_hits += corv_label >= 0
            core_hits += core_diff >= 0
            if trace is not None:
                b = labels[p]
                trace.append(
                    TraceRow(
                        t=t,
                        vertex=order[p],
                        label=b,
                        edge_label=abs(b - labels[parent_pos[p]]) if p else -1,
                        corv_label=corv_label,
                        core_diff=core_diff,
                        size_a=nt - t - corv_hits,
                        size_c=nt - t - core_hits,
                    )
                )
            if t == cp_next:
                state.size_a = nt - t - corv_hits
                state.size_c = nt - t - core_hits
                state.steps_done = t
                state.corv_hits = corv_hits
                state.core_hits = core_hits
                on_checkpoint(state, t)
                cp_next += checkpoint_every
            if t == n:
                break
            event = t + 1 if trace is not None else min(
                corv_at[ci] + 1, core_at[ei] + 1, cp_next, n)
        # then step t + 1: the label of position t, drawn as in the
        # class docstring; a try that hits has checked both bits, so it
        # clears them in place
        a = labels[parent_pos[t]]
        lo = los[t]
        for _ in TRIES:
            b = lo + next(label_offsets)
            if a_blocks[b >> _SHIFT] >> (b & _LOW) & 1:
                d = b - a if b > a else a - b
                if c_blocks[d >> _SHIFT] >> (d & _LOW) & 1:
                    a_blocks[b >> _SHIFT] ^= 1 << (b & _LOW)
                    c_blocks[d >> _SHIFT] ^= 1 << (d & _LOW)
                    d = nt - d
                    mirror_blocks[d >> _SHIFT] ^= 1 << (d & _LOW)
                    break
        else:
            b = _rank_draw(state.admissible_mask(
                a, Interval(lo, lo + ell - 1)), lo, randbelow)
            if b < 0:
                failure = AttemptFailure(FAIL_CHOOSE, t + 1)
                break
            take_label(a_blocks, b)
            take_diff(c_blocks, mirror_blocks, abs(b - a), nt)
        labels.append(b)
    state.steps_done = n if failure is None else failure.step - 1
    state.corv_hits = corv_hits
    state.core_hits = core_hits
    # a failed step may have made some of its removals, so the sizes
    # are read off the bits
    state.size_a = sum(x.bit_count() for x in a_blocks)
    state.size_c = sum(x.bit_count() for x in c_blocks)
    if failure is not None:
        return None, failure, trace, state
    return dict(zip(plan.order.tolist(), labels)), None, trace, state


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
