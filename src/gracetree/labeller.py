"""Sequential randomized labelling with corrective removals.

Vertices are revealed in plan order.  Each step draws the new vertex's
label uniformly from the admissible part of its target interval (values
still unused whose difference to the parent's label is also unused),
burns that label and difference, then applies one vertex-side and one
edge-side corrective removal drawn from fixed distributions, so the
stock of unused values stays near-uniform across every window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .bitset import BlockBits, select
from .bitset import mask as bit_mask
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


def admissible_labels(
    a: int, interval: Interval, labels: Iterable[int], diffs: Iterable[int]
) -> frozenset[int]:
    """Reference form on explicit sets: values of interval still in labels
    whose distance to a is still in diffs."""
    ls = frozenset(labels)
    ds = frozenset(diffs)
    return frozenset(
        b
        for b in range(interval.lo, interval.hi + 1)
        if b in ls and abs(b - a) in ds
    )


class LabelState:
    """Free vertex labels A and free differences C of one attempt.

    Both are BlockBits, and so is the mirror of C about n_tilde (bit k
    set iff difference n_tilde - k is free), so the labels below the
    parent read a forward window of the mirror just as the labels above
    it read one of C.  Every read is one target or correction window and
    every removal rewrites one block, so a step costs O(ell/64) words
    whatever n_tilde is.  a_bits and c_bits assemble full-width ints for
    snapshot consumers such as the audit, at O(n_tilde/64) each.

    steps_done, corv_hits and core_hits count completed steps and the
    corrective removals made in them; attempt is the attempt's index.
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
        self.labels = BlockBits(bit_mask(1, nt))
        self.diffs = BlockBits(bit_mask(1, nt - 1))
        self.diffs_rev = BlockBits(bit_mask(1, nt - 1))
        self.size_a = nt
        self.size_c = nt - 1
        self.steps_done = 0
        self.corv_hits = 0
        self.core_hits = 0

    @property
    def a_bits(self) -> int:
        return self.labels.to_int()

    @property
    def c_bits(self) -> int:
        return self.diffs.to_int()

    def remove_label(self, b: int) -> None:
        try:
            self.labels.remove(b)
        except KeyError:
            raise AssertionError(f"label {b} already removed") from None
        self.size_a -= 1

    def remove_diff(self, d: int) -> None:
        try:
            self.diffs.remove(d)
        except KeyError:
            raise AssertionError(f"difference {d} already removed") from None
        self.diffs_rev.remove(self.sys.n_tilde - d)
        self.size_c -= 1

    def admissible_mask(self, a: int, iv: Interval) -> int:
        """Window bitmask of labels in iv admissible against parent label a
        (bit k = label iv.lo + k)."""
        lo = iv.lo
        w = iv.hi - lo + 1
        avail = self.labels.window(lo, w)
        above = self.diffs.window(lo - a, w)
        below = self.diffs_rev.window(lo + self.sys.n_tilde - a, w)
        return avail & (above | below)

    def first_mask(self, iv: Interval) -> int:
        return self.labels.window(iv.lo, iv.hi - iv.lo + 1)


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


def _pick(mask_bits: int, rng: Rng) -> int | None:
    cnt = mask_bits.bit_count()
    if cnt == 0:
        return None
    return select(mask_bits, rng.randbelow(cnt))


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
    labels: list[int] = []
    trace: list[TraceRow] | None = [] if collect_trace else None
    for pos, vertex in enumerate(plan.order):
        t = pos + 1
        iv = plan.interval_of[pos]
        if pos == 0:
            mask_bits = state.first_mask(iv)
        else:
            a = labels[plan.parent_pos[pos]]
            mask_bits = state.admissible_mask(a, iv)
        k = _pick(mask_bits, rng)
        if k is None:
            return None, AttemptFailure(FAIL_CHOOSE, t), trace, state
        b = iv.lo + k
        state.remove_label(b)
        labels.append(b)
        edge_label = -1
        if pos:
            edge_label = abs(b - a)
            state.remove_diff(edge_label)

        corv_label = -1
        riv = corv.sample(rng)
        if riv is not None:
            k = _pick(state.labels.window(riv.lo, sys.m), rng)
            if k is None:
                return None, AttemptFailure(FAIL_CORV, t), trace, state
            corv_label = riv.lo + k
            state.remove_label(corv_label)
        core_diff = -1
        riv = core.sample(rng)
        if riv is not None:
            k = _pick(state.diffs.window(riv.lo, sys.m), rng)
            if k is None:
                return None, AttemptFailure(FAIL_CORE, t), trace, state
            core_diff = riv.lo + k
            state.remove_diff(core_diff)

        state.steps_done = t
        state.corv_hits += corv_label >= 0
        state.core_hits += core_diff >= 0
        if trace is not None:
            trace.append(
                TraceRow(
                    t=t,
                    vertex=vertex,
                    label=b,
                    edge_label=edge_label,
                    corv_label=corv_label,
                    core_diff=core_diff,
                    size_a=state.size_a,
                    size_c=state.size_c,
                )
            )
        if checkpoint_every and t % checkpoint_every == 0 and on_checkpoint:
            on_checkpoint(state, t)
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

    Attempt k draws from rng.child(k).child(1); when replan is given,
    attempts after the first rebuild the plan from rng.child(k).child(0),
    otherwise every attempt reuses the given plan.  Draw order within a
    step is fixed: label, vertex-removal target, vertex removal,
    edge-removal target, edge removal.  The result's step and removal
    counts are those of the last attempt, whether or not a trace is
    collected.
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
