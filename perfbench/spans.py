"""Spans recorded from outside the library, and the per-layer numbers
derived from them.

The traced run replaces module attributes of the library with timing
wrappers for the length of a ``with Tracer.installed():`` block.  Only
names the pipeline looks up at call time are wrapped, so the patch sees
exactly the calls the pipeline makes: harness's own bindings of the
stage functions, prepare's bindings of its three steps, the labeller's
bindings of the two correction laws, and quasirandom's binding of
``bitset.select``.  The labeller's own ``window``/``select`` bindings
are left alone: wrapping them would add about half to label time.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field

# (module, attribute) -> layer name.  Order does not matter.
WRAPPED = {
    ("gracetree.harness", "parse_tree"): "trees.parse",
    ("gracetree.harness", "prepare_plan"): "prepare.plan",
    ("gracetree.harness", "run_labelling"): "labeller",
    ("gracetree.harness", "check_quasi"): "quasirandom.audit",
    ("gracetree.harness", "verify_graceful"): "verify.verify",
    ("gracetree.prepare", "cut_tree_by_size"): "prepare.cut",
    ("gracetree.prepare", "order_vertices"): "prepare.order",
    ("gracetree.prepare", "assign_intervals"): "prepare.assign",
    ("gracetree.labeller", "corv_distribution"): "intervals.corv_law",
    ("gracetree.labeller", "core_distribution"): "intervals.core_law",
    ("gracetree.quasirandom", "select"): "bitset.audit_select",
}
ROOT = "harness"  # the operation itself: one run_experiment call
LAYERS = (ROOT, *sorted(set(WRAPPED.values())))


@dataclass
class Span:
    trial: int
    name: str
    parent: int  # index among its trial's spans, -1 for the root
    start: float
    end: float = 0.0
    args: tuple = ()
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans kept in memory; spans of one operation share ``trial``."""

    spans: list = field(default_factory=list)
    trial: int = -1
    _base: int = 0  # index of the current trial's first span
    _stack: list = field(default_factory=list)

    def begin(self, trial: int) -> None:
        self.trial = trial
        self._base = len(self.spans)

    def trial_spans(self) -> list:
        """The current trial's spans, in opening order."""
        return self.spans[self._base:]

    def open(self, name: str, args: tuple = ()) -> int:
        parent = self._stack[-1] - self._base if self._stack else -1
        self.spans.append(Span(self.trial, name, parent,
                               time.perf_counter(), args=args))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, result=None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.result = result
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name, args)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            self.close(idx, result)

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        import importlib

        saved = []
        try:
            for (mod_name, attr), name in WRAPPED.items():
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrapper(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.
    Spans nest strictly (one thread), so children never overlap."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def label_steps(result, n: int) -> int:
    """Label steps a LabelResult spent: each failed attempt stopped at its
    failure step, and a successful attempt placed all n vertices."""
    return sum(f.step for f in result.failures) + (n if result.success else 0)


def trial_layers(spans, n: int) -> dict:
    """Per-layer numbers of one traced operation on an n-vertex tree.
    ``spans`` are that operation's spans in opening order; spans[0] is
    the root."""
    selfs = self_times(spans)
    self_by = {}
    total_by = {}
    count_by = {}
    for s, st in zip(spans, selfs):
        self_by[s.name] = self_by.get(s.name, 0.0) + st
        total_by[s.name] = total_by.get(s.name, 0.0) + s.duration
        count_by[s.name] = count_by.get(s.name, 0) + 1
    trial_s = spans[0].duration

    def results(name):
        return [s.result for s in spans if s.name == name]

    label = results("labeller")
    steps = sum(label_steps(r, n) for r in label)
    useful = sum(n for r in label if r.success)
    fails = {}
    for r in label:
        for f in r.failures:
            fails[f.site] = fails.get(f.site, 0) + 1
    law_pairs = 0
    for s in spans:
        if s.name.startswith("intervals."):
            sys = s.args[0]
            fam = (sys.iv_intervals if s.name == "intervals.corv_law"
                   else sys.ie_intervals)
            law_pairs += len(fam) * len(sys.j_intervals)
    checkpoints = count_by.get("quasirandom.audit", 0)
    audit_total = total_by.get("quasirandom.audit", 0.0)

    out = {
        "trees.parse_s": self_by.get("trees.parse", 0.0),
        # the two stage totals include their wrapped children
        "prepare.plan_s": total_by.get("prepare.plan", 0.0),
        "prepare.cut_s": self_by.get("prepare.cut", 0.0),
        "prepare.order_s": self_by.get("prepare.order", 0.0),
        "prepare.assign_s": self_by.get("prepare.assign", 0.0),
        "prepare.calls": count_by.get("prepare.plan", 0),
        "prepare.removed_edges": sum(
            len(p.removed_edges) for p in results("prepare.plan")),
        "intervals.corv_law_s": self_by.get("intervals.corv_law", 0.0),
        "intervals.core_law_s": self_by.get("intervals.core_law", 0.0),
        "intervals.law_pairs": law_pairs,
        "labeller.self_s": self_by.get("labeller", 0.0),
        "labeller.us_per_step": (1e6 * self_by.get("labeller", 0.0) / steps
                                 if steps else 0.0),
        "labeller.steps": steps,
        "labeller.attempts": sum(r.attempts for r in label),
        "labeller.trace_rows": sum(len(r.trace or ()) for r in label),
        "labeller.useful_step_ratio": useful / steps if steps else 0.0,
        "labeller.fail.choose-label": fails.get("choose-label", 0),
        "labeller.fail.corv-removal": fails.get("corv-removal", 0),
        "labeller.fail.core-removal": fails.get("core-removal", 0),
        "quasirandom.audit_s": audit_total,
        "quasirandom.ms_per_checkpoint": (1e3 * audit_total / checkpoints
                                          if checkpoints else 0.0),
        "quasirandom.checkpoints": checkpoints,
        "quasirandom.samples": sum(
            len(r.quasi2_devs) for r in results("quasirandom.audit")),
        "bitset.audit_select_s": self_by.get("bitset.audit_select", 0.0),
        "bitset.audit_select_calls": count_by.get("bitset.audit_select", 0),
        "verify.verify_s": self_by.get("verify.verify", 0.0),
        "verify.edges": sum(s.args[0].tree.n - 1 for s in spans
                            if s.name == "verify.verify"),
        "harness.self_s": self_by.get(ROOT, 0.0),
    }
    shares = {f"share.{name}": self_by.get(name, 0.0) / trial_s
              for name in LAYERS}
    return {"trial_s": trial_s, "self_sum_s": sum(selfs),
            "min_self_s": min(selfs), "layers": out, "shares": shares}


def median_by_key(rows) -> dict:
    """Median of each key over a list of dicts with the same keys."""
    keys = rows[0].keys()
    return {k: statistics.median(r[k] for r in rows) for k in keys}
