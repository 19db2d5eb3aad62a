"""Seeded labelling campaigns: per-trial records, summaries, artifacts.

One experiment sweeps a list of tree orders.  Trial (i, k) draws every
random input from the spawn key (i, k) under the root seed, so records
are reproducible individually and independent of execution order.
Wall-clock time appears only in the records CSV; summaries and
labelling files are pure functions of (seed, config).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import prepare
from .intervals import IntervalSystem
from .labeller import LabelResult, run_labelling
from .params import ParamError, Params, derive_practical_params, read_gamma
from .prepare import prepare_plan
from .quasirandom import QuasiReport, check_quasi
from .rng import Rng, chunks
from .trees import Tree, parse_tree, random_tree
from .verify import Labelling, label_array, verify_graceful


@dataclass(frozen=True)
class ExperimentConfig:
    """All inputs of a campaign.  tree_source is "random" or a path to
    a tree file (then every n entry must equal that tree's order)."""

    n: Tuple[int, ...]
    gamma: Fraction
    m: int
    ell: int
    trials: int
    seed: int
    retries: int = 3
    checkpoint_every: int = 500
    quasi_per_kind: int = 32
    max_component: Optional[int] = None
    tree_source: str = "random"

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(x) for x in self.n))
        object.__setattr__(self, "gamma", read_gamma(self.gamma))
        if not self.n:
            raise ParamError("n list must not be empty")
        if len(set(self.n)) < len(self.n):
            raise ParamError(f"n repeats an order: {list(self.n)}")
        if self.trials < 0:
            raise ParamError("trials must be >= 0")
        if self.retries < 0:
            raise ParamError("retries must be >= 0")
        if self.checkpoint_every < 0:
            raise ParamError("checkpoint_every must be >= 0")
        if self.quasi_per_kind < 0:
            raise ParamError("quasi_per_kind must be >= 0")
        if self.max_component is not None and self.max_component < 2:
            raise ParamError("max_component must be >= 2")
        for n in self.n:
            derive_practical_params(n, self.gamma, self.m, self.ell)

    def params_for(self, n: int) -> Params:
        return derive_practical_params(n, self.gamma, self.m, self.ell)


def config_to_json(cfg: ExperimentConfig) -> str:
    d = dataclasses.asdict(cfg)
    d["n"] = list(cfg.n)
    d["gamma"] = str(cfg.gamma)
    return json.dumps(d, indent=2, sort_keys=True)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def config_from_json(text: str) -> ExperimentConfig:
    """Parse a campaign config; any malformed field raises ParamError."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ParamError("config must be a JSON object")
    fields = dataclasses.fields(ExperimentConfig)
    extra = set(d) - {f.name for f in fields}
    if extra:
        raise ParamError(f"unknown config keys: {sorted(extra)}")
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in d]
    if missing:
        raise ParamError(f"missing config keys: {missing}")
    if not (isinstance(d["n"], list) and all(_is_int(x) for x in d["n"])):
        raise ParamError("n must be a list of integers")
    gamma = d["gamma"]
    if not isinstance(gamma, (str, int, float)) or isinstance(gamma, bool):
        raise ParamError("gamma must be a fraction string or a number")
    for name, x in d.items():
        if name == "tree_source":
            ok = isinstance(x, str)
        else:
            ok = (name in ("n", "gamma") or _is_int(x)
                  or (name == "max_component" and x is None))
        if not ok:
            raise ParamError(f"bad {name}: {x!r}")
    return ExperimentConfig(**d)


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial: int
    seed_key: str
    attempts: int
    outcome: str  # "success" | "fail"
    failure_site: str  # site of the last failed attempt, "" if none
    failure_step: int  # -1 if none
    quasi1_max_dev: float  # -1.0 when no checkpoint fired
    quasi2_max_dev: float  # -1.0 when no checkpoint sampled a pattern
    quasi_ok: bool  # both deviations within alpha(t) at every checkpoint
    corv_hits: int
    core_hits: int
    steps: int
    wall_time: float


@dataclass(frozen=True)
class TrialResult:
    record: TrialRecord
    result: LabelResult
    reports: Tuple[QuasiReport, ...]  # checkpoints of the last attempt
    labelling: Optional[Labelling]
    tree: Tree
    params: Params


def _load_tree(cfg: ExperimentConfig, n: int, rng: Rng,
               tree: Optional[Tree]) -> Tree:
    """tree, else a random tree or the config's tree file; of order n."""
    if tree is None:
        if cfg.tree_source == "random":
            return random_tree(n, rng)
        with open(cfg.tree_source, "r", encoding="utf-8") as fh:
            tree = parse_tree(fh.read())
    if tree.n != n:
        raise ParamError(
            f"tree file has order {tree.n}, config lists n = {n}")
    return tree


def run_trial(cfg: ExperimentConfig, n_index: int, trial: int, *,
              collect_trace: bool = False,
              tree: Optional[Tree] = None) -> TrialResult:
    """One seeded trial.  Spawn keys under the root seed: (n_index,
    trial) -> 0 tree, 1 labelling (attempt k draws its intervals from
    child(k, 0) over the first plan's cut and ordering, and its labels
    from child(k, 1)), 2 quasi sampling.  A caller that has already
    read the config's tree file passes the tree, which is then not read
    again; like the file, it must have order cfg.n[n_index].  The
    checkpoint callback returns its check_quasi report, so the trial's
    reports are the labelling result's: the last attempt's, in step
    order."""
    t0 = time.perf_counter()
    n = cfg.n[n_index]
    params = cfg.params_for(n)
    sys = IntervalSystem(params.n_tilde, params.m, params.ell)
    root = Rng(cfg.seed).child(n_index, trial)
    tree = _load_tree(cfg, n, root.child(0), tree)
    label_rng = root.child(1)
    quasi_rng = root.child(2)

    def on_checkpoint(state, t):
        return check_quasi(state, sys, float(params.alpha(t)),
                           cfg.quasi_per_kind, quasi_rng, t=t)

    plan = prepare_plan(tree, sys, label_rng.child(0).child(0),
                        max_component=cfg.max_component)
    # the cut and the ordering draw nothing from the rng: a retry redraws
    # only the intervals, with the same draw law, over the plan's own
    # components (read through the module, so a wrapper installed on
    # prepare.assign_intervals sees retries too)
    res = run_labelling(plan, sys, label_rng, max_retries=cfg.retries,
                        checkpoint_every=cfg.checkpoint_every,
                        on_checkpoint=on_checkpoint,
                        collect_trace=collect_trace,
                        replan=lambda r: prepare.assign_intervals(
                            plan, sys, r))
    reports = res.reports

    labelling = None
    if res.success:
        labelling = Labelling(tree, res.psi, params.n_tilde)
        rep = verify_graceful(labelling)
        if not rep.ok:
            raise RuntimeError(
                f"completed labelling failed verification: {rep.reason}")

    last_fail = res.failures[-1] if res.failures else None
    q1 = max((r.quasi1_max_dev for r in reports), default=-1.0)
    q2 = max((r.quasi2_max_dev for r in reports), default=-1.0)
    record = TrialRecord(
        n=n,
        trial=trial,
        seed_key=f"{cfg.seed}:{n_index},{trial}",
        attempts=res.attempts,
        outcome="success" if res.success else "fail",
        failure_site="" if last_fail is None else last_fail.site,
        failure_step=-1 if last_fail is None else last_fail.step,
        quasi1_max_dev=q1,
        quasi2_max_dev=q2,
        quasi_ok=all(r.ok for r in reports),
        corv_hits=res.corv_hits,
        core_hits=res.core_hits,
        steps=res.steps,
        wall_time=time.perf_counter() - t0,
    )
    return TrialResult(record=record, result=res, reports=reports,
                       labelling=labelling, tree=tree, params=params)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: Tuple[TrialRecord, ...]
    labellings: Dict[Tuple[int, int], Labelling]  # (n, trial) -> labelling
    summary: dict


def exact_binomial_ci(k: int, n: int, level: float = 0.95) -> Tuple[float, float]:
    """Equal-tailed exact (Clopper-Pearson) interval for k successes of n.

    With a = (1 - level)/2 and X ~ Binomial(n, p), the lower end is the
    p where P(X >= k) = a and the upper end the p where P(X <= k) = a
    (the beta quantiles B(a; k, n-k+1) and B(1-a; k+1, n-k)).  Each is
    found by bisection on that tail, summed in O(n) terms, to the float
    resolution.
    """
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    a = (1 - level) / 2
    ln = math.lgamma(n + 1)
    log_c = [ln - math.lgamma(j + 1) - math.lgamma(n - j + 1)
             for j in range(n + 1)]

    def tail(p: float, js: range) -> float:
        lp, lq = math.log(p), math.log1p(-p)
        return math.fsum(math.exp(log_c[j] + j * lp + (n - j) * lq)
                         for j in js)

    lo = 0.0 if k == 0 else _bisect(lambda p: tail(p, range(k, n + 1)) < a)
    hi = 1.0 if k == n else _bisect(lambda p: tail(p, range(k + 1)) > a)
    return lo, hi


def _bisect(below) -> float:
    """The point of (0, 1) where below(p) turns from true to false."""
    lo, hi = 0.0, 1.0
    while True:
        mid = (lo + hi) / 2
        if mid <= lo or mid >= hi:
            return mid
        if below(mid):
            lo = mid
        else:
            hi = mid


def _summarize(cfg: ExperimentConfig,
               records: Tuple[TrialRecord, ...]) -> dict:
    per_n = []
    for n in cfg.n:
        rows = [r for r in records if r.n == n]
        trials = len(rows)
        succ = sum(r.outcome == "success" for r in rows)
        first = sum(r.outcome == "success" and r.attempts == 1 for r in rows)
        hist: Dict[str, int] = {}
        for r in rows:
            if r.failure_site:
                hist[r.failure_site] = hist.get(r.failure_site, 0) + 1
        entry = {
            "n": n,
            "trials": trials,
            "successes": succ,
            "first_attempt_successes": first,
            "rate_defined": trials > 0,
            "rate": None,
            "ci95": None,
            "mean_attempts": None,
            "last_failure_sites": hist,
            "quasi_ok_trials": sum(r.quasi_ok for r in rows),
            "corv_hits": sum(r.corv_hits for r in rows),
            "core_hits": sum(r.core_hits for r in rows),
            "steps": sum(r.steps for r in rows),
        }
        if trials:
            lo, hi = exact_binomial_ci(succ, trials)
            entry["rate"] = succ / trials
            entry["ci95"] = [lo, hi]
            entry["mean_attempts"] = sum(r.attempts for r in rows) / trials
        per_n.append(entry)
    return {"config": json.loads(config_to_json(cfg)), "per_n": per_n}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """All trials in index order.  A tree file is read at the first
    trial and passed to the later ones.  Records never keep traces; use
    run_trial directly for step-level audits."""
    records: List[TrialRecord] = []
    labellings: Dict[Tuple[int, int], Labelling] = {}
    tree = None
    for i in range(len(cfg.n)):
        for k in range(cfg.trials):
            tr = run_trial(cfg, i, k, tree=tree)
            if cfg.tree_source != "random":
                tree = tr.tree
            records.append(tr.record)
            if tr.labelling is not None:
                labellings[(cfg.n[i], k)] = tr.labelling
    rec = tuple(records)
    return ExperimentResult(config=cfg, records=rec, labellings=labellings,
                            summary=_summarize(cfg, rec))


RECORD_COLUMNS = ("n", "trial", "seed_key", "attempts", "outcome",
                  "failure_site", "failure_step", "quasi1_max_dev",
                  "quasi2_max_dev", "quasi_ok", "corv_hits", "core_hits",
                  "steps", "wall_time")


def records_csv(records) -> str:
    """One CSV row per record under RECORD_COLUMNS; seed_key holds a
    comma, so it is quoted."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(RECORD_COLUMNS)
    w.writerows((r.n, r.trial, r.seed_key, r.attempts, r.outcome,
                 r.failure_site, r.failure_step, f"{r.quasi1_max_dev:.10g}",
                 f"{r.quasi2_max_dev:.10g}", int(r.quasi_ok), r.corv_hits,
                 r.core_hits, r.steps, f"{r.wall_time:.6f}")
                for r in records)
    return out.getvalue()


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)


def labelling_to_json(lab: Labelling) -> str:
    """{"n", "m", "labels"} as json.dumps(..., indent=2) writes it, one
    label a line.  The labels are formatted chunk by chunk (rng.chunks),
    so Python ints are held for one chunk of labels at a time."""
    out = [(",\n    %d" * len(c)) % tuple(c)
           for c in chunks(lab.psi.array, 1)]
    # no comma before the first label
    out[0] = (f'{{\n  "n": {lab.tree.n},\n  "m": {lab.m},\n  "labels": ['
              + out[0][1:])
    out.append("\n  ]\n}")
    return "".join(out)


def labelling_from_json(text: str, tree: Tree) -> Labelling:
    """Parse {"n", "m", "labels"}; any malformed field raises ValueError."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError("labelling must be a JSON object")
    missing = [k for k in ("n", "m", "labels") if k not in d]
    if missing:
        raise ValueError(f"labelling is missing keys: {missing}")
    if not (_is_int(d["n"]) and _is_int(d["m"])):
        raise ValueError("labelling n and m must be integers")
    if d["n"] != tree.n:
        raise ValueError(f"labelling is for n = {d['n']}, tree has {tree.n}")
    labels = d["labels"]
    if not (isinstance(labels, list) and all(_is_int(b) for b in labels)):
        raise ValueError("labels must be a list of integers")
    if len(labels) != tree.n:
        raise ValueError(f"expected {tree.n} labels, got {len(labels)}")
    return Labelling(tree, label_array(labels, d["m"]), d["m"])


TRACE_COLUMNS = ("t", "chosen_label", "edge_label_removed", "rv", "re",
                 "size_A", "size_C", "quasi1_max_dev",
                 "quasi2_max_sampled_dev")


def trace_csv(result: LabelResult, reports=()) -> str:
    """Step rows in t order; each checkpoint adds one row carrying the
    two sampled deviations, the other columns blank."""
    if result.trace is None:
        raise ValueError("labelling was run without trace collection")
    by_t = {r.checkpoint: r for r in reports}
    out = io.StringIO()
    out.write(",".join(TRACE_COLUMNS) + "\n")
    for row in result.trace:
        out.write(f"{row.t},{row.label},{row.edge_label},{row.corv_label},"
                  f"{row.core_diff},{row.size_a},{row.size_c},,\n")
        rep = by_t.get(row.t)
        if rep is not None:
            out.write(f"{row.t},,,,,{row.size_a},{row.size_c},"
                      f"{rep.quasi1_max_dev:.10g},"
                      f"{rep.quasi2_max_dev:.10g}\n")
    return out.getvalue()


def write_experiment(result: ExperimentResult, out_dir: str) -> List[str]:
    """records.csv, summary.json, labellings/n{n}-t{k}.json; returns the
    paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def put(rel: str, text: str) -> None:
        path = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)

    put("records.csv", records_csv(result.records))
    put("summary.json", summary_json(result.summary) + "\n")
    for (n, k), lab in sorted(result.labellings.items()):
        put(os.path.join("labellings", f"n{n}-t{k}.json"),
            labelling_to_json(lab) + "\n")
    return paths
