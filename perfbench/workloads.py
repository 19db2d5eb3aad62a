"""The benchmark's workloads: one labelling config each, plus the tree it runs on.

Every workload's tree is drawn from the workload seed alone (the path
ignores it), written to a file once during set-up, and handed to the
library only as that file.  Operation k of a run uses the experiment
seed ``op_seed(seed, k)``, so a seed fixes every input of a run.

Import cost matters here: the set-up probe imports this module next to
``gracetree.harness``, so it imports nothing from the library at
module level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # "random" (uniform labelled tree) or "path"
    n: int
    gamma: Fraction
    m: int
    ell: int
    checkpoint_every: int  # 0 turns the audit off
    max_component: Optional[int]  # None: prepare_plan's default cap
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "label-random", "random", 100_000, Fraction(1, 2), 128, 512, 0, 32,
        "n=10^5 random tree, audit off: the label loop (per-step cost grows "
        "with the label range), the correction laws and the forced trace "
        "dominate; the audit is bypassed"),
    Workload(
        "audit-scaled", "random", 20_000, Fraction(1, 2), 256, 1024, 500, 32,
        "scaled point m~n/78, audit every 500 steps with 32 samples per "
        "kind: the audit's full-width select dominates; windows twice as "
        "wide as label-random"),
    Workload(
        "prepare-path", "path", 30_000, Fraction(1, 2), 128, 512, 0, 32,
        "path on n=3*10^4: the O(n*depth) cut dominates while the labeller "
        "and the audit are mostly bypassed"),
    Workload(
        "retry-tight", "random", 10_000, Fraction(1, 5), 32, 512, 0, None,
        "acceptance item 3's point (gamma=1/5, m=32): every attempt fails, "
        "so it alone measures wasted label work, replanning and retries"),
)}


def op_seed(seed: int, op: int) -> int:
    """Experiment seed of operation op in a run with workload seed seed."""
    return seed * 1_000_000 + op


def make_tree(w: Workload, seed: int):
    from gracetree.rng import Rng
    from gracetree.trees import path_tree, random_tree

    if w.shape == "path":
        return path_tree(w.n)
    return random_tree(w.n, Rng(seed))


def make_config(w: Workload, tree_path: str, seed: int):
    """One-trial config on the written tree, as `gracetree experiment`
    would load it; retries and audit sample sizes keep their defaults
    (3 retries, 32 samples per kind)."""
    from gracetree.harness import ExperimentConfig

    return ExperimentConfig(
        n=(w.n,), gamma=w.gamma, m=w.m, ell=w.ell, trials=1, seed=seed,
        checkpoint_every=w.checkpoint_every, max_component=w.max_component,
        tree_source=tree_path)
