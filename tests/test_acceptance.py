"""End-to-end acceptance suite: one test and one verdict line per item.

The two large labelling campaigns are module-scoped fixtures shared by
the items that audit them.  Items 3 and 5 state desk-scale targets that
the pipeline currently misses; they are asserted at face value and fail
with the measured numbers rather than being loosened.
"""

import math
import time
from fractions import Fraction

import networkx as nx
import pytest

from gracetree.concentration import independent_coins, reinforcing_urn, tail_grid
from gracetree.exact import (canonical_path_labelling,
                             canonical_star_labelling, exact_graceful)
from gracetree.harness import (ExperimentConfig, labelling_to_json,
                               run_experiment, run_trial, summary_json,
                               trace_csv)
from gracetree.intervals import (IntervalSystem, core_distribution,
                                 corv_distribution)
from gracetree.prepare import cut_tree
from gracetree.rng import Rng
from gracetree.trees import Tree, degree_stats, random_tree
from gracetree.verify import (build_cyclic_packing, verify_graceful,
                              verify_packing)
from oracles import OldRng


def verdict(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{num:2d}] {desc}: {tag}{extra}", flush=True)
    assert ok, f"[{num}] {desc}: {tag}{extra}"


def from_networkx(g):
    relabeled = nx.relabel_nodes(g, {u: u + 1 for u in g.nodes})
    return Tree(g.number_of_nodes(), list(relabeled.edges))


@pytest.fixture(scope="module")
def ten_vertex_trees():
    return [from_networkx(g) for g in nx.nonisomorphic_trees(10)]


@pytest.fixture(scope="module")
def tight_campaign():
    """100 trials at n=10^4 with slack 0.2 and 32-wide windows."""
    cfg = ExperimentConfig(n=(10_000,), gamma=Fraction(1, 5), m=32, ell=512,
                           trials=100, seed=20260816, retries=3,
                           checkpoint_every=500, quasi_per_kind=0)
    return cfg, [run_trial(cfg, 0, k) for k in range(cfg.trials)]


@pytest.fixture(scope="module")
def steady_campaign():
    """Campaign sized so trials reliably finish: slack 0.5, 128-wide
    windows, components capped at 32.  Traces are scanned on the fly and
    dropped; only records, checkpoint reports, and aggregates are kept.
    """
    cfg = ExperimentConfig(n=(10_000,), gamma=Fraction(1, 2), m=128, ell=512,
                           trials=104, seed=424242, retries=3,
                           checkpoint_every=500, quasi_per_kind=32,
                           max_component=32)
    records, success_reports = [], []
    agg = {"steps": 0, "corv": 0, "core": 0, "bad_identity": None,
           "params": cfg.params_for(cfg.n[0])}
    for k in range(cfg.trials):
        tr = run_trial(cfg, 0, k)
        records.append(tr.record)
        if tr.record.outcome != "success":
            continue
        success_reports.append(tr.reports)
        nt = tr.params.n_tilde
        corv_so_far = 0
        for row in tr.result.trace:
            if row.corv_label >= 0:
                corv_so_far += 1
            if row.size_a != nt - row.t - corv_so_far:
                if agg["bad_identity"] is None:
                    agg["bad_identity"] = (k, row.t)
        agg["steps"] += len(tr.result.trace)
        agg["corv"] += tr.record.corv_hits
        agg["core"] += tr.record.core_hits
    return cfg, records, success_reports, agg


def test_01_exact_search_ten_vertex_trees(ten_vertex_trees):
    t0 = time.monotonic()
    labelled = 0
    for t in ten_vertex_trees:
        lab = exact_graceful(t, t.n)
        assert lab is not None and verify_graceful(lab).ok
        labelled += 1
    wall = time.monotonic() - t0
    verdict(1, "exact search gracefully labels all 106 ten-vertex trees "
               "in under 5 minutes",
            labelled == 106 and wall < 300.0,
            f"{labelled} trees in {wall:.1f} s")


def test_02_canonical_classes():
    bad = []
    for n in range(2, 51):
        for lab in (canonical_path_labelling(n), canonical_star_labelling(n)):
            if not verify_graceful(lab).ok:
                bad.append((lab.tree.n, len(lab.tree.edges)))
    verdict(2, "canonical path and star labellings verify for orders 2..50",
            not bad, f"{len(bad)} failures")


def test_03_randomized_success_tight_slack(tight_campaign):
    cfg, trials = tight_campaign
    records = [t.record for t in trials]
    successes = sum(r.outcome == "success" for r in records)
    first = sum(r.outcome == "success" and r.attempts == 1 for r in records)
    for t in trials:
        if t.labelling is not None:
            assert verify_graceful(t.labelling).ok
            assert t.labelling.m == t.params.n_tilde
    verdict(3, "n=10^4 campaign at slack 0.2 with 32-wide windows: "
               ">=95/100 first-attempt and 100/100 within 3 retries",
            first >= 95 and successes == 100,
            f"first-attempt {first}/100, with retries {successes}/100")


def test_04_label_accounting(steady_campaign):
    cfg, records, _, agg = steady_campaign
    successes = sum(r.outcome == "success" for r in records)
    assert successes > 0, "no successful runs to audit"
    p = agg["params"]
    sys = IntervalSystem(p.n_tilde, p.m, p.ell)
    checks = []
    for label, dist, hits in (("vertex", corv_distribution(sys), agg["corv"]),
                              ("edge", core_distribution(sys), agg["core"])):
        prob = float(1 - dist.star_probability)
        se = math.sqrt(prob * (1 - prob) / agg["steps"])
        dev = abs(hits / agg["steps"] - prob)
        checks.append((label, dev, 3 * se, dev <= 3 * se))
    freq_ok = all(c[3] for c in checks)
    detail = (f"identity witness {agg['bad_identity']}, "
              + ", ".join(f"{c[0]} dev {c[1]:.2e} vs 3SE {c[2]:.2e}"
                          for c in checks)
              + f", {agg['steps']} steps")
    verdict(4, "available-label count identity exact at every step; "
               "correction frequencies within 3 SE over a >=10^6-step "
               "aggregate",
            agg["bad_identity"] is None and freq_ok
            and agg["steps"] >= 1_000_000,
            detail)


def test_05_deviation_schedule(tight_campaign, steady_campaign):
    _, tight = tight_campaign
    _, _, success_reports, _ = steady_campaign
    pools = [t.reports for t in tight if t.record.outcome == "success"]
    pools += success_reports
    assert pools, "no successful n=10^4 runs to audit"
    ok1 = sum(all(r.quasi1_max_dev <= r.alpha for r in reps)
              for reps in pools)
    ok2 = sum(all(r.quasi2_max_dev <= r.alpha for r in reps)
              for reps in pools)
    total = len(pools)
    verdict(5, "window-uniformity deviations within 0.05 + 0.15*t/n at "
               "every checkpoint in >=90% of successful n=10^4 runs",
            ok1 >= 0.9 * total and ok2 >= 0.9 * total,
            f"label spread {ok1}/{total} runs, "
            f"pattern counts {ok2}/{total} runs")


def test_06_interval_identities():
    triples = []
    for m in (1, 2, 3, 4, 8):
        for width_ratio in (2, 4, 6):
            for slack in (1, 2):
                triples.append((2 * m * (width_ratio + slack), m,
                                width_ratio * m))
    triples = triples[:20]
    assert len(triples) == 20
    for nt, m, ell in triples:
        s = IntervalSystem(nt, m, ell)
        assert len(s.iv_intervals) == nt // m
        assert len(s.ie_intervals) == nt // m
        assert len(s.j_intervals) == nt // m - 2 * (ell // m - 1)
        for dist in (corv_distribution(s), core_distribution(s)):
            masses = [mass for _, mass in dist.support]
            assert all(mass >= 0 for mass in masses)
            assert dist.star_probability + sum(masses) == 1
        for J in s.j_intervals:
            Jb = s.complement(J)
            assert (sum(range(J.lo, J.hi + 1))
                    + sum(range(Jb.lo, Jb.hi + 1))) == ell * (nt + 1)
            counts = [0] * nt
            for a in range(J.lo, J.hi + 1):
                for b in range(Jb.lo, Jb.hi + 1):
                    counts[abs(a - b)] += 1
            for c in range(nt):
                assert s.el(J, c) == Fraction(counts[c], ell * ell), \
                    (nt, m, ell, J, c)
    verdict(6, "family sizes, correction masses, complement sums, and the "
               "pair-count closed form are bit-exact on 20 systems",
            True, "20 systems checked in rational arithmetic")


def test_07_component_cutting():
    rng = Rng(777).child(7)
    worst_ratio = 0.0
    for i in range(1000):
        r = rng.child(i)
        n = 1000 + OldRng(777, key=(7, i, 0)).randbelow(9001)
        t = random_tree(n, r.child(1))
        ln = math.log(n)
        eps = max(2.02 * ln / n,
                  1.02 * math.sqrt(4.0 * degree_stats(t).max_degree * ln / n))
        removed = cut_tree(t, eps, n)
        assert len(removed) <= eps * n
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in t.edges:
            if (u, v) not in removed and (v, u) not in removed:
                parent[find(u)] = find(v)
        sizes = {}
        for v in range(1, n + 1):
            root = find(v)
            sizes[root] = sizes.get(root, 0) + 1
        cap = math.floor(eps * n / ln)
        assert max(sizes.values()) <= cap
        worst_ratio = max(worst_ratio, max(sizes.values()) / cap)
    verdict(7, "1000 random trees cut into components under the size "
               "threshold with few removed edges, 0 failures",
            True, f"worst component at {worst_ratio:.0%} of threshold")


def test_08_cyclic_packings():
    packed = 0
    for order in range(2, 11):
        for g in nx.nonisomorphic_trees(order):
            t = from_networkx(g)
            lab = exact_graceful(t, t.n)
            p = build_cyclic_packing(lab)
            rep = verify_packing(p)
            assert rep.ok and rep.decomposition, (order, rep.reason)
            assert rep.total_edges == (2 * t.n - 1) * (t.n - 1)
            packed += 1
    cfg = ExperimentConfig(n=(48,), gamma=Fraction(1, 4), m=14, ell=28,
                           trials=1, seed=11, retries=4000,
                           checkpoint_every=0, quasi_per_kind=0)
    tr = run_trial(cfg, 0, 0)
    assert tr.record.outcome == "success"
    rep48 = verify_packing(build_cyclic_packing(tr.labelling))
    verdict(8, "cyclic shifts decompose the complete host for all 200 "
               "trees with 1..9 edges and pack edge-disjointly for a "
               "randomized 48-vertex labelling",
            packed == 200 and rep48.ok,
            f"{packed} decompositions; 48-vertex shifts cover "
            f"{rep48.total_edges} edges, disjoint={rep48.ok}")


def test_09_tail_bounds():
    t0 = time.monotonic()
    batches = (
        ("coin flips, upper tail",
         tail_grid(independent_coins(100), 100_000, Rng(901),
                   two_sided=False)),
        ("coin flips, two-sided",
         tail_grid(independent_coins(100), 100_000, Rng(902),
                   two_sided=True)),
        ("reinforcing urn, two-sided",
         tail_grid(reinforcing_urn(100, pull=0.3), 100_000, Rng(903),
                   two_sided=True)),
    )
    wall = time.monotonic() - t0
    failed = [(name, row.t) for name, rows in batches
              for row in rows if not row.passed]
    verdict(9, "empirical tails stay under the analytic bounds (+3 SE) on "
               "all bundled scenarios at 10^5 trials in under 1 minute",
            not failed and wall < 60.0,
            f"{sum(len(r) for _, r in batches)} grid points, "
            f"{len(failed)} over bound, {wall:.1f} s")


def test_10_determinism():
    cfg = ExperimentConfig(n=(400,), gamma=Fraction(1), m=16, ell=32,
                           trials=3, seed=1234, retries=6,
                           checkpoint_every=100, quasi_per_kind=8,
                           max_component=8)
    runs = [run_experiment(cfg) for _ in range(2)]
    summaries = [summary_json(r.summary) for r in runs]
    labellings = [{k: labelling_to_json(v) for k, v in r.labellings.items()}
                  for r in runs]
    trials = [run_trial(cfg, 0, 0) for _ in range(2)]
    traces = [trace_csv(t.result, t.reports) for t in trials]
    verdict(10, "identical seed and config reproduce byte-identical "
                "traces, labellings, and summaries",
            summaries[0] == summaries[1] and labellings[0] == labellings[1]
            and traces[0] == traces[1],
            f"{len(labellings[0])} labellings, "
            f"{len(traces[0].splitlines())} trace lines compared")
