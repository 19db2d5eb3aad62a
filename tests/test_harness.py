import dataclasses
import json
import math
import os
from fractions import Fraction

import pytest

from gracetree.harness import (ExperimentConfig, config_from_json,
                               config_to_json, exact_binomial_ci,
                               labelling_from_json, labelling_to_json,
                               records_csv, run_experiment, run_trial,
                               summary_json, trace_csv, write_experiment,
                               RECORD_COLUMNS, TRACE_COLUMNS)
from gracetree.params import ParamError
from gracetree.trees import format_tree, path_tree, random_tree
from gracetree.rng import Rng
from gracetree.verify import verify_graceful


def small_cfg(**over):
    base = dict(n=(400,), gamma=Fraction(1), m=16, ell=32, trials=3,
                seed=1234, retries=6, checkpoint_every=100,
                quasi_per_kind=8, max_component=8)
    base.update(over)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ParamError):
        small_cfg(n=())
    with pytest.raises(ParamError):
        small_cfg(trials=-1)
    with pytest.raises(ParamError):
        small_cfg(retries=-2)
    with pytest.raises(ParamError):
        small_cfg(m=16, ell=40)  # m must divide ell
    with pytest.raises(ParamError):
        small_cfg(gamma=Fraction(0))
    with pytest.raises(ParamError):
        small_cfg(max_component=1)


def test_config_json_round_trip():
    cfg = small_cfg(gamma=Fraction(1, 2), max_component=None)
    back = config_from_json(config_to_json(cfg))
    assert back == cfg
    assert isinstance(back.gamma, Fraction)
    with pytest.raises(ParamError):
        config_from_json('{"n": [10], "gamma": "1", "m": 2, "ell": 4, '
                         '"trials": 1, "seed": 0, "bogus": 3}')


def test_trial_success_record_and_labelling():
    cfg = small_cfg()
    tr = run_trial(cfg, 0, 0, collect_trace=True)
    rec = tr.record
    assert rec.outcome == "success"
    assert rec.seed_key == "1234:0,0"
    assert rec.steps == 400
    assert tr.labelling is not None
    assert verify_graceful(tr.labelling).ok
    assert tr.labelling.m == tr.params.n_tilde
    # checkpoints every 100 steps on the successful attempt
    assert [r.checkpoint for r in tr.reports] == [100, 200, 300, 400]
    assert rec.quasi1_max_dev == max(r.quasi1_max_dev for r in tr.reports)


def test_trial_deterministic():
    cfg = small_cfg()
    a = run_trial(cfg, 0, 1, collect_trace=True)
    b = run_trial(cfg, 0, 1, collect_trace=True)
    assert a.result.psi == b.result.psi
    assert a.reports == b.reports
    assert (dataclasses.replace(a.record, wall_time=0.0)
            == dataclasses.replace(b.record, wall_time=0.0))


def test_trial_failure_record():
    cfg = ExperimentConfig(n=(300,), gamma=Fraction(1, 10), m=4, ell=16,
                           trials=1, seed=0, retries=0, quasi_per_kind=0,
                           checkpoint_every=0)
    tr = run_trial(cfg, 0, 0, collect_trace=True)
    rec = tr.record
    assert rec.outcome == "fail" and tr.labelling is None
    assert rec.failure_site == "choose-label" and rec.failure_step == 151
    assert rec.attempts == 1
    assert rec.quasi1_max_dev == -1.0  # no checkpoints fired
    assert rec.steps == len(tr.result.trace) == rec.failure_step - 1


def test_accounting_identity_along_trace():
    # free labels after step t = n_tilde - t - removals so far; same for
    # differences with the edge-side removals
    cfg = small_cfg()
    for trial in range(3):
        tr = run_trial(cfg, 0, trial, collect_trace=True)
        assert tr.record.outcome == "success"
        nt = tr.params.n_tilde
        corv = core = 0
        for row in tr.result.trace:
            corv += row.corv_label >= 0
            core += row.core_diff >= 0
            assert row.size_a == nt - row.t - corv
            assert row.size_c == nt - 1 - (row.t - 1) - core
        assert tr.record.corv_hits == corv
        assert tr.record.core_hits == core


def test_corv_frequency_matches_star_mass():
    from gracetree.intervals import IntervalSystem, corv_distribution, \
        core_distribution
    cfg = small_cfg(trials=30)
    p = cfg.params_for(400)
    sys = IntervalSystem(p.n_tilde, p.m, p.ell)
    p_corv = 1 - corv_distribution(sys).star_probability
    p_core = 1 - core_distribution(sys).star_probability
    res = run_experiment(cfg)
    s = res.summary["per_n"][0]
    assert s["successes"] == 30
    steps = s["steps"]
    assert steps == 30 * 400
    for hits, prob in ((s["corv_hits"], p_corv), (s["core_hits"], p_core)):
        se = math.sqrt(float(prob) * (1 - float(prob)) / steps)
        assert abs(hits / steps - float(prob)) <= 4 * se


def test_zero_trials_flagged():
    cfg = small_cfg(trials=0)
    res = run_experiment(cfg)
    assert res.records == ()
    entry = res.summary["per_n"][0]
    assert entry["rate_defined"] is False
    assert entry["rate"] is None and entry["ci95"] is None
    assert records_csv(res.records) == ",".join(RECORD_COLUMNS) + "\n"


def test_experiment_accumulates_and_is_deterministic():
    cfg = small_cfg(trials=4)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert len(r1.records) == 4
    assert summary_json(r1.summary) == summary_json(r2.summary)
    strip = lambda recs: [dataclasses.replace(r, wall_time=0.0) for r in recs]
    assert strip(r1.records) == strip(r2.records)
    entry = r1.summary["per_n"][0]
    assert entry["successes"] == len(r1.labellings)
    assert set(r1.labellings) == {(400, k) for k in range(4)}
    lo, hi = entry["ci95"]
    assert lo <= entry["rate"] <= hi


def test_exact_binomial_ci_closed_forms():
    # k = n and k = 0 have closed forms (alpha/2)^(1/n)
    lo, hi = exact_binomial_ci(100, 100)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1 / 100))
    lo, hi = exact_binomial_ci(0, 50)
    assert lo == 0.0
    assert hi == pytest.approx(1 - 0.025 ** (1 / 50))
    lo, hi = exact_binomial_ci(30, 100)
    assert 0.0 < lo < 0.3 < hi < 1.0
    wider = exact_binomial_ci(30, 100, level=0.99)
    assert wider[0] < lo and hi < wider[1]
    with pytest.raises(ValueError):
        exact_binomial_ci(5, 4)


def test_trace_csv_shape():
    cfg = small_cfg()
    tr = run_trial(cfg, 0, 0, collect_trace=True)
    lines = trace_csv(tr.result, tr.reports).strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 400 + 4
    ts = [int(r[0]) for r in rows]
    assert ts == sorted(ts)
    check_rows = [r for r in rows if r[8] != ""]
    assert [int(r[0]) for r in check_rows] == [100, 200, 300, 400]
    for r in rows:
        assert (r[1] == "") == (r[7] != "")  # step rows vs checkpoint rows


def test_labelling_json_round_trip():
    cfg = small_cfg()
    tr = run_trial(cfg, 0, 2)
    text = labelling_to_json(tr.labelling)
    back = labelling_from_json(text, tr.tree)
    assert back.psi == tr.labelling.psi and back.m == tr.labelling.m
    with pytest.raises(ValueError):
        labelling_from_json(text, path_tree(7))


def test_tree_file_source(tmp_path):
    tree = random_tree(120, Rng(5))
    path = tmp_path / "t.txt"
    path.write_text(format_tree(tree))
    cfg = ExperimentConfig(n=(120,), gamma=Fraction(1), m=8, ell=16,
                           trials=2, seed=7, retries=8, quasi_per_kind=0,
                           checkpoint_every=0, max_component=6,
                           tree_source=str(path))
    res = run_experiment(cfg)
    assert all(r.outcome == "success" for r in res.records)
    for lab in res.labellings.values():
        assert lab.tree == tree
    bad = dataclasses.replace(cfg, n=(121,))
    with pytest.raises(ParamError):
        run_trial(bad, 0, 0)


def test_write_experiment_files(tmp_path):
    cfg = small_cfg(trials=2)
    res = run_experiment(cfg)
    paths = write_experiment(res, str(tmp_path / "out"))
    names = {os.path.relpath(p, str(tmp_path / "out")) for p in paths}
    assert "records.csv" in names and "summary.json" in names
    labs = {n for n in names if n.startswith("labellings/")}
    assert len(labs) == len(res.labellings)
    data = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert data == res.summary
    csv_lines = (tmp_path / "out" / "records.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 1 + len(res.records)


def _strip(rec):
    return dataclasses.replace(rec, wall_time=0.0)


def test_untraced_record_equals_traced():
    cases = [(small_cfg(), 0),
             (ExperimentConfig(n=(300,), gamma=Fraction(1, 10), m=4, ell=16,
                               trials=1, seed=0, retries=2, quasi_per_kind=0,
                               checkpoint_every=0), 0)]
    for cfg, trial in cases:
        traced = run_trial(cfg, 0, trial, collect_trace=True)
        plain = run_trial(cfg, 0, trial)
        assert plain.result.trace is None
        assert _strip(plain.record) == _strip(traced.record)
        assert plain.record.steps == len(traced.result.trace) > 0
        assert plain.record.corv_hits > 0 and plain.record.core_hits > 0
    exp = run_experiment(dataclasses.replace(cases[0][0], trials=2))
    assert [_strip(r) for r in exp.records] == [
        _strip(run_trial(cases[0][0], 0, k, collect_trace=True).record)
        for k in range(2)]


def test_reports_are_scoped_to_the_last_attempt():
    # attempts fail at steps 1277, 1304, 1345 and 982: the first three
    # pass the checkpoint at 1000, the last one dies before it
    cfg = ExperimentConfig(n=(2000,), gamma=Fraction(1, 5), m=16, ell=128,
                           trials=1, seed=2, checkpoint_every=1000)
    tr = run_trial(cfg, 0, 0)
    steps = [f.step for f in tr.result.failures]
    assert steps == [1277, 1304, 1345, 982]
    assert tr.reports == ()
    rec = tr.record
    assert rec.quasi1_max_dev == rec.quasi2_max_dev == -1.0
    assert rec.quasi_ok


# SHA-256 of the artifacts of two frozen runs.  They pin the RNG draw
# order, so a change to the label state's representation keeps them.
GOLDEN = {
    "success_labelling":
        "4e3ee0b0bf1956a90eefb9ccd0e9ccc8e485b010cc020938082cabaae6c01e21",
    "success_trace":
        "579bd4ad06475305345d443bb1f10dc8b0cbae9f4844a33020d81de63e4557bc",
    "retry_trace":
        "d072071cb3e4a2dde16f1a2b7dbd46f4500cc4837ddacce21deaf303b5869355",
}


def test_golden_digests():
    import hashlib

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    ok = run_trial(small_cfg(trials=1), 0, 0, collect_trace=True)
    assert ok.record.outcome == "success"
    assert sha(labelling_to_json(ok.labelling)) == GOLDEN["success_labelling"]
    assert sha(trace_csv(ok.result, ok.reports)) == GOLDEN["success_trace"]
    cfg = ExperimentConfig(n=(300,), gamma=Fraction(1, 10), m=4, ell=16,
                           trials=1, seed=0, retries=2, quasi_per_kind=0,
                           checkpoint_every=0)
    bad = run_trial(cfg, 0, 0, collect_trace=True)
    assert bad.record.outcome == "fail" and bad.record.attempts == 3
    assert sha(trace_csv(bad.result, bad.reports)) == GOLDEN["retry_trace"]
