import dataclasses
import json
import math
import os
import random
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
    assert rec.failure_site == "choose-label" and rec.failure_step == 188
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


def _ci_cases():
    """(k, n) pairs over 0 <= k <= n <= 2000: every k for n <= 25, the
    edges and middle of n = 2000, and random pairs."""
    rnd = random.Random(3)
    cases = [(k, n) for n in range(1, 26) for k in range(n + 1)]
    cases += [(k, 2000) for k in (0, 1, 2, 1000, 1998, 1999, 2000)]
    for n in (rnd.randint(26, 2000) for _ in range(20)):
        cases.append((rnd.randint(0, n), n))
    return cases


@pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
def test_exact_binomial_ci_matches_scipy_beta_quantiles(level):
    from scipy.stats import beta

    a = (1 - level) / 2
    for k, n in _ci_cases():
        lo, hi = exact_binomial_ci(k, n, level)
        want_lo = 0.0 if k == 0 else beta.ppf(a, k, n - k + 1)
        want_hi = 1.0 if k == n else beta.ppf(1 - a, k + 1, n - k)
        assert abs(lo - want_lo) <= 1e-12 and abs(hi - want_hi) <= 1e-12, (
            k, n)


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs most of a CLI call's start-up; a fresh
    # interpreter, since this one may have imported it already
    import subprocess
    import sys

    import gracetree

    src = os.path.dirname(os.path.dirname(gracetree.__file__))
    code = "import sys, gracetree.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


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
    # attempts fail at steps 1310, 1152, 1273 and 916: the first three
    # pass the checkpoint at 1000, the last one dies before it
    cfg = ExperimentConfig(n=(2000,), gamma=Fraction(1, 5), m=16, ell=128,
                           trials=1, seed=6, checkpoint_every=1000)
    tr = run_trial(cfg, 0, 0)
    steps = [f.step for f in tr.result.failures]
    assert steps == [1310, 1152, 1273, 916]
    assert tr.reports == ()
    rec = tr.record
    assert rec.quasi1_max_dev == rec.quasi2_max_dev == -1.0
    assert rec.quasi_ok


# SHA-256 of the artifacts of two frozen runs.  They pin the RNG draw
# order, so a change to the label state's representation keeps them.
# GOLDEN_MASK_SELECT are the same runs when every draw skips its tries
# and reads its whole window (labeller.TRIES empty): the mask-and-select
# draws that the rejection draws replaced, and still fall back to.
GOLDEN = {
    "success_labelling":
        "c2a3e5d481ae0f092895dfa4bc2120acc9324bff4b08f9c0ce1a374126540194",
    "success_trace":
        "59a1a0bee682a01e372873716d1306d036347f301fab63ef77e45988c0559694",
    "retry_trace":
        "ca051986c81afd759cd30ba542dae1e89a0cf3ac525495545b474db60615b600",
}
GOLDEN_MASK_SELECT = {
    "success_labelling":
        "159f481976c2db190e36495396d5ba0fcc4f9f96807e76c078b90f8337944d75",
    "success_trace":
        "0d31798fba7f39397b9387e09c77dc48fe40e1d285b5566dd11f269d9c0ff631",
    "retry_trace":
        "726fb3c3c8c9c62e143546c74a524ac7bb66be38c7fbaabf07ee0763df654f06",
}


def _golden_runs():
    """Digests of the success labelling and trace and of the retry trace."""
    import hashlib

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    ok = run_trial(small_cfg(trials=1), 0, 0, collect_trace=True)
    assert ok.record.outcome == "success"
    cfg = ExperimentConfig(n=(300,), gamma=Fraction(1, 10), m=4, ell=16,
                           trials=1, seed=0, retries=2, quasi_per_kind=0,
                           checkpoint_every=0)
    bad = run_trial(cfg, 0, 0, collect_trace=True)
    assert bad.record.outcome == "fail" and bad.record.attempts == 3
    return {"success_labelling": sha(labelling_to_json(ok.labelling)),
            "success_trace": sha(trace_csv(ok.result, ok.reports)),
            "retry_trace": sha(trace_csv(bad.result, bad.reports))}


def test_golden_digests():
    assert _golden_runs() == GOLDEN


def test_golden_digests_without_tries(monkeypatch):
    from gracetree import labeller

    monkeypatch.setattr(labeller, "TRIES", range(0))
    assert _golden_runs() == GOLDEN_MASK_SELECT


# Two retrying trials at n = 2000, m = 32, ell = 256: the outcome, the
# attempts, and SHA-256 of the record without wall_time, of the
# labelling (None on failure) and of the trace.  The first fails all
# four attempts, the second succeeds on its third.
GOLDEN_RETRIES = [
    (dict(gamma=Fraction(1, 5), seed=0), "fail", 4,
     "4e9c3c1f73f479727aa63bb12c142495d84a315efeb575d12d5d303080857f18",
     None,
     "331794f95eefb3129cbb09ba759af325852404159f8fcef5ec18321434e88fc0"),
    (dict(gamma=Fraction(1, 2), seed=5, retries=6, max_component=8),
     "success", 3,
     "585d5fcabc69df7335597ed40642d2c878abf60b06686c21bd6695de35a5fad8",
     "9dd1772b5d816111bdb1915b6644066a591053a630d463625b326343d202be20",
     "cf19cb00e356b8cafb81e1deb7f92e1f3d6decff3a9cda2be144f58ac947d85d"),
]


def test_retries_redraw_only_the_intervals(monkeypatch):
    import hashlib

    from gracetree import prepare

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    calls = []
    for name in ("cut_tree_by_size", "order_vertices"):
        fn = getattr(prepare, name)
        monkeypatch.setattr(prepare, name, lambda *a, fn=fn, name=name, **k:
                            calls.append(name) or fn(*a, **k))
    for (over, outcome, attempts, rec_sha, lab_sha,
         trace_sha) in GOLDEN_RETRIES:
        calls.clear()
        cfg = ExperimentConfig(n=(2000,), m=32, ell=256, trials=1,
                               checkpoint_every=500, quasi_per_kind=4, **over)
        tr = run_trial(cfg, 0, 0, collect_trace=True)
        assert (tr.record.outcome, tr.record.attempts) == (outcome, attempts)
        assert calls == ["cut_tree_by_size", "order_vertices"]
        row = dataclasses.asdict(tr.record)
        del row["wall_time"]
        assert sha(json.dumps(row, sort_keys=True)) == rec_sha
        got = tr.labelling and sha(labelling_to_json(tr.labelling))
        assert got == lab_sha
        assert sha(trace_csv(tr.result, tr.reports)) == trace_sha


def test_bench_wrapped_bindings_exist(monkeypatch):
    # perfbench's traced runs (run.py --trace 1) getattr and replace each
    # (module, attribute) in spans.WRAPPED; a binding dropped from the
    # library would crash them
    import importlib
    import importlib.util
    import sys

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for mod_name, attr in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(mod_name), attr)), \
            (mod_name, attr)
