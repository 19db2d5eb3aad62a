import csv
import dataclasses
import io
import json
import math
import os
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gracetree.harness import (ExperimentConfig, config_from_json,
                               config_to_json, exact_binomial_ci,
                               labelling_from_json, labelling_to_json,
                               records_csv, run_experiment, run_trial,
                               summary_json, trace_csv, write_experiment,
                               RECORD_COLUMNS, STAGES, TRACE_COLUMNS)
from gracetree.intervals import IntervalSystem
from gracetree.labeller import run_labelling
from gracetree.params import ParamError, derive_practical_params
from gracetree.prepare import cut_tree_by_size, prepare_plan
from gracetree.quasirandom import QuasiReport, audit_history
from gracetree.trees import format_tree, parse_tree, path_tree, random_tree
from gracetree.rng import Rng
from gracetree.verify import LabelArray, Labelling, verify_graceful
from oracles import old_labelling_to_json, old_trace_csv


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


def test_repeated_order_refused():
    # two entries of one order would share summary entries and the
    # labelling files n<order>-t<trial>.json
    with pytest.raises(ParamError, match=r"n repeats an order: \[200, 200\]"):
        small_cfg(n=(200, 200), trials=2)
    with pytest.raises(ParamError, match="n repeats an order"):
        small_cfg(n=(100, 200, 100))


def test_float_gamma_reads_as_its_decimal():
    # a JSON float gives the config of its decimal text, as --gamma 0.2
    # and derive_practical_params do, not that of its binary value
    base = {"n": [160], "m": 32, "ell": 64, "trials": 1, "seed": 0}
    cfg = config_from_json(json.dumps(dict(base, gamma=0.2)))
    assert cfg == config_from_json(json.dumps(dict(base, gamma="1/5")))
    assert cfg.gamma == Fraction(1, 5)
    assert cfg.params_for(160).n_tilde == 192
    assert json.loads(config_to_json(cfg))["gamma"] == "1/5"
    assert ExperimentConfig(**dict(base, gamma=0.2)) == cfg


def test_config_json_round_trip():
    cfg = small_cfg(gamma=Fraction(1, 2), max_component=None)
    back = config_from_json(config_to_json(cfg))
    assert back == cfg
    assert isinstance(back.gamma, Fraction)
    with pytest.raises(ParamError):
        config_from_json('{"n": [10], "gamma": "1", "m": 2, "ell": 4, '
                         '"trials": 1, "seed": 0, "bogus": 3}')
    # a tree file has one order, so a config over one lists one n
    with pytest.raises(ParamError, match=r"one order, config lists "
                                         r"n = \[300, 400\]"):
        config_from_json('{"n": [300, 400], "gamma": "1", "m": 2, '
                         '"ell": 4, "trials": 1, "seed": 0, '
                         '"tree_source": "t.txt"}')


def test_trial_success_record_and_labelling():
    cfg = small_cfg()
    tr = run_trial(cfg, 0, 0)
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
    a = run_trial(cfg, 0, 1)
    b = run_trial(cfg, 0, 1)
    assert a.result.psi == b.result.psi
    assert a.reports == b.reports
    assert (dataclasses.replace(a.record, wall_time=0.0)
            == dataclasses.replace(b.record, wall_time=0.0))


def test_wall_time_covers_the_interval_system(monkeypatch):
    # the clock starts before the trial builds its interval system
    import time

    from gracetree import harness

    build = harness.IntervalSystem

    def slow(*a):
        time.sleep(0.05)
        return build(*a)

    monkeypatch.setattr(harness, "IntervalSystem", slow)
    rec = run_trial(small_cfg(checkpoint_every=0), 0, 0).record
    assert rec.wall_time >= 0.05


def test_trial_failure_record():
    cfg = ExperimentConfig(n=(300,), gamma=Fraction(1, 10), m=4, ell=16,
                           trials=1, seed=0, retries=0, quasi_per_kind=0,
                           checkpoint_every=0)
    tr = run_trial(cfg, 0, 0)
    rec = tr.record
    assert rec.outcome == "fail" and tr.labelling is None
    assert rec.failure_site == "choose-label" and rec.failure_step == 137
    assert rec.attempts == 1
    assert rec.quasi1_max_dev == -1.0  # no checkpoints fired
    assert rec.steps == len(tr.result.trace) == rec.failure_step - 1


def test_accounting_identity_along_trace():
    # free labels after step t = n_tilde - t - removals so far; same for
    # differences with the edge-side removals
    cfg = small_cfg()
    for trial in range(3):
        tr = run_trial(cfg, 0, trial)
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


def test_records_csv_reads_back_each_record():
    # seed_key ("seed:i,k") holds a comma: a CSV reader gets every
    # record's fields back under the header only when it is quoted
    res = run_experiment(small_cfg(trials=2))
    rows = list(csv.DictReader(io.StringIO(records_csv(res.records))))
    assert len(rows) == len(res.records) == 2
    for row, rec in zip(rows, res.records):
        assert None not in row  # no field past the header's last
        for name, want in dataclasses.asdict(rec).items():
            got = row[name]
            if isinstance(want, bool):
                assert got == str(int(want)), name
            elif isinstance(want, float):
                assert float(got) == pytest.approx(want, rel=1e-9,
                                                   abs=1e-6), name
            else:
                assert got == str(want), name


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
    tr = run_trial(cfg, 0, 0)
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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 2 ** 63 - 1), min_size=1, max_size=300),
       st.integers(0, 2 ** 64))
@example([1], 0)
@example([2 ** 63 - 1], 1)
def test_labelling_json_writes_the_reference_bytes(labels, spare):
    # labellings from a dict psi, any labels in 1..m, injective or not
    lab = Labelling(path_tree(len(labels)), dict(enumerate(labels, 1)),
                    max(labels) + spare)
    assert labelling_to_json(lab) == old_labelling_to_json(lab)


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_labelling_json_chunk_edges(n):
    # the writer formats the labels in chunks of 4096
    rnd = random.Random(n)
    labels = {v: rnd.randrange(1, 2 * n) for v in range(1, n + 1)}
    tree = path_tree(n)
    lab = Labelling(tree, labels, 2 * n)
    text = labelling_to_json(lab)
    assert text == old_labelling_to_json(lab)
    assert labelling_from_json(text, tree).psi == lab.psi


def test_pipeline_labellings_hold_a_label_array():
    cfg = small_cfg(trials=2)
    tr = run_trial(cfg, 0, 0)
    assert type(tr.result.psi) is LabelArray
    assert tr.labelling.psi is tr.result.psi
    assert not tr.result.psi.array.flags.writeable
    labs = run_experiment(cfg).labellings
    assert labs and all(type(lab.psi) is LabelArray for lab in labs.values())
    # the dict form of the same labels is read into a new array that
    # writes the same bytes
    as_dict = Labelling(tr.tree, dict(tr.labelling.psi), tr.labelling.m)
    assert type(as_dict.psi) is LabelArray
    assert as_dict.psi is not tr.labelling.psi
    assert labelling_to_json(as_dict) == labelling_to_json(tr.labelling)


def test_trial_memory_per_vertex():
    # what a successful trial keeps and its peak, per vertex, with the
    # tree passed in and the audit off: a labelling held as a dict (plus
    # the lists it was built from) takes 109 and 253 bytes per vertex
    # here, the label array 24 and 187
    n = 20_000
    cfg = ExperimentConfig(n=(n,), gamma=Fraction(1, 2), m=128, ell=512,
                           trials=1, seed=7, checkpoint_every=0,
                           max_component=32)
    tree = random_tree(n, Rng(7))
    run_trial(cfg, 0, 0, tree=tree)  # imports and caches settle first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr = run_trial(cfg, 0, 0, tree=tree)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.record.outcome == "success"
    assert (kept - base) / n < 50
    assert (peak - base) / n < 225


def test_labelling_file_memory_per_vertex():
    # what `gracetree verify` keeps of a labels file and its peak, per
    # vertex: a dict of the labels took 89 and 122 bytes per vertex
    # here, the label array built from the JSON list 8 and 45
    n = 20_000
    cfg = ExperimentConfig(n=(n,), gamma=Fraction(1, 2), m=128, ell=512,
                           trials=1, seed=7, checkpoint_every=0,
                           max_component=32)
    tree = random_tree(n, Rng(7))
    text = labelling_to_json(run_trial(cfg, 0, 0, tree=tree).labelling)
    verify_graceful(labelling_from_json(text, tree))  # caches settle first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lab = labelling_from_json(text, tree)
        rep = verify_graceful(lab)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert (kept - base) / n < 16
    assert (peak - base) / n < 64


def _stage_peak(n, f, *args):
    """f(*args) and its tracemalloc peak above the level it started at,
    in bytes per vertex."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    out = f(*args)
    return out, (tracemalloc.get_traced_memory()[1] - base) / n


def _stage_peaks(n):
    """Each stage's peak at a random tree of order n, gamma = 1/2,
    m = 128, ell = 512, cap 32 and no retry, in bytes per vertex."""
    params = derive_practical_params(n, Fraction(1, 2), 128, 512)
    sys = IntervalSystem(params.n_tilde, params.m, params.ell)
    peaks = {}
    tree, peaks["random_tree"] = _stage_peak(n, random_tree, n, Rng(7))
    text, peaks["format_tree"] = _stage_peak(n, format_tree, tree)
    _, peaks["parse_tree"] = _stage_peak(n, parse_tree, text)
    del text
    _, peaks["cut_tree_by_size"] = _stage_peak(n, cut_tree_by_size, tree, 32)
    plan = prepare_plan(tree, sys, Rng(7, (1,)), max_component=32)
    res, peaks["run_labelling"] = _stage_peak(n, run_labelling, plan, sys,
                                              Rng(7, (2,)))
    assert res.success
    lab = Labelling(tree, res.psi, params.n_tilde)
    _, peaks["labelling_to_json"] = _stage_peak(n, labelling_to_json, lab)
    return peaks


def test_stage_memory_per_vertex():
    # no stage builds a Python object per vertex or edge but the label
    # loop's one list of labels: with whole-array lists (tolist of the
    # plan and the BFS, a string per edge line, a list of the labels)
    # these stages peaked at 108, 100, 142, 89, 91 and 120 bytes per
    # vertex at n = 10^5, read in chunks at 68, 60, 62, 27, 24 and 23
    bounds = {"random_tree": 80, "parse_tree": 72, "run_labelling": 72,
              "cut_tree_by_size": 40, "format_tree": 40,
              "labelling_to_json": 40}
    _stage_peaks(5000)  # imports and caches settle first
    tracemalloc.start()
    try:
        peaks = _stage_peaks(100_000)
    finally:
        tracemalloc.stop()
    assert {k: v for k, v in peaks.items() if v > bounds[k]} == {}, peaks


def _audit_peaks(n):
    """The audit-on stages' peaks at _stage_peaks' point, in bytes per
    vertex: the label loop keeping its history, the audit of that
    history every 500 steps with 32 samples per kind, and the bytes the
    history keeps."""
    params = derive_practical_params(n, Fraction(1, 2), 128, 512)
    sys = IntervalSystem(params.n_tilde, params.m, params.ell)
    tree = random_tree(n, Rng(7))
    plan = prepare_plan(tree, sys, Rng(7, (1,)), max_component=32)
    peaks = {}
    res, peaks["run_labelling"] = _stage_peak(
        n, lambda: run_labelling(plan, sys, Rng(7, (2,))))
    assert res.success
    history = res.history
    peaks["history"] = sum(x.nbytes for x in (
        history.labels, history.diffs, history.corv_steps, history.corv,
        history.core_steps, history.core)) / n
    reports, peaks["audit_history"] = _stage_peak(
        n, audit_history, history, sys, 500,
        lambda t: float(params.alpha(t)), 32, Rng(7, (3,)))
    assert len(reports) == n // 500
    return peaks


def test_audit_memory_per_vertex():
    # with the audit on, the label loop turns its labels and picks into
    # int32 arrays once the attempt has ended, so its peak stays within
    # the audit-off stage's bound; the audit's block tables hold at
    # most n_tilde entries per group of checkpoints.  At n = 10^5 these
    # read about 62, 8.1 and 65 bytes per vertex
    bounds = {"run_labelling": 72, "history": 9, "audit_history": 80}
    _audit_peaks(5000)  # imports and caches settle first
    tracemalloc.start()
    try:
        peaks = _audit_peaks(100_000)
    finally:
        tracemalloc.stop()
    assert {k: v for k, v in peaks.items() if v > bounds[k]} == {}, peaks


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


def test_campaign_reads_its_tree_file_once(tmp_path, monkeypatch):
    from gracetree import harness

    path = tmp_path / "t.txt"
    path.write_text(format_tree(random_tree(120, Rng(5))))
    calls = []
    parse = harness.parse_tree
    monkeypatch.setattr(harness, "parse_tree",
                        lambda text: calls.append(text) or parse(text))
    cfg = ExperimentConfig(n=(120,), gamma=Fraction(1), m=8, ell=16,
                           trials=3, seed=7, retries=8, quasi_per_kind=0,
                           checkpoint_every=0, max_component=6,
                           tree_source=str(path))
    res = run_experiment(cfg)
    assert len(calls) == 1 and len(res.records) == 3
    assert [_strip(r) for r in res.records] == [
        _strip(run_trial(cfg, 0, k).record) for k in range(3)]
    calls.clear()
    empty = run_experiment(dataclasses.replace(
        cfg, trials=0, tree_source=str(tmp_path / "missing.txt")))
    assert calls == [] and empty.records == ()
    # a tree file has one order, so a config that lists two is refused
    # before any trial runs
    with pytest.raises(ParamError, match=r"one order, config lists "
                                         r"n = \[120, 121\]"):
        dataclasses.replace(cfg, n=(120, 121), trials=1)


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
        tr = run_trial(cfg, 0, trial)
        assert tr.record.steps == len(tr.result.trace) > 0
        assert tr.record.corv_hits > 0 and tr.record.core_hits > 0
    exp = run_experiment(dataclasses.replace(cases[0][0], trials=2))
    assert [_strip(r) for r in exp.records] == [
        _strip(run_trial(cases[0][0], 0, k).record) for k in range(2)]


def test_audit_stays_out_of_the_label_loop():
    # the audit reads the last attempt once it has ended: a trial labels
    # alike with it on and off (labelling, plan, attempts, failures and
    # the history that steps, hit counts and trace rows are read off)
    retrying = ExperimentConfig(n=(2000,), gamma=Fraction(1, 5), m=32,
                                ell=256, trials=1, seed=0,
                                checkpoint_every=500, quasi_per_kind=4)
    for on in (small_cfg(trials=1), retrying):
        off = dataclasses.replace(on, checkpoint_every=0)
        audited = run_trial(on, 0, 0)
        plain = run_trial(off, 0, 0)
        assert audited.reports and plain.reports == ()
        assert audited.result == plain.result
    assert not audited.result.success and audited.result.attempts == 4


def test_reports_are_scoped_to_the_last_attempt():
    # attempts fail at steps 1227, 1386, 839 and 823: the first two pass
    # the checkpoint at 1000, the last two die before it
    cfg = ExperimentConfig(n=(2000,), gamma=Fraction(1, 5), m=16, ell=128,
                           trials=1, seed=29, checkpoint_every=1000)
    tr = run_trial(cfg, 0, 0)
    steps = [f.step for f in tr.result.failures]
    assert steps == [1227, 1386, 839, 823]
    assert tr.reports == ()
    rec = tr.record
    assert rec.quasi1_max_dev == rec.quasi2_max_dev == -1.0
    assert rec.quasi_ok


def test_unsampled_structure_deviation_reads_minus_one():
    # with quasi_per_kind = 0 each checkpoint measures QUASI1 and samples
    # no pattern; the record must not show a QUASI2 deviation of 0 for
    # a structure audit that never ran
    cfg = ExperimentConfig(n=(2000,), gamma=Fraction(1, 2), m=16, ell=64,
                           trials=1, seed=3, checkpoint_every=500,
                           quasi_per_kind=0, max_component=8)
    tr = run_trial(cfg, 0, 0)
    assert tr.reports and all(r.quasi2_devs == () for r in tr.reports)
    rec = tr.record
    assert rec.quasi1_max_dev == max(r.quasi1_max_dev for r in tr.reports)
    assert rec.quasi1_max_dev >= 0 and rec.quasi2_max_dev == -1.0
    row = next(csv.DictReader(io.StringIO(records_csv([rec]))))
    assert row["quasi2_max_dev"] == "-1"
    # sampling, the record holds the largest sampled deviation
    tr = run_trial(dataclasses.replace(cfg, quasi_per_kind=4), 0, 0)
    assert tr.record.quasi2_max_dev == max(
        d for r in tr.reports for d in r.quasi2_devs)


def test_unsampled_checkpoint_rows_read_minus_one():
    # the trace's checkpoint rows agree with the report and the record:
    # a checkpoint that sampled no pattern shows no QUASI2 deviation
    cfg = ExperimentConfig(n=(2000,), gamma=Fraction(1, 2), m=16, ell=64,
                           trials=1, seed=3, checkpoint_every=500,
                           quasi_per_kind=0, max_component=8)
    tr = run_trial(cfg, 0, 0)
    assert all(r.quasi2_max_dev == -1.0 for r in tr.reports)
    rows = list(csv.reader(io.StringIO(trace_csv(tr.result, tr.reports))))
    checks = [r for r in rows[1:] if r[1] == ""]
    assert [int(r[0]) for r in checks] == [500, 1000, 1500]
    assert all(r[-1] == "-1" for r in checks)


def test_trace_csv_writes_the_reference_bytes():
    # the step rows go out in chunks of 4096; checkpoint rows may fall
    # on any row of a chunk, at its edges, on the last step or past it
    cfg = ExperimentConfig(n=(9000,), gamma=Fraction(1, 2), m=32, ell=128,
                           trials=1, seed=0, retries=0, checkpoint_every=0,
                           max_component=8)
    ok = run_trial(cfg, 0, 0)
    bad = run_trial(dataclasses.replace(cfg, n=(2000,), gamma=Fraction(1, 5),
                                        m=32, ell=512, max_component=None),
                    0, 0)
    assert ok.result.success and len(ok.result.trace) == 9000
    assert not bad.result.success and 0 < len(bad.result.trace) < 2000

    def reports(*ts):
        return [QuasiReport(t, 0.5, t / 7, 1, (t / 9,) if t % 2 else ())
                for t in ts]

    cases = [(), reports(1), reports(0, 1, 2, 4095, 4096, 4097, 8192, 8193,
                                     8999, 9000, 9001),
             reports(*range(500, 9001, 500))]
    for res in (ok.result, bad.result):
        steps = len(res.trace)
        for reps in cases + [reports(steps - 1, steps, steps + 1)]:
            assert trace_csv(res, reps) == old_trace_csv(res, reps)
    empty = dataclasses.replace(bad.result, history=dataclasses.replace(
        bad.result.history, steps=0))
    assert len(empty.trace) == 0
    for reps in cases:
        assert trace_csv(empty, reps) == old_trace_csv(empty, reps) == (
            ",".join(TRACE_COLUMNS) + "\n")


def test_stage_times():
    # every stage is timed, whether it ran or not, and no time reaches
    # the record
    on = small_cfg(trials=1)
    for cfg in (on, dataclasses.replace(on, checkpoint_every=0),
                dataclasses.replace(on, n=(300,), gamma=Fraction(1, 10),
                                    m=4, ell=16, retries=1)):
        tr = run_trial(cfg, 0, 0)
        assert tuple(tr.stage_s) == STAGES
        assert all(s >= 0 for s in tr.stage_s.values())
        assert sum(tr.stage_s.values()) <= tr.record.wall_time
        assert "stage_s" not in dataclasses.asdict(tr.record)
    assert not tr.result.success


# SHA-256 of the artifacts of two frozen runs.  They pin the RNG draw
# order, so a change to the label state's representation keeps them.
# They also pin the plan: all were re-recorded when the vertex order
# became BFS by component (order_vertices), as was GOLDEN_RETRIES, and
# the success ones again, with GOLDEN_RETRIES, when the cut moved to the
# same BFS from vertex 1 (the retry run's plan did not move).  GOLDEN
# and GOLDEN_RETRIES were re-recorded once more when a draw's tries went
# from 16 to 64 (labeller.K); no plan moved.  All were re-recorded when
# random trees became the first-entrance trees of a random walk
# (trees.random_tree) and the balanced interval draw moved to
# Rng.permutation (prepare.assign_intervals).
# GOLDEN_MASK_SELECT are the same runs when every draw skips its tries
# and reads its whole window (labeller.TRIES empty): the mask-and-select
# draws that the rejection draws replaced, and still fall back to.
# The success traces of both, and GOLDEN_RETRIES' records and traces,
# were re-recorded when the audit's sample moved to Rng.draws reads:
# they carry the sampled deviations, and no labelling moved.
# GOLDEN_MASK_SELECT and GOLDEN_RETRIES' labelling and traces were
# re-recorded when every fallback rank and every offset block past the
# first 4096 values moved to Rng.draws; GOLDEN did not move.
GOLDEN = {
    "success_labelling":
        "710e271ce53b4b97c3b817b32012b99c38b4daee2cc98d5ee4be2a5f45721747",
    "success_trace":
        "14bf67bd6f60e1008533cf2b5a862abbc2999991e27d9ba0d00bb3af0b2d6603",
    "retry_trace":
        "642c667e998c049891538f494e910978d50fdadb3866778bf8a43d7f3647a726",
}
GOLDEN_MASK_SELECT = {
    "success_labelling":
        "88714095d5eaac3e2067fc7845048a524926f59d81ca8b744fc116de855e17e1",
    "success_trace":
        "42ec7e77a2f3a5369c9ad6efe6e051b9b585225188b477f3a4a1160991eb94b7",
    "retry_trace":
        "065b1c944303cbdece03d2921efa7d2292f42c8c6ec8e138620e5e2c618ec30e",
}


def _golden_runs():
    """Digests of the success labelling and trace and of the retry trace."""
    import hashlib

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    ok = run_trial(small_cfg(trials=1), 0, 0)
    assert ok.record.outcome == "success"
    cfg = ExperimentConfig(n=(300,), gamma=Fraction(1, 10), m=4, ell=16,
                           trials=1, seed=0, retries=2, quasi_per_kind=0,
                           checkpoint_every=0)
    bad = run_trial(cfg, 0, 0)
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
# four attempts, the second succeeds on its seventh, the last allowed.
# Both audit with sampling, so their reports changed when only the last
# attempt came to be audited, after it ended, reading the audit stream
# from its start (quasirandom.audit_history), with the same law: the
# first trial's record 48abfe8d...d3d745 -> 11e9f889...89e9912 (its
# quasi2_max_dev 0.265625 -> 0.234375) and trace 84a8dab8...b0d52a38 ->
# 9accbcd6...bf5a744f; the second's trace 16c0da32...7ed7c7 ->
# 8f83f880...59f80bda, its record unchanged.  No labelling moved.
GOLDEN_RETRIES = [
    (dict(gamma=Fraction(1, 5), seed=0), "fail", 4,
     "11e9f889282b5ac381fc493edc520dbcd21b1284e1fd2e75dc1d37fff89e9912",
     None,
     "9accbcd6c9372d0d3241dd72ac89a21d76543709bb244d9c4e583d0abf5a744f"),
    (dict(gamma=Fraction(1, 2), seed=5, retries=6, max_component=8),
     "success", 7,
     "4bfc676fd018ff9b8468c42f8f53b4d55552e94eef05992fd97c616df80e2204",
     "4c0c22d540bc32a2e66b5c5512b53957ac12943d5307949f1e8e8a568dd7f8d7",
     "8f83f880a310cab082e548385ee46402979cab888120cc8140cdcc8959f80bda"),
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
        tr = run_trial(cfg, 0, 0)
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
