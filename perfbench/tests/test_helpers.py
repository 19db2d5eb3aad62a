"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import measure  # noqa: E402
import spans  # noqa: E402
from gracetree.labeller import AttemptFailure, LabelResult  # noqa: E402


def _span(name, parent, start, end):
    return spans.Span(trial=0, name=name, parent=parent, start=start, end=end)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    tree = [_span("root", -1, 0.0, 10.0), _span("a", 0, 1.0, 6.0),
            _span("b", 1, 2.0, 4.0), _span("c", 0, 7.0, 9.0)]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0]
    assert sum(spans.self_times(tree)) == tree[0].duration


def test_tracer_records_parents_within_each_trial():
    tracer = spans.Tracer()
    for trial in (0, 1):
        tracer.begin(trial)
        tracer.call("root", lambda: tracer.call(
            "child", lambda: tracer.call("leaf", lambda: None)))
        got = [(s.trial, s.name, s.parent) for s in tracer.trial_spans()]
        assert got == [(trial, "root", -1), (trial, "child", 0),
                       (trial, "leaf", 1)]
        assert min(spans.self_times(tracer.trial_spans())) >= 0
    assert len(tracer.spans) == 6


def test_tracer_closes_spans_when_the_call_raises():
    tracer = spans.Tracer()
    tracer.begin(0)

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("root", boom)
    tracer.call("next", lambda: None)
    assert [s.parent for s in tracer.spans] == [-1, -1]


def test_installed_restores_the_library():
    import gracetree.harness as harness
    import gracetree.quasirandom as quasirandom

    before = (harness.run_labelling, quasirandom.select)
    tracer = spans.Tracer()
    with tracer.installed():
        assert harness.run_labelling is not before[0]
    assert (harness.run_labelling, quasirandom.select) == before


def _result(success, steps):
    fails = tuple(AttemptFailure("corv-removal", s) for s in steps)
    return LabelResult(success=success, psi=None, plan=None,
                       attempts=len(fails) + success, failures=fails,
                       trace=None)


@pytest.mark.parametrize("success,steps,n,want", [
    (True, (), 100, 100),
    (True, (7, 30), 100, 137),
    (False, (7, 30, 2, 99), 100, 138),
])
def test_label_steps_counts_failed_attempts_and_a_success(success, steps,
                                                          n, want):
    assert spans.label_steps(_result(success, steps), n) == want


@pytest.mark.parametrize("count,percentile,beyond", [
    (1, 100.0, 0),
    (10, 100.0, 0),
    (11, 100.0 / 11, 10),
    (20, 50.0, 10),
    (40, 75.0, 10),
    (1000, 99.0, 10),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, percentile, beyond):
    values = [float(v) for v in range(count, 0, -1)]  # unsorted input
    got = measure.tail(values)
    assert got["percentile"] == pytest.approx(percentile)
    assert got["beyond"] == beyond
    assert got["samples"] == count
    assert sum(v > got["value"] for v in values) == beyond


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        measure.tail([])


def test_speed_scale_is_nominal_over_the_median_sample():
    probe = measure.SpeedProbe()
    probe.samples = [measure.REF_NOMINAL_S * f for f in (1.0, 2.0, 1.5)]
    assert probe.scale() == pytest.approx(1 / 1.5)


def test_speed_sampling_runs_in_the_block_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = measure.SpeedProbe()
    with probe.sampling():
        end = time.perf_counter() + 3.5 * probe.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
