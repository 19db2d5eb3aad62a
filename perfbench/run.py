"""Benchmark of the labelling pipeline, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's tree to a file under perfbench/out/ and,
untraced, times a fresh interpreter importing ``gracetree.harness`` and
building the config (SETUP_PROBES times, median reported).  Then a
closed loop with one client runs operations until their summed time
reaches S seconds.  One operation is one ``harness.run_experiment`` call
on a one-trial config that reads the tree file: the path that
``gracetree experiment`` and ``gracetree label`` take.  After each
operation, outside its timed region, every returned labelling is
re-verified and digested.

Every wall time is also scaled to a nominal host speed, measured with
measure.SpeedProbe around (and, untraced, during) the timing; the
end-to-end times setup_s and trial_s are these scaled times, and the
report keeps the wall times.

With --trace 0 the operations run untraced and the end-to-end metrics
are reported.  With --trace 1 operations alternate untraced and traced
(see spans.py), and the per-layer metrics of the traced ones are
reported with the tracing overhead.  The last line of stdout is the
result object; the lines before it are a JSON report with sample
counts, the success rates, digests and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_config, make_tree, op_seed  # noqa: E402

SETUP_PROBES = 3
SPEED_SAMPLES = 5  # reference_work samples taken before and after each timing
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
         "import gracetree.harness, workloads; "
         "workloads.make_config(workloads.WORKLOADS[sys.argv[3]], "
         "sys.argv[4], int(sys.argv[5]))")


def setup_seconds(name: str, tree_path: Path, seed: int) -> list:
    """Wall time of fresh interpreters that import the harness and build
    the workload's config, as every CLI call does before any work, each
    with the host-speed scale measured around it."""
    cmd = [sys.executable, "-c", PROBE, str(SRC), str(BENCH), name,
           str(tree_path), str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        speed = measure.SpeedProbe()
        speed.sample(SPEED_SAMPLES)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120)
        wall = time.perf_counter() - t0
        speed.sample(SPEED_SAMPLES)
        out.append({"wall_s": wall, "scale": speed.scale()})
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_and_digest(result, tree) -> tuple:
    """Problems found in one operation's output, and its digests: the
    labellings as harness.labelling_to_json writes them, and the trial
    records without wall_time."""
    from gracetree import harness, verify

    problems = []
    recs = result.records
    if len(recs) != 1:
        problems.append(f"expected 1 trial record, got {len(recs)}")
    for rec in recs:
        if (rec.outcome == "success") != ((rec.n, rec.trial)
                                          in result.labellings):
            problems.append(f"record outcome {rec.outcome!r} disagrees "
                            "with the returned labellings")
    for key, lab in result.labellings.items():
        if lab.tree != tree:
            problems.append(f"labelling {key} is not of the input tree")
        rep = verify.verify_graceful(lab)
        if not rep.ok:
            problems.append(f"labelling {key} fails verification: "
                            f"{rep.reason}")
    labs = sha256("".join(harness.labelling_to_json(lab) + "\n" for _, lab
                          in sorted(result.labellings.items())))
    rows = []
    for rec in recs:
        row = dataclasses.asdict(rec)
        del row["wall_time"]
        rows.append(row)
    return problems, labs, sha256(json.dumps(rows, sort_keys=True))


def timed_op(cfg, tracer):
    """One run_experiment call, traced when a tracer is given.  Returns
    the result, or the exception it raised, and the call's wall time."""
    from gracetree import harness

    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            if tracer:
                res = tracer.call(spans.ROOT, harness.run_experiment, cfg)
            else:
                res = harness.run_experiment(cfg)
        except Exception as exc:  # an operation error is a result
            res = exc
        return res, time.perf_counter() - t0


def run(args) -> tuple:
    from gracetree import trees

    w = WORKLOADS[args.workload]
    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": measure.environment(ROOT)}
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tree_path = out_dir / f"{w.name}-{args.seed}-{os.getpid()}.tree"
    try:
        tree = make_tree(w, args.seed)
        tree_path.write_text(trees.format_tree(tree))
        if not args.trace:
            setup = setup_seconds(w.name, tree_path, op_seed(args.seed, 0))
        ops = []
        tracer = spans.Tracer()
        layer_rows = []
        measured = 0.0
        k = 0
        while measured < args.seconds or (args.trace and k < 2):
            traced = bool(args.trace) and k % 2 == 1
            cfg = make_config(w, str(tree_path), op_seed(args.seed, k))
            op = {"op": k, "seed": cfg.seed, "traced": traced}
            ops.append(op)
            tracer.begin(k)
            k += 1
            # untraced operations also sample the host's speed while they
            # run; the sampling time is taken out of theirs
            speed = measure.SpeedProbe()
            speed.sample(SPEED_SAMPLES)
            spent = speed.spent
            with speed.sampling() if not traced else contextlib.nullcontext():
                res, dt = timed_op(cfg, tracer if traced else None)
            dt -= speed.spent - spent
            speed.sample(SPEED_SAMPLES)
            op["scale"] = speed.scale()
            measured += dt
            if isinstance(res, Exception):
                op["error"] = f"{type(res).__name__}: {res}"
                continue
            rec = res.records[0]
            problems, op["labellings"], op["records"] = check_and_digest(
                res, tree)
            if traced:
                trial = tracer.trial_spans()
                row = spans.trial_layers(trial, w.n)
                # self times are non-negative iff spans nest; their sum is
                # the root span, which must cover the timed call
                if (row["min_self_s"] < -1e-9
                        or abs(row["self_sum_s"] - dt) > 0.01 * dt):
                    problems.append("layer self times do not add up to the "
                                    "traced trial time")
                row["scale"] = op["scale"]
                layer_rows.append(row)
                for s in trial:  # keep the spans, drop what they point at
                    s.args, s.result = (), None
            op.update(time_s=dt, outcome=rec.outcome, attempts=rec.attempts,
                      vertices=w.n if rec.outcome == "success" else 0)
            if problems:
                op["error"] = "; ".join(problems)
            del res
    finally:
        tree_path.unlink(missing_ok=True)

    failed = sum("error" in o for o in ops)
    report["env"]["loadavg_end"] = list(os.getloadavg())
    report["ops"] = ops
    ok = [o for o in ops if "error" not in o and not o["traced"]]
    if not ok or (args.trace and not layer_rows):
        return report, len(ops), failed, None, None

    times = [o["time_s"] for o in ok]
    succ = [o for o in ok if o["outcome"] == "success"]
    report["untraced"] = {
        "success_rate": {"value": len(succ) / len(ok), "unit": "1",
                         "samples": len(ok)},
        "first_attempt_rate": {
            "value": sum(o["attempts"] == 1 for o in succ) / len(ok),
            "unit": "1", "samples": len(ok)},
        "vertices_per_s": {
            "value": sum(o["vertices"] for o in ok) / sum(times),
            "unit": "1/s", "samples": len(ok)},
        "error_rate": {"value": failed / len(ops), "unit": "1",
                       "samples": len(ops)},
    }
    normal = [o["time_s"] * o["scale"] for o in ok]
    report["trial_wall_s"] = {"value": statistics.median(times),
                              "unit": "s", "samples": len(times)}
    report["trial_s_tail"] = dict(measure.tail(normal), unit="s")
    if args.trace:
        layers = spans.median_by_key([r["layers"] for r in layer_rows])
        shares = spans.median_by_key([r["shares"] for r in layer_rows])
        traced_s = statistics.median(r["trial_s"] for r in layer_rows)
        traced_normal = statistics.median(
            r["trial_s"] * r["scale"] for r in layer_rows)
        metrics = dict(layers)
        metrics.update(shares)
        metrics.update({
            "trace.trial_s": traced_s,
            "trace.untraced_trial_s": statistics.median(times),
            "trace.overhead_s": traced_normal - statistics.median(normal),
        })
        samples = dict.fromkeys(metrics, len(layer_rows))
        samples["trace.untraced_trial_s"] = len(times)
        return report, len(ops), failed, metrics, samples

    metrics = {
        "setup_s": statistics.median(p["wall_s"] * p["scale"] for p in setup),
        "trial_s": statistics.median(normal),
        "attempts_per_trial": statistics.fmean(o["attempts"] for o in ok),
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    samples = {"setup_s": len(setup), "trial_s": len(times),
               "attempts_per_trial": len(ok), "peak_rss_mb": 1}
    report["setup_runs"] = setup
    return report, len(ops), failed, metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "gracetree" / "harness.py").is_file():
        print(f"error: no gracetree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    report, attempted, failed, metrics, samples = run(args)
    if metrics is None:
        print(json.dumps(report, indent=1))
        print("error: no operation completed", file=sys.stderr)
        return 1
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in spec}
    report["metrics"] = {name: dict(v, samples=samples[name])
                         for name, v in result.items()}
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
