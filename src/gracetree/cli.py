"""Command-line front end.

Subcommands: generate, label, verify, exact, pack, experiment.  Errors
print one JSON object {"error", "message"} on stderr; exit codes are 0
(ok), 1 (a bad command line, bad input, I/O, or a failed verification),
2 (labelling gave up after its retry budget).
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import DEFAULT_CAP, exact_count, exact_graceful
from .harness import (ExperimentConfig, config_from_json, labelling_from_json,
                      labelling_to_json, run_trial, run_experiment, trace_csv,
                      write_experiment)
from .rng import Rng
from .trees import format_tree, parse_tree, random_tree
from .verify import (Labelling, build_cyclic_packing, verify_bipartite_graceful,
                     verify_graceful, verify_harmonious, verify_packing)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _parity_coloring(tree):
    """Each vertex's depth parity in the tree's BFS from vertex 1."""
    parity = [0]
    for p in tree.parent[1:]:
        parity.append(parity[p] ^ 1)
    return dict(zip(tree.bfs, parity))


def _cmd_generate(args) -> int:
    tree = random_tree(args.n, Rng(args.seed))
    _write(args.out, format_tree(tree))
    _emit({"n": tree.n, "out": args.out})
    return 0


def _cmd_label(args) -> int:
    tree = parse_tree(_read(args.tree))
    cfg = ExperimentConfig(
        n=(tree.n,), gamma=args.gamma, m=args.m, ell=args.ell,
        trials=1, seed=args.seed, retries=args.retries,
        checkpoint_every=args.checkpoint_every,
        quasi_per_kind=args.quasi_per_kind,
        max_component=args.max_component, tree_source=args.tree)
    tr = run_trial(cfg, 0, 0, tree=tree)
    if args.trace:
        _write(args.trace, trace_csv(tr.result, tr.reports))
    if not tr.result.success:
        json.dump({"error": "labelling-failed",
                   "message": f"no labelling after {tr.result.attempts} attempts",
                   "failure_histogram": tr.result.failure_histogram()},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2
    if args.out:
        _write(args.out, labelling_to_json(tr.labelling) + "\n")
    _emit({"outcome": "success", "attempts": tr.result.attempts,
           "n": tree.n, "n_tilde": tr.params.n_tilde,
           "quasi1_max_dev": tr.record.quasi1_max_dev,
           "quasi2_max_dev": tr.record.quasi2_max_dev,
           "out": args.out, "trace": args.trace})
    return 0


def _cmd_verify(args) -> int:
    tree = parse_tree(_read(args.tree))
    lab = labelling_from_json(_read(args.labels), tree)
    if args.m is not None:
        lab = Labelling(tree, lab.psi, args.m)
    checks = {"graceful": verify_graceful(lab)}
    if args.bipartite:
        checks["bipartite"] = verify_bipartite_graceful(
            lab, _parity_coloring(tree))
    if args.harmonious_q is not None:
        checks["harmonious"] = verify_harmonious(lab, args.harmonious_q)
    _emit({name: {"ok": rep.ok, "reason": rep.reason,
                  "witness": list(rep.witness)}
           for name, rep in checks.items()})
    return 0 if all(rep.ok for rep in checks.values()) else 1


def _cmd_exact(args) -> int:
    tree = parse_tree(_read(args.tree))
    m = args.m if args.m is not None else tree.n
    if args.count:
        _emit({"n": tree.n, "m": m, "count": exact_count(tree, m, args.cap)})
        return 0
    lab = exact_graceful(tree, m, args.cap)
    if lab is None:
        _emit({"found": False, "n": tree.n, "m": m})
        return 1
    text = labelling_to_json(lab)
    if args.out:
        _write(args.out, text + "\n")
    print(text)
    return 0


def _cmd_pack(args) -> int:
    tree = parse_tree(_read(args.tree))
    lab = labelling_from_json(_read(args.labels), tree)
    packing = build_cyclic_packing(lab)
    report = verify_packing(packing)
    _write(args.out, json.dumps(
        {"host_order": packing.host_order,
         "decomposition": report.decomposition,
         "total_edges": report.total_edges,
         "copies": [sorted(list(e) for e in copy)
                    for copy in packing.copies]}, indent=2) + "\n")
    _emit({"ok": report.ok, "decomposition": report.decomposition,
           "total_edges": report.total_edges, "out": args.out})
    return 0 if report.ok else 1


def _cmd_experiment(args) -> int:
    cfg = config_from_json(_read(args.config))
    result = run_experiment(cfg)
    paths = write_experiment(result, args.out_dir)
    _emit({"summary": result.summary, "written": paths})
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ValueError, so that main
    reports them as the one-line JSON error; subparsers take the same
    class, and --help still prints and exits 0."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gracetree")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a uniform random tree")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_generate)

    l = sub.add_parser("label", help="randomized labelling of a tree file")
    l.add_argument("--tree", required=True)
    l.add_argument("--gamma", required=True)
    l.add_argument("--m", type=int, required=True)
    l.add_argument("--ell", type=int, required=True)
    l.add_argument("--seed", type=int, required=True)
    l.add_argument("--retries", type=int, default=3)
    l.add_argument("--checkpoint-every", type=int, default=500)
    l.add_argument("--quasi-per-kind", type=int, default=32)
    l.add_argument("--max-component", type=int, default=None)
    l.add_argument("--trace", default=None)
    l.add_argument("--out", default=None)
    l.set_defaults(fn=_cmd_label)

    v = sub.add_parser("verify", help="check a labelling file")
    v.add_argument("--tree", required=True)
    v.add_argument("--labels", required=True)
    v.add_argument("--m", type=int, default=None)
    v.add_argument("--harmonious-q", type=int, default=None)
    v.add_argument("--bipartite", action="store_true")
    v.set_defaults(fn=_cmd_verify)

    e = sub.add_parser("exact", help="exhaustive search on a small tree")
    e.add_argument("--tree", required=True)
    e.add_argument("--m", type=int, default=None)
    e.add_argument("--count", action="store_true")
    e.add_argument("--cap", type=int, default=DEFAULT_CAP)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=_cmd_exact)

    k = sub.add_parser("pack", help="cyclic packing from a graceful labelling")
    k.add_argument("--tree", required=True)
    k.add_argument("--labels", required=True)
    k.add_argument("--out", required=True)
    k.set_defaults(fn=_cmd_pack)

    x = sub.add_parser("experiment", help="run a seeded campaign")
    x.add_argument("--config", required=True)
    x.add_argument("--out-dir", default="experiment-out")
    x.set_defaults(fn=_cmd_experiment)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
