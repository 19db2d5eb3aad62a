import contextlib
import io
import itertools
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracetree import verify
from gracetree.cli import main
from gracetree.exact import exact_graceful
from gracetree.harness import labelling_to_json
from gracetree.rng import Rng
from gracetree.trees import (caterpillar_tree, format_tree, parse_tree,
                             random_tree)
from oracles import tree_texts


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_p3(tmp_path, labels=(1, 3, 2), m=3):
    tree = tmp_path / "p3.txt"
    tree.write_text("3\n1 2\n2 3\n")
    lab = tmp_path / "p3-labels.json"
    lab.write_text(json.dumps({"n": 3, "m": m, "labels": list(labels)}))
    return str(tree), str(lab)


def test_verify_passing_example(tmp_path, capsys):
    tree, lab = write_p3(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--tree", tree, "--labels", lab)
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["graceful"]["ok"] is True


def test_verify_failing_labelling(tmp_path, capsys):
    tree, lab = write_p3(tmp_path, labels=(1, 2, 3))
    code, out, err = run_cli(capsys, "verify", "--tree", tree, "--labels", lab)
    assert code == 1
    rep = json.loads(out)
    assert rep["graceful"]["ok"] is False
    assert rep["graceful"]["reason"] == "edge-label collision"


def test_verify_extra_checks(tmp_path, capsys):
    tree, lab = write_p3(tmp_path, labels=(1, 3, 2))
    code, out, _ = run_cli(capsys, "verify", "--tree", tree, "--labels", lab,
                           "--bipartite", "--harmonious-q", "2")
    rep = json.loads(out)
    assert rep["bipartite"]["ok"] is True
    assert rep["harmonious"]["ok"] is True  # sums 4, 5 distinct mod 2
    assert code == 0

    tree, lab = write_p3(tmp_path, labels=(1, 2, 3))
    code, out, _ = run_cli(capsys, "verify", "--tree", tree, "--labels", lab,
                           "--harmonious-q", "2")
    rep = json.loads(out)
    assert rep["harmonious"]["ok"] is False  # sums 3, 5 collide mod 2
    assert code == 1


def bfs_parity(tree):
    """Each vertex's depth parity in a BFS from vertex 1."""
    adj = {v: [] for v in range(1, tree.n + 1)}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    color, queue = {1: 0}, [1]
    for v in queue:
        for w in adj[v]:
            if w not in color:
                color[w] = 1 - color[v]
                queue.append(w)
    return color


def alpha_labelling(tree):
    """A graceful labelling that puts class 0 of bfs_parity below class
    1, found by trying every arrangement within the two label blocks."""
    color = bfs_parity(tree)
    low = [v for v in color if color[v] == 0]
    high = [v for v in color if color[v] == 1]
    for a in itertools.permutations(range(1, len(low) + 1)):
        for b in itertools.permutations(range(len(low) + 1, tree.n + 1)):
            psi = dict(zip(low + high, a + b))
            if len({abs(psi[u] - psi[v]) for u, v in tree.edges}) \
                    == tree.n - 1:
                return verify.Labelling(tree, psi, tree.n)
    return None


def run_bipartite(tmp_path, capsys, monkeypatch, tree, lab):
    """verify --bipartite on tree and lab: (exit code, bipartite report,
    the colouring the CLI passed to the check)."""
    from gracetree import cli
    seen = []
    check = cli.verify_bipartite_graceful
    monkeypatch.setattr(cli, "verify_bipartite_graceful",
                        lambda lab, col: seen.append(col) or check(lab, col))
    tree_path, lab_path = tmp_path / "t.txt", tmp_path / "t.json"
    tree_path.write_text(format_tree(tree))
    lab_path.write_text(labelling_to_json(lab))
    code, out, _ = run_cli(capsys, "verify", "--tree", str(tree_path),
                           "--labels", str(lab_path), "--bipartite")
    return code, json.loads(out)["bipartite"], seen[0]


@pytest.mark.parametrize("seed", range(6))
def test_verify_bipartite_colours_by_bfs_parity(tmp_path, capsys,
                                                monkeypatch, seed):
    # a random tree with its first graceful labelling, judged against
    # the separation that bfs_parity's classes give
    tree = random_tree(8, Rng(seed))
    lab = exact_graceful(tree, tree.n)
    code, rep, color = run_bipartite(tmp_path, capsys, monkeypatch, tree,
                                     lab)
    assert color == bfs_parity(tree)
    low = max((lab.psi[v], v) for v in color if color[v] == 0)
    high = min((lab.psi[v], v) for v in color if color[v] == 1)
    if low < high:
        assert (code, rep["ok"], rep["reason"]) == (0, True,
                                                   "bipartite graceful")
    else:
        assert (code, rep["ok"], rep["reason"]) == (1, False,
                                                   "class separation")
        assert rep["witness"] == [low[1], high[1]]


@pytest.mark.parametrize("spine", [1, 2, 3, 5])
def test_verify_bipartite_passes_a_caterpillar(tmp_path, capsys,
                                               monkeypatch, spine):
    tree = caterpillar_tree(8, spine, lambda i: 1 + i % 2)
    lab = alpha_labelling(tree)
    code, rep, color = run_bipartite(tmp_path, capsys, monkeypatch, tree,
                                     lab)
    assert color == bfs_parity(tree)
    assert (code, rep["ok"], rep["reason"]) == (0, True, "bipartite graceful")


def test_verify_bipartite_names_class_separation(tmp_path, capsys,
                                                 monkeypatch):
    # the path 1-2-3-4 labelled 3, 2, 4, 1 is graceful, but class 0
    # (vertices 1 and 3) lies above class 1: label 4 at vertex 3 is
    # above label 1 at vertex 4
    tree = parse_tree("4\n1 2\n2 3\n3 4\n")
    lab = verify.Labelling(tree, {1: 3, 2: 2, 3: 4, 4: 1}, 4)
    code, rep, color = run_bipartite(tmp_path, capsys, monkeypatch, tree,
                                     lab)
    assert color == {1: 0, 2: 1, 3: 0, 4: 1}
    assert (code, rep["ok"], rep["reason"], rep["witness"]) == (
        1, False, "class separation", [3, 4])


def test_generate_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    code1, _, _ = run_cli(capsys, "generate", "--n", "40", "--seed", "9",
                          "--out", a)
    code2, _, _ = run_cli(capsys, "generate", "--n", "40", "--seed", "9",
                          "--out", b)
    assert code1 == code2 == 0
    text = open(a).read()
    assert text == open(b).read()
    assert parse_tree(text).n == 40


def test_exact_single_edge_and_count(tmp_path, capsys):
    tree = tmp_path / "k2.txt"
    tree.write_text("2\n1 2\n")
    out_file = str(tmp_path / "k2-labels.json")
    code, out, _ = run_cli(capsys, "exact", "--tree", str(tree),
                           "--out", out_file)
    assert code == 0
    lab = json.loads(open(out_file).read())
    assert sorted(lab["labels"]) == [1, 2] and lab["m"] == 2
    code, out, _ = run_cli(capsys, "exact", "--tree", str(tree),
                           "--m", "3", "--count")
    assert code == 0 and json.loads(out)["count"] == 6


def test_pack_single_edge_decomposition(tmp_path, capsys):
    tree = tmp_path / "k2.txt"
    tree.write_text("2\n1 2\n")
    labels = str(tmp_path / "labels.json")
    run_cli(capsys, "exact", "--tree", str(tree), "--out", labels)
    out_file = str(tmp_path / "pack.json")
    code, out, _ = run_cli(capsys, "pack", "--tree", str(tree),
                           "--labels", labels, "--out", out_file)
    assert code == 0
    assert json.loads(out)["decomposition"] is True
    data = json.loads(open(out_file).read())
    assert data["host_order"] == 3 and len(data["copies"]) == 3
    assert data["total_edges"] == 3
    covered = {tuple(e) for copy in data["copies"] for e in copy}
    assert covered == {(0, 1), (0, 2), (1, 2)}


def test_pack_rejects_huge_m(tmp_path, capsys):
    # K_{2m-1} for m = 10**9 would take 2m - 1 copies and a flag per host
    # edge; the bound refuses it before building either
    tree = tmp_path / "k2.txt"
    tree.write_text("2\n1 2\n")
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"n": 2, "m": 10 ** 9, "labels": [1, 2]}))
    code, out, err = run_cli(capsys, "pack", "--tree", str(tree),
                             "--labels", str(labels),
                             "--out", str(tmp_path / "pack.json"))
    assert code == 1 and out == "" and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "packing host K_1999999999" in payload["message"]
    assert not (tmp_path / "pack.json").exists()


def test_pack_size_bound_admits_m_2236():
    # the largest label bound whose host K_{2m-1} is within the bound; a
    # labelling from `gracetree label` has m = n_tilde >= (1 + gamma) n,
    # so that admits trees of up to 1788 vertices at gamma = 1/4 and 1118
    # at gamma = 1
    verify._check_host_order(2 * 2236 - 1)
    with pytest.raises(ValueError, match="packing host K_4473"):
        verify._check_host_order(2 * 2237 - 1)


def test_pack_cli_labelling_at_the_size_bound(tmp_path, capsys, monkeypatch):
    # a labelling from `gracetree label` whose host has exactly the bound's
    # edge count still packs; one edge less in the bound refuses it
    tree = str(tmp_path / "t.txt")
    run_cli(capsys, "generate", "--n", "40", "--seed", "4", "--out", tree)
    labels = str(tmp_path / "labels.json")
    code, _, err = run_cli(
        capsys, "label", "--tree", tree, "--gamma", "1", "--m", "4",
        "--ell", "8", "--seed", "4", "--retries", "8",
        "--max-component", "8", "--out", labels)
    assert code == 0, err
    m = json.loads(open(labels).read())["m"]
    h = 2 * m - 1
    out_file = str(tmp_path / "pack.json")
    monkeypatch.setattr(verify, "_MAX_HOST_EDGES", h * (h - 1) // 2)
    code, out, err = run_cli(capsys, "pack", "--tree", tree,
                             "--labels", labels, "--out", out_file)
    assert code == 0, err
    assert json.loads(out)["total_edges"] == h * 39
    assert json.loads(open(out_file).read())["host_order"] == h
    monkeypatch.setattr(verify, "_MAX_HOST_EDGES", h * (h - 1) // 2 - 1)
    code, _, err = run_cli(capsys, "pack", "--tree", tree,
                           "--labels", labels, "--out", out_file)
    assert code == 1 and f"packing host K_{h}" in json.loads(err)["message"]


def test_label_writes_artifacts(tmp_path, capsys):
    tree = str(tmp_path / "t.txt")
    run_cli(capsys, "generate", "--n", "200", "--seed", "3", "--out", tree)
    out_file = str(tmp_path / "labels.json")
    trace_file = str(tmp_path / "trace.csv")
    code, out, err = run_cli(
        capsys, "label", "--tree", tree, "--gamma", "1", "--m", "16",
        "--ell", "32", "--seed", "11", "--retries", "8",
        "--max-component", "8", "--checkpoint-every", "50",
        "--quasi-per-kind", "4", "--out", out_file, "--trace", trace_file)
    assert code == 0, err
    assert json.loads(out)["outcome"] == "success"
    vcode, vout, _ = run_cli(capsys, "verify", "--tree", tree,
                             "--labels", out_file)
    assert vcode == 0
    lines = open(trace_file).read().strip().split("\n")
    assert lines[0].startswith("t,chosen_label,edge_label_removed,rv,re,")
    assert len(lines) == 1 + 200 + 4  # steps plus checkpoint rows


def test_label_reads_the_tree_file_once(tmp_path, capsys, monkeypatch):
    from gracetree import cli, harness

    tree = str(tmp_path / "t.txt")
    run_cli(capsys, "generate", "--n", "200", "--seed", "3", "--out", tree)
    reads = []
    for mod in (cli, harness):
        monkeypatch.setattr(mod, "parse_tree", lambda text, f=mod.parse_tree:
                            reads.append(1) or f(text))
    code, out, err = run_cli(
        capsys, "label", "--tree", tree, "--gamma", "1", "--m", "16",
        "--ell", "32", "--seed", "11", "--retries", "8",
        "--max-component", "8")
    assert code == 0, err
    assert json.loads(out)["n"] == 200
    assert len(reads) == 1


@pytest.mark.parametrize("gamma", ["1/0", "x", "nan"])
def test_label_refuses_bad_gamma(tmp_path, capsys, gamma):
    tree = str(tmp_path / "t.txt")
    run_cli(capsys, "generate", "--n", "50", "--seed", "0", "--out", tree)
    code, out, err = run_cli(
        capsys, "label", "--tree", tree, "--gamma", gamma, "--m", "4",
        "--ell", "8", "--seed", "0")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ParamError"
    assert payload["message"].startswith(f"bad gamma {gamma!r}: ")


def test_label_exhausted_retries_exit_2(tmp_path, capsys):
    tree = str(tmp_path / "t.txt")
    run_cli(capsys, "generate", "--n", "300", "--seed", "0", "--out", tree)
    code, out, err = run_cli(
        capsys, "label", "--tree", tree, "--gamma", "1/10", "--m", "4",
        "--ell", "16", "--seed", "0", "--retries", "2",
        "--checkpoint-every", "0", "--quasi-per-kind", "0")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "labelling-failed"
    hist = payload["failure_histogram"]
    assert sum(hist.values()) == 3  # one per attempt


def test_error_json_on_stderr(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--tree",
                             str(tmp_path / "missing.txt"),
                             "--labels", str(tmp_path / "missing.json"))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"

    tree = tmp_path / "p3.txt"
    tree.write_text("3\n1 2\n2 3\n")
    code, _, err = run_cli(capsys, "exact", "--tree", str(tree), "--m", "1")
    assert code == 1
    assert "need m >= n" in json.loads(err)["message"]


def test_label_refuses_negative_null_mass(tmp_path, capsys):
    # gamma = 1/5, m = 32, ell = 512 on n = 1000: n_tilde/m = 38 windows
    # against 4(ell/m - 1) = 60, so both correction laws would give the
    # null outcome a negative mass
    tree = str(tmp_path / "t.txt")
    run_cli(capsys, "generate", "--n", "1000", "--seed", "0", "--out", tree)
    code, out, err = run_cli(
        capsys, "label", "--tree", tree, "--gamma", "1/5", "--m", "32",
        "--ell", "512", "--seed", "0")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ParamError"
    assert "n_tilde/m = 38, ell/m = 16" in payload["message"]


def test_label_refuses_odd_ell_over_m(tmp_path, capsys):
    # ell/m = 3: the edge correction law needs an even ratio, and the
    # config refuses it before the tree is planned
    tree = str(tmp_path / "t.txt")
    run_cli(capsys, "generate", "--n", "200", "--seed", "0", "--out", tree)
    code, out, err = run_cli(
        capsys, "label", "--tree", tree, "--gamma", "1/2", "--m", "4",
        "--ell", "12", "--seed", "0")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ParamError"
    assert payload["message"] == ("edge-correction masses need ell/m even, "
                                  "got 12/4")


@pytest.mark.parametrize("ell", ["0", "-4"])
def test_label_refuses_ell_below_m(tmp_path, capsys, ell):
    tree = str(tmp_path / "t.txt")
    run_cli(capsys, "generate", "--n", "50", "--seed", "0", "--out", tree)
    code, out, err = run_cli(
        capsys, "label", "--tree", tree, "--gamma", "1", "--m", "4",
        "--ell", ell, "--seed", "0")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ParamError"
    assert f"need ell >= m: ell = {ell}, m = 4" in payload["message"]


def test_label_refuses_an_interval_system_too_large(tmp_path, capsys):
    # n_tilde/m is about 10^7 windows: refused at once, not built
    tree = str(tmp_path / "t.txt")
    run_cli(capsys, "generate", "--n", "50", "--seed", "0", "--out", tree)
    code, out, err = run_cli(
        capsys, "label", "--tree", tree, "--gamma", "400000", "--m", "2",
        "--ell", "4", "--seed", "1", "--checkpoint-every", "0")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ParamError"
    assert payload["message"].startswith(
        "interval system too large to materialize")


def test_experiment_command(tmp_path, capsys):
    cfg = {"n": [200], "gamma": "1", "m": 16, "ell": 32, "trials": 2,
           "seed": 5, "retries": 6, "checkpoint_every": 100,
           "quasi_per_kind": 4, "max_component": 8}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                             "--out-dir", str(out_dir))
    assert code == 0, err
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "summary.json").exists()
    summary = json.loads(out)["summary"]
    assert summary["per_n"][0]["trials"] == 2

    bad = dict(cfg, bogus=1)
    cfg_path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                           "--out-dir", str(out_dir))
    assert code == 1 and "bogus" in json.loads(err)["message"]


# Fuzzing the error contract: malformed labels and config files must end
# in exit code 0, 1 or 2, and every non-zero exit must write exactly one
# JSON line to stderr (no traceback).

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def mutated(base, extra_keys):
    keys = st.sampled_from(sorted(base) + extra_keys)
    edit = st.tuples(st.booleans(), keys, JSON_VALUES)

    def apply(edits):
        d = dict(base)
        for drop, key, value in edits:
            if drop:
                d.pop(key, None)
            else:
                d[key] = value
        return json.dumps(d)

    return (st.lists(edit, min_size=1, max_size=3).map(apply)
            | JSON_VALUES.map(json.dumps) | st.text(max_size=20))


def run_quiet(argv, with_out=False):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if with_out:
        return code, out.getvalue(), err.getvalue()
    return code, err.getvalue()


def assert_contract(code, err):
    assert code in (0, 1, 2)
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, err
        payload = json.loads(err)
        assert set(payload) >= {"error", "message"}


LABELS_BASE = {"n": 3, "m": 3, "labels": [1, 3, 2]}
# label bounds whose packing host K_{2m-1} is over the size bound
HUGE_M = st.sampled_from([10 ** 4, 10 ** 9, 2 ** 64])
CONFIG_BASE = {"n": [24], "gamma": "1", "m": 2, "ell": 4, "trials": 1,
               "seed": 3, "retries": 0, "checkpoint_every": 0,
               "quasi_per_kind": 0}


@settings(max_examples=250, deadline=None)
@given(mutated(LABELS_BASE, ["bogus"]) | HUGE_M.map(
    lambda m: json.dumps(dict(LABELS_BASE, m=m))),
       st.sampled_from(["verify", "pack"]))
def test_verify_fuzzed_labels_keep_error_contract(text, command):
    # the same labels files feed verify and pack
    with tempfile.TemporaryDirectory() as d:
        tree, labels = os.path.join(d, "p3.txt"), os.path.join(d, "l.json")
        with open(tree, "w") as fh:
            fh.write("3\n1 2\n2 3\n")
        with open(labels, "w") as fh:
            fh.write(text)
        argv = [command, "--tree", tree, "--labels", labels]
        if command == "pack":
            argv += ["--out", os.path.join(d, "o")]
        assert_contract(*run_quiet(argv))


@settings(max_examples=150, deadline=None)
@given(mutated(CONFIG_BASE, ["quasi_used_cap", "max_component",
                             "tree_source", "bogus"]))
def test_experiment_fuzzed_config_keeps_error_contract(text):
    with tempfile.TemporaryDirectory() as d:
        cfg = os.path.join(d, "cfg.json")
        with open(cfg, "w") as fh:
            fh.write(text)
        assert_contract(*run_quiet(["experiment", "--config", cfg,
                                    "--out-dir", os.path.join(d, "out")]))


@pytest.mark.parametrize("labels,needle", [
    ({"m": 3, "labels": [1, 3, 2]}, "missing keys: ['n']"),
    ({"n": 3, "m": 3, "labels": [1, "3", 2]}, "list of integers"),
    ({"n": 3, "m": True, "labels": [1, 3, 2]}, "must be integers"),
    ([1, 3, 2], "JSON object"),
])
def test_verify_malformed_labels_named(tmp_path, capsys, labels, needle):
    tree = tmp_path / "p3.txt"
    tree.write_text("3\n1 2\n2 3\n")
    path = tmp_path / "l.json"
    path.write_text(json.dumps(labels))
    code, _, err = run_cli(capsys, "verify", "--tree", str(tree),
                           "--labels", str(path))
    assert code == 1 and needle in json.loads(err)["message"]


@pytest.mark.parametrize("change,needle", [
    ({"n": 5}, "n must be a list of integers"),
    ({"gamma": "1/0"}, "bad gamma"),
    ({"trials": "2"}, "bad trials"),
    ({"m": None}, "bad m"),
    ({"quasi_used_cap": 256}, "unknown config keys"),
    ({"ell": 0}, "need ell >= m: ell = 0, m = 2"),
    ({"ell": -2}, "need ell >= m: ell = -2, m = 2"),
    ({"n": [24, 24]}, "n repeats an order: [24, 24]"),
])
def test_experiment_malformed_config_named(tmp_path, capsys, change, needle):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIG_BASE, **change)))
    code, _, err = run_cli(capsys, "experiment", "--config", str(path),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 1 and needle in json.loads(err)["message"]


@settings(max_examples=150, deadline=None)
@given(tree_texts(), st.sampled_from(["label", "verify", "pack"]))
def test_fuzzed_tree_files_keep_error_contract(text, command):
    # the labels are graceful for the tree when the file parses, so a
    # well-formed file reaches the command's own checks
    try:
        tree = parse_tree(text)
        fault = None
        labels = labelling_to_json(exact_graceful(tree, tree.n))
    except ValueError as exc:
        fault = str(exc)
        labels = json.dumps({"n": 3, "m": 3, "labels": [1, 3, 2]})
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name)
                 for name in ("t.txt", "l.json", "out")}
        with open(paths["t.txt"], "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(paths["l.json"], "w") as fh:
            fh.write(labels)
        argv = {
            "label": ["label", "--tree", paths["t.txt"], "--gamma", "1",
                      "--m", "2", "--ell", "4", "--seed", "3",
                      "--retries", "0", "--checkpoint-every", "0",
                      "--quasi-per-kind", "0"],
            "verify": ["verify", "--tree", paths["t.txt"],
                       "--labels", paths["l.json"]],
            "pack": ["pack", "--tree", paths["t.txt"],
                     "--labels", paths["l.json"], "--out", paths["out"]],
        }[command]
        code, out, err = run_quiet(argv, with_out=True)
    assert_contract(code, err)
    if fault is not None:
        assert code == 1 and json.loads(err)["message"] == fault
    elif command != "label":
        assert code == 0, (out, err)


def test_verify_names_how_many_labels_are_out_of_range(tmp_path, capsys):
    # a 2*10^4-vertex labelling checked against --m 100: almost every
    # label is out of range, and the error names the count and the
    # first five vertices instead of all of them
    tree = str(tmp_path / "t.txt")
    run_cli(capsys, "generate", "--n", "20000", "--seed", "1", "--out", tree)
    labels = str(tmp_path / "labels.json")
    code, _, err = run_cli(
        capsys, "label", "--tree", tree, "--gamma", "1/2", "--m", "128",
        "--ell", "512", "--seed", "1", "--max-component", "32",
        "--checkpoint-every", "0", "--out", labels)
    assert code == 0, err
    code, out, err = run_cli(capsys, "verify", "--tree", tree,
                             "--labels", labels, "--m", "100")
    assert code == 1 and out == ""
    assert len(err.encode()) < 1024 and err.count("\n") == 1
    got = json.loads(open(labels).read())["labels"]
    bad = [v for v, b in enumerate(got, 1) if b > 100]
    assert len(bad) > 19000
    shown = {v: got[v - 1] for v in bad[:5]}
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"labels outside 1..100 at {len(bad)} vertices, "
                   f"first {shown}"}


def test_verify_refuses_labels_beyond_int64(tmp_path, capsys):
    # one label of 2^70: out of range under the file's own m, and beyond
    # the int64 bound 2^63 - 1 when m is larger still
    for m, top in [(3, 3), (2**71, 2**63 - 1)]:
        tree, lab = write_p3(tmp_path, labels=(1, 2**70, 2), m=m)
        code, out, err = run_cli(capsys, "verify", "--tree", tree,
                                 "--labels", lab)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"labels outside 1..{top} at 1 vertices, "
                       f"first {{2: {2**70}}}"}
    tree, lab = write_p3(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--tree", tree, "--labels", lab,
                           "--m", str(2**64))
    assert code == 0 and json.loads(out)["graceful"]["ok"] is True


def test_negative_seed_is_refused_by_name(tmp_path, capsys):
    tree = str(tmp_path / "t.txt")
    assert run_cli(capsys, "generate", "--n", "20", "--seed", "1",
                   "--out", tree)[0] == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(CONFIG_BASE, seed=-1)))
    out = tmp_path / "out"
    for argv, seed in [
            (["generate", "--n", "20", "--seed", "-1", "--out", str(out)], -1),
            (["label", "--tree", tree, "--gamma", "1", "--m", "2", "--ell",
              "4", "--seed", "-3", "--out", str(out),
              "--trace", str(out) + ".csv"], -3),
            (["experiment", "--config", str(cfg), "--out-dir", str(out)], -1)]:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and json.loads(err) == {
            "error": "ValueError",
            "message": f"seed = {seed} must be non-negative"}
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "t.txt"]


# Each subcommand's required options, and one of its int options (None
# when it has none).  The files are never read: a bad command line is
# refused before any work.
REQUIRED = {
    "generate": (["--n", "5", "--seed", "1", "--out", "t"], "--n"),
    "label": (["--tree", "t", "--gamma", "1/2", "--m", "8", "--ell", "8",
               "--seed", "1"], "--m"),
    "verify": (["--tree", "t", "--labels", "l"], "--m"),
    "exact": (["--tree", "t"], "--cap"),
    "pack": (["--tree", "t", "--labels", "l", "--out", "o"], None),
    "experiment": (["--config", "c"], None),
}


def bad_command_lines():
    """(argv, option the error names) for each subcommand: its last
    required option dropped, a non-integer int option, and an unknown
    option; then no subcommand and an unknown one."""
    for command, (required, int_option) in REQUIRED.items():
        yield [command, *required[:-2]], required[-2]
        if int_option is not None:
            yield [command, *required, int_option, "abc"], int_option
        yield [command, *required, "--bogus"], "--bogus"
    yield [], "command"
    yield ["bogus"], "bogus"


@pytest.mark.parametrize("argv, needle", list(bad_command_lines()))
def test_bad_command_line_keeps_error_contract(argv, needle, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_quiet(argv, with_out=True)
    assert code == 1 and out == ""
    assert_contract(code, err)
    assert needle in json.loads(err)["message"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [["--help"], ["label", "--help"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: gracetree" in capsys.readouterr().out
