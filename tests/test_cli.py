import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import netclass
from netclass import cli
from netclass.cli import main, parse_extractor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def smoke_dataset(tmp_path_factory):
    # tiny slice of the mixed grid: 4 models x 3 degrees x 2 replicates
    out = tmp_path_factory.mktemp("smoke")
    code = main(["gen", "--preset", "synthetic-desk", "--seed", "11",
                 "--out", str(out), "--count", "2"])
    assert code == 0
    return out


def test_parse_extractor():
    assert parse_extractor("projection") == ("projection", None)
    assert parse_extractor("structural") == ("structural", "combined")
    assert parse_extractor("structural:combined") == ("structural", "combined")
    assert parse_extractor("structural:pp,cl") == ("structural", ("pp", "cl"))
    # the metric ids are checked by metrics, as structural_features checks them
    for bad, ids in (("structural:zz", "['zz']"), ("structural:k,zz", "['zz']"), ("structural:,", "[]")):
        with pytest.raises(ValueError, match=re.escape(f"unknown metric ids {ids}")):
            parse_extractor(bad)
    with pytest.raises(ValueError, match="choose one of projection, clbp, hu, structural$"):
        parse_extractor("vgg19")
    with pytest.raises(ValueError, match="takes no arguments"):
        parse_extractor("hu:8")


def test_cli_imports_neither_test_oracles_nor_numpy_ma():
    # networkx and scipy serve the tests only, and numpy.ma would add about
    # 16 ms and 1.7 MB to every process's startup
    src = str(Path(netclass.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, netclass.cli; print(*sorted(m for m in ('networkx', 'scipy', 'numpy.ma') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == []


def test_classify_takes_no_fold_count(capsys):
    # classify always asks evaluate for 10 folds, which it lowers for a small class
    with pytest.raises(SystemExit):
        main(["classify", "--features", "f.csv", "--classifier", "knn", "--folds", "2"])
    assert "unrecognized arguments: --folds 2" in capsys.readouterr().err


def test_gen_writes_manifest_and_files(smoke_dataset):
    manifest = smoke_dataset / "manifest.csv"
    lines = manifest.read_text().strip().splitlines()
    assert len(lines) == 1 + 24
    for line in lines[1:]:
        rel = line.split(",")[0]
        assert (smoke_dataset / rel).exists()


def test_gen_rerun_byte_identical(smoke_dataset, tmp_path):
    again = tmp_path / "again"
    assert main(["gen", "--preset", "synthetic-desk", "--seed", "11",
                 "--out", str(again), "--count", "2"]) == 0
    assert (again / "manifest.csv").read_bytes() == (
        smoke_dataset / "manifest.csv"
    ).read_bytes()
    name = (smoke_dataset / "manifest.csv").read_text().splitlines()[1].split(",")[0]
    assert (again / name).read_bytes() == (smoke_dataset / name).read_bytes()


def test_features_and_classify_round_trip(smoke_dataset, tmp_path, capsys):
    csv = tmp_path / "hu.csv"
    code, out, _ = run(capsys, "features", "--manifest",
                       str(smoke_dataset / "manifest.csv"),
                       "--extractor", "hu", "--out", str(csv))
    assert code == 0
    header = csv.read_text().splitlines()[0]
    assert header == "label," + ",".join(f"f{i}" for i in range(7))

    report = tmp_path / "rep.json"
    code, out, _ = run(capsys, "classify", "--features", str(csv),
                       "--classifier", "knn", "--seed", "3",
                       "--extractor-id", "hu", "--out", str(report))
    assert code == 0
    # smallest class has 6 members, so folds reduce from 10
    doc = json.loads(report.read_text())
    assert doc["protocol"] == {"classifier": "knn", "extractor": "hu",
                               "folds": 6, "seed": 3}
    assert len(doc["fold_ccr"]) == 6
    assert doc["confusion"]["classes"] == ["BA", "ER", "GEO", "WS"]
    assert sum(map(sum, doc["confusion"]["counts"])) == 24
    # stdout carries the table cell and the aligned confusion matrix
    assert "(" in out.splitlines()[0]


def test_classify_rerun_byte_identical(smoke_dataset, tmp_path, capsys):
    csv = tmp_path / "proj.csv"
    run(capsys, "features", "--manifest", str(smoke_dataset / "manifest.csv"),
        "--extractor", "projection", "--out", str(csv))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(capsys, "classify", "--features", str(csv), "--classifier", "svm",
        "--seed", "5", "--out", str(r1))
    run(capsys, "classify", "--features", str(csv), "--classifier", "svm",
        "--seed", "5", "--out", str(r2))
    assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.parametrize("extractor, start_method", [
    ("projection", None),
    ("hu", None),
    ("clbp", None),
    ("structural:combined", None),
    ("clbp", "spawn"),  # the path every platform but Linux takes
], ids=["projection", "hu", "clbp", "structural", "clbp-spawn"])
def test_features_parallel_matches_serial(smoke_dataset, tmp_path, capsys, monkeypatch,
                                          extractor, start_method):
    manifest = str(smoke_dataset / "manifest.csv")
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    code, _, err = run(capsys, "features", "--manifest", manifest,
                       "--extractor", extractor, "--out", str(serial))
    assert code == 0, err
    if start_method:
        monkeypatch.setattr(cli, "START_METHOD", start_method)
    monkeypatch.setenv("NETCLASS_THREADS", "2")
    code, _, err = run(capsys, "features", "--manifest", manifest,
                       "--extractor", extractor, "--out", str(parallel))
    assert code == 0, err
    assert serial.read_bytes() == parallel.read_bytes()


PAIRED = ("hu", "clbp", "structural:pp,cl", "structural:combined")


@pytest.fixture(scope="module")
def single_runs(smoke_dataset, tmp_path_factory):
    """Each of ``PAIRED``'s CSVs over the smoke set, from its own run at one worker."""
    out = tmp_path_factory.mktemp("single")
    for i, extractor in enumerate(PAIRED):
        assert main(["features", "--manifest", str(smoke_dataset / "manifest.csv"),
                     "--extractor", extractor, "--out", str(out / f"{i}.csv")]) == 0
    return out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_paired_extractors_match_their_single_runs(smoke_dataset, single_runs, tmp_path, capsys,
                                                   monkeypatch, threads):
    pairs = []
    for i, extractor in enumerate(PAIRED):
        pairs += ["--extractor", extractor, "--out", str(tmp_path / f"{i}.csv")]
    monkeypatch.setenv("NETCLASS_THREADS", threads)
    code, out, err = run(capsys, "features", "--manifest", str(smoke_dataset / "manifest.csv"),
                         *pairs)
    assert code == 0, err
    assert out.splitlines() == [f"wrote 24 x {width} features to {tmp_path / f'{i}.csv'}"
                                for i, width in enumerate((7, 200, 1000, 3001))]
    for i in range(len(PAIRED)):
        assert (tmp_path / f"{i}.csv").read_bytes() == (single_runs / f"{i}.csv").read_bytes()


def test_hu_and_clbp_rank_each_graph_once(smoke_dataset, tmp_path, capsys, monkeypatch):
    from netclass import ordering

    ranked = []

    def counting(g, bet, rank=ordering._ranking):
        ranked.append(g)
        return rank(g, bet)

    monkeypatch.setattr(ordering, "_ranking", counting)
    monkeypatch.setenv("NETCLASS_THREADS", "1")
    code, out, err = run(capsys, "features", "--manifest", str(smoke_dataset / "manifest.csv"),
                         "--extractor", "hu", "--out", str(tmp_path / "hu.csv"),
                         "--extractor", "clbp", "--out", str(tmp_path / "clbp.csv"))
    assert code == 0, err
    assert len(out.splitlines()) == 2
    # the list keeps every graph alive, so their ids are distinct
    assert len({id(g) for g in ranked}) == len(ranked) == 24


# Two pairs and the kernel passes they make per graph; a case that pairs hu
# is named by its structural selection alone.
@pytest.mark.parametrize("first, second, passes", [
    ("hu", "structural:combined", 1),
    ("hu", "structural:pp,cl", 1),
    ("structural:pp,cl", "structural:combined", 1),
    ("structural:k", "structural:pp,k,cc", 0),
], ids=["structural:combined", "structural:pp,cl", "structural:pp,cl+combined",
        "structural:k+pp,k,cc"])
def test_hu_and_structural_share_one_kernel_pass(smoke_dataset, tmp_path, capsys, monkeypatch,
                                                 first, second, passes):
    from netclass import metrics

    runs = []
    real = metrics._per_source

    def counting(g, *args, **kwargs):
        runs.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(metrics, "_per_source", counting)
    monkeypatch.setenv("NETCLASS_THREADS", "1")
    code, out, err = run(capsys, "features", "--manifest", str(smoke_dataset / "manifest.csv"),
                         "--extractor", first, "--out", str(tmp_path / "a.csv"),
                         "--extractor", second, "--out", str(tmp_path / "b.csv"))
    assert code == 0, err
    assert len(out.splitlines()) == 2
    # the list keeps every graph alive, so their ids are distinct
    assert len({id(g) for g in runs}) == len(runs) == 24 * passes


def test_a_failing_pair_writes_no_csv(smoke_dataset, tmp_path, capsys):
    # projection refuses the 2501-node graph, which comes after two graphs
    # that both pairs describe
    header, *rows = (smoke_dataset / "manifest.csv").read_text().splitlines()[:5]
    (tmp_path / "wide.edges").write_text("# n=2501\n0 1\n")
    rows = [f"{smoke_dataset}/{row}" for row in rows]
    rows[2:2] = ["wide.edges,ER,ER,2501,2,,0.1,0"]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join([header] + rows) + "\n")
    outs = [tmp_path / "proj.csv", tmp_path / "hu.csv"]
    code, _, err = run(capsys, "features", "--manifest", str(manifest),
                       "--extractor", "projection", "--out", str(outs[0]),
                       "--extractor", "hu", "--out", str(outs[1]))
    assert code == 1
    assert err.startswith(f"error: {tmp_path / 'wide.edges'}: projection supports"), err
    assert not any(out.exists() for out in outs)


@pytest.mark.parametrize("start_method", [None, "spawn"], ids=["default", "spawn"])
def test_gen_parallel_matches_serial(tmp_path, capsys, monkeypatch, start_method):
    argv = ["gen", "--preset", "synthetic-desk", "--seed", "11", "--count", "1"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "s"))
    assert code == 0, err
    if start_method:
        monkeypatch.setattr(cli, "START_METHOD", start_method)
    monkeypatch.setenv("NETCLASS_THREADS", "2")
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "p"))
    assert code == 0, err
    serial = sorted(p.name for p in (tmp_path / "s").iterdir())
    assert serial == sorted(p.name for p in (tmp_path / "p").iterdir())
    assert len(serial) == 1 + 12
    for name in serial:
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()


def test_pool_is_capped_at_the_task_count(smoke_dataset, tmp_path, capsys, monkeypatch):
    sizes = []

    class SerialPool:
        """Records the requested worker count and starts no process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing.get_context(cli.START_METHOD), "Pool", SerialPool)
    # the smoke set holds 24 graphs, and gen writes them again
    stages = (
        ("features", "--manifest", str(smoke_dataset / "manifest.csv"),
         "--extractor", "projection", "--out", str(tmp_path / "f.csv")),
        ("gen", "--preset", "synthetic-desk", "--seed", "11", "--count", "2",
         "--out", str(tmp_path / "g")),
    )
    for threads, expected in (("64", [24]), ("2", [24, 2]), ("1", [24, 2])):
        monkeypatch.setenv("NETCLASS_THREADS", threads)
        for argv in stages:
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        assert sizes == [size for size in expected for _ in stages]
    assert (tmp_path / "g" / "manifest.csv").read_bytes() == (
        smoke_dataset / "manifest.csv").read_bytes()


@pytest.mark.skipif(cli.START_METHOD != "fork",
                    reason="only forked workers run the parent's loaded code")
def test_workers_run_the_parents_code(smoke_dataset, tmp_path, capsys, monkeypatch):
    from netclass import ordering

    def patched(g, bet):
        raise ValueError("ranking patched in the parent")

    # a fresh import in the worker would not see this patch and would succeed
    monkeypatch.setattr(ordering, "_ranking", patched)
    monkeypatch.setenv("NETCLASS_THREADS", "2")
    code, _, err = run(capsys, "features", "--manifest", str(smoke_dataset / "manifest.csv"),
                       "--extractor", "hu", "--out", str(tmp_path / "hu.csv"))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "ranking patched in the parent" in err


def test_projection_features_skip_ranking(smoke_dataset, tmp_path, capsys, monkeypatch):
    from netclass import graph, ordering, read_edge_list
    from netclass.features import projection, write_feature_csv
    from netclass.generators import read_manifest

    # the first four graphs of the smoke set, by absolute path
    header, *rows = (smoke_dataset / "manifest.csv").read_text().splitlines()[:5]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join([header] + [f"{smoke_dataset}/{row}" for row in rows]) + "\n")
    triples = read_manifest(manifest)
    expected = tmp_path / "expected.csv"
    write_feature_csv(expected, [label for _, label, _ in triples],
                      np.array([projection(ordering.sorted_adjacency(read_edge_list(path)))
                                for path, _, _ in triples]))

    def no_ranking(g, *_):
        raise AssertionError("projection must not rank nodes")

    def no_matrix(g):
        raise AssertionError("projection must not build the dense matrix")

    monkeypatch.setattr(ordering, "node_ranking", no_ranking)
    monkeypatch.setattr(ordering, "_ranking", no_ranking)
    monkeypatch.setattr(cli, "adjacency_matrix", no_matrix, raising=False)
    monkeypatch.setattr(graph, "adjacency_matrix", no_matrix)
    csv = tmp_path / "proj.csv"
    code, _, err = run(capsys, "features", "--manifest", str(manifest),
                       "--extractor", "projection", "--out", str(csv))
    assert code == 0, err
    assert csv.read_bytes() == expected.read_bytes()


def test_features_warning_names_the_file(tmp_path, capsys):
    from netclass import write_edge_list

    # a 30x30 grid's corner-to-corner path count passes 2**53
    write_edge_list(oracles.grid_graph(30), tmp_path / "grid30.edges")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,model,n,k_bar,alpha,beta,seed\n"
                        "grid30.edges,grid,ER,900,4,,0.1,0\n")
    with pytest.warns(UserWarning) as caught:
        code, _, err = run(capsys, "features", "--manifest", str(manifest),
                           "--extractor", "structural:bet", "--out", str(tmp_path / "f.csv"))
    assert code == 0, err
    [w] = caught
    assert str(w.message).startswith(f"{tmp_path / 'grid30.edges'}: shortest-path counts")
    assert "n=900" in str(w.message) and "2**53" in str(w.message)

    # hu and clbp share one ranking, so its warning comes once, named too
    with pytest.warns(UserWarning) as caught:
        code, _, err = run(capsys, "features", "--manifest", str(manifest),
                           "--extractor", "hu", "--out", str(tmp_path / "hu.csv"),
                           "--extractor", "clbp", "--out", str(tmp_path / "clbp.csv"))
    assert code == 0, err
    assert [str(v.message) for v in caught] == [str(w.message)]
    assert (tmp_path / "hu.csv").exists() and (tmp_path / "clbp.csv").exists()


def test_warnings_print_one_line_each(tmp_path):
    from netclass import write_edge_list

    # pytest records warnings in its own process, so the CLI runs in a child,
    # which prints them as a user would see them
    src = str(Path(netclass.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)

    def stderr(*argv):
        done = subprocess.run([sys.executable, "-m", "netclass.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stderr

    edges = tmp_path / "grid30.edges"
    write_edge_list(oracles.grid_graph(30), edges)
    (tmp_path / "manifest.csv").write_text("path,label,model,n,k_bar,alpha,beta,seed\n"
                                           "grid30.edges,grid,ER,900,4,,0.1,0\n")
    err = stderr("features", "--manifest", str(tmp_path / "manifest.csv"),
                 "--extractor", "structural:bet", "--out", str(tmp_path / "f.csv"))
    assert re.fullmatch(rf"warning: {re.escape(str(edges))}: shortest-path counts reach "
                        r"3\.0\de\+16 on a graph with n=900, past 2\*\*53; "
                        r"betweenness is no longer exact\n", err), err

    csv = tmp_path / "small.csv"
    csv.write_text("label,f0\n" + "".join(f"{c},{i}\n" for c in "ab" for i in range(3)))
    for classifier in ("knn", "svm"):
        err = stderr("classify", "--features", str(csv), "--classifier", classifier)
        assert err == "warning: reducing folds from 10 to 3: smallest class has 3 members\n"


def test_structural_feature_widths(smoke_dataset, tmp_path, capsys):
    csv = tmp_path / "st.csv"
    run(capsys, "features", "--manifest", str(smoke_dataset / "manifest.csv"),
        "--extractor", "structural:k,d", "--out", str(csv))
    header = csv.read_text().splitlines()[0]
    assert len(header.split(",")) == 1 + 501


def test_render_star(tmp_path, capsys):
    edges = tmp_path / "star.edges"
    edges.write_text("# n=5\n0 1\n0 2\n0 3\n0 4\n")
    out = tmp_path / "star.pgm"
    code, _, _ = run(capsys, "render", str(edges), "--out", str(out))
    assert code == 0
    img = oracles.parse_pgm(out.read_bytes())
    assert img[0].tolist() == [0, 255, 255, 255, 255]
    assert img[:, 0].tolist() == [0, 255, 255, 255, 255]

    fat = tmp_path / "fat.pgm"
    run(capsys, "render", str(edges), "--out", str(fat), "--dilate")
    assert (oracles.parse_pgm(fat.read_bytes()) > 0).sum() > (img > 0).sum()


def test_render_ring_is_banded(tmp_path, capsys):
    # beta=0 ring: every ranking key ties, the order falls back to the node
    # index, and the band structure survives exactly
    from netclass import generate, write_edge_list
    from netclass.generators import GenSpec

    g = generate(GenSpec("WS", 40, 6, beta=0.0, seed=0))
    path = tmp_path / "ring.edges"
    write_edge_list(g, path)
    out = tmp_path / "ring.pgm"
    run(capsys, "render", str(path), "--out", str(out))
    img = oracles.parse_pgm(out.read_bytes())
    ii, jj = np.nonzero(img)
    gap = np.minimum(np.abs(ii - jj), 40 - np.abs(ii - jj))
    assert (gap <= 3).all()


def test_cli_errors_are_prefixed(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 x\n")
    code, _, err = run(capsys, "render", str(bad), "--out", str(tmp_path / "o.pgm"))
    assert code == 1
    assert err.startswith("error: ")
    assert err.strip().count("\n") == 0  # one line

    code, _, err = run(capsys, "features", "--manifest", str(tmp_path / "no.csv"),
                       "--extractor", "hu", "--out", str(tmp_path / "f.csv"))
    assert code == 1 and err.startswith("error: ")

    code, _, err = run(capsys, "classify", "--features", str(tmp_path / "no.csv"),
                       "--classifier", "knn")
    assert code == 1 and err.startswith("error: ")


def test_feature_errors_name_the_graph(smoke_dataset, tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    lines = []
    for i, line in enumerate((smoke_dataset / "manifest.csv").read_text().splitlines()):
        if i == 0:
            lines.append(line)
        else:
            rel, rest = line.split(",", 1)
            lines.append(f"{smoke_dataset / rel},{rest}")
    edgefile = tmp_path / "empty.edges"
    edgefile.write_text("# n=3\n")  # edgeless: moments undefined
    lines.append(f"{edgefile},ER,ER,3,2,,0.1,0")
    manifest.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "features", "--manifest", str(manifest),
                       "--extractor", "hu", "--out", str(tmp_path / "f.csv"))
    assert code == 1
    assert "empty.edges" in err


def test_oversized_graph_is_refused_by_name(tmp_path, capsys):
    edgefile = tmp_path / "huge.edges"
    edgefile.write_text("# n=10001\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,model,n,k_bar,alpha,beta,seed\n"
                        "huge.edges,ER,ER,10001,2,,0.1,0\n")
    code, _, err = run(capsys, "features", "--manifest", str(manifest),
                       "--extractor", "structural:bet", "--out", str(tmp_path / "f.csv"))
    assert code == 1
    assert "huge.edges" in err and "cap" in err


def test_external_csv_flows_through_classify(tmp_path, capsys):
    csv = tmp_path / "ext.csv"
    rows = ["label,f0,f1"]
    for i in range(10):
        rows.append(f"g,{i / 10},{1.0 + i / 7}")
        rows.append(f"t,{3.0 + i / 10},{-1.0 - i / 7}")
    csv.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "classify", "--features", str(csv),
                       "--classifier", "knn", "--seed", "1")
    assert code == 0
    assert out.splitlines()[0] == "100.00 (0.00)"
