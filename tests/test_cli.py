import json
import multiprocessing

import numpy as np
import pytest

import oracles
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
    with pytest.raises(ValueError):
        parse_extractor("structural:zz")
    with pytest.raises(ValueError):
        parse_extractor("vgg19")
    with pytest.raises(ValueError):
        parse_extractor("hu:8")


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

    def patched(g):
        raise ValueError("ranking patched in the parent")

    # a fresh import in the worker would not see this patch and would succeed
    monkeypatch.setattr(ordering, "node_ranking", patched)
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

    def no_ranking(g):
        raise AssertionError("projection must not rank nodes")

    def no_matrix(g):
        raise AssertionError("projection must not build the dense matrix")

    monkeypatch.setattr(ordering, "node_ranking", no_ranking)
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
