"""Malformed input files through ``netclass`` ``main``.

Every rejection of an edge list, a manifest or a feature CSV must exit 1
with a one-line ``error:`` message that names the file, and the line where
one line is at fault; no exception may escape.  Targeted cases pin the
messages, and hypothesis fuzzes each parser.  Generated node indices stay at
or below 10**6, so no input can ask for more than a few megabytes of
per-node storage.
"""

import contextlib
import io
import re
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netclass import cli, generators
from netclass.cli import main
from netclass.generators import MODELS
from netclass.graph import MAX_DENSE_SIZE

MANIFEST_HEADER = "path,label,model,n,k_bar,alpha,beta,seed"


def run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def features(manifest, out):
    return run("features", "--manifest", manifest, "--extractor", "projection", "--out", out)


def classify(csv, classifier="knn"):
    return run("classify", "--features", csv, "--classifier", classifier)


def assert_named(code, err, path, text):
    """A rejection names ``path`` once, and any line it names exists."""
    if code == 0:
        return
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err, err
    m = re.search(re.escape(str(path)) + r":(\d+):", err)
    if m:
        # universal newlines: \r, \n and \r\n each end a line
        assert 1 <= int(m.group(1)) <= len(re.split(r"\r\n?|\n", text)), err


# ---------------------------------------------------------------------------
# targeted cases
# ---------------------------------------------------------------------------


def test_huge_node_index_is_refused_at_its_line(tmp_path):
    # the index is refused while parsing, before any per-node storage exists
    graph = tmp_path / "huge.edges"
    graph.write_text("0 1\n1 1000000\n")
    code, err = run("render", graph, "--out", tmp_path / "o.pgm")
    assert code == 1
    assert f"{graph}:2:" in err and "cap" in err
    graph.write_text(f"# n={MAX_DENSE_SIZE + 1}\n0 1\n")
    code, err = run("render", graph, "--out", tmp_path / "o.pgm")
    assert code == 1
    assert f"{graph}:1:" in err and "cap" in err


def test_non_utf8_edge_list_names_the_file(tmp_path):
    graph = tmp_path / "latin1.edges"
    graph.write_bytes(b"# caf\xe9\n0 1\n")
    code, err = run("render", graph, "--out", tmp_path / "o.pgm")
    assert code == 1
    assert str(graph) in err and "UTF-8" in err


def test_gen_refuses_a_count_below_one(tmp_path):
    # no dataset and no header-only manifest for a later features run to trip on
    for count in (0, -3):
        out = tmp_path / f"count{count}"
        code, err = run("gen", "--preset", "scalefree-desk", "--count", count, "--out", out)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"count must be at least 1, got {count}" in err
        assert not out.exists()


def test_gen_refuses_an_unknown_preset_with_the_list(tmp_path):
    out = tmp_path / "data"
    code, err = run("gen", "--preset", "nope", "--out", out)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "unknown preset 'nope'" in err
    for name in ("synthetic-desk", "synthetic-full", "scalefree-desk", "scalefree-full"):
        assert name in err, err
    assert not out.exists()


def test_gen_refuses_an_out_that_is_a_file(tmp_path, monkeypatch):
    def no_draw(spec):
        raise AssertionError(f"{spec} was drawn")

    monkeypatch.setattr(generators, "generate", no_draw)
    out = tmp_path / "afile"
    out.write_text("kept\n")
    code, err = run("gen", "--preset", "scalefree-desk", "--count", 1, "--out", out)
    assert code == 1 and err == f"error: {out}: is not a directory\n", err
    assert out.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_non_finite_feature_names_the_line(tmp_path):
    csv = tmp_path / "f.csv"
    for bad in ("nan", "inf", "-inf", "1e999"):
        csv.write_text(f"label,f0\na,1.0\na,2.0\nb,{bad}\nb,3.0\n")
        code, err = classify(csv)
        assert code == 1
        assert f"{csv}:4:" in err and "non-finite" in err


def test_overflowing_features_are_refused(tmp_path):
    # finite values whose spreads and distances overflow to inf
    csv = tmp_path / "huge.csv"
    csv.write_text("label,f0\na,1e308\na,-1e308\nb,1e308\nb,-1e308\n")
    for classifier in ("knn", "svm"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = classify(csv, classifier)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(csv) in err and "overflow" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_features_refuses_a_label_that_would_not_read_back(tmp_path):
    # the manifest keeps the leading space, which the feature CSV would lose,
    # merging " BA" into "BA"
    (tmp_path / "g.edges").write_text("0 1\n1 2\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"{MANIFEST_HEADER}\ng.edges,BA,ER,3,2,,0.1,0\n"
                        "g.edges, BA,ER,3,2,,0.1,0\n")
    out = tmp_path / "f.csv"
    code, err = features(manifest, out)
    assert code == 1 and err.count("\n") == 1, err
    assert err.startswith(f"error: {out}: row 2: label ' BA' would not read back"), err
    assert not out.exists()


def test_features_refuses_its_arguments_before_reading_a_graph(tmp_path, monkeypatch):
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "read_edge_list", no_read)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"{MANIFEST_HEADER}\ng.edges,BA,ER,3,2,,0.1,0\n"
                        "g.edges, BA,ER,3,2,,0.1,0\n")
    hu, clbp = tmp_path / "hu.csv", tmp_path / "clbp.csv"
    code, err = run("features", "--manifest", manifest, "--extractor", "hu", "--out", hu,
                    "--extractor", "clbp", "--out", clbp)
    assert code == 1 and err.count("\n") == 1, err
    assert err.startswith(f"error: {hu}: row 2: label ' BA' would not read back"), err

    manifest.write_text(f"{MANIFEST_HEADER}\ng.edges,BA,ER,3,2,,0.1,0\n")
    for outs in ((hu,), (hu, clbp, tmp_path / "more.csv"), (hu, tmp_path / "sub" / ".." / "hu.csv")):
        pairs = [arg for out in outs for arg in ("--out", out)]
        code, err = run("features", "--manifest", manifest,
                        "--extractor", "hu", "--extractor", "clbp", *pairs)
        assert code == 1 and err.count("\n") == 1, err
        assert "features takes one --out per --extractor, each a different file" in err

    missing = tmp_path / "missing" / "clbp.csv"
    code, err = run("features", "--manifest", manifest, "--extractor", "hu", "--out", hu,
                    "--extractor", "clbp", "--out", missing)
    assert code == 1 and err.count("\n") == 1, err
    assert err.startswith(f"error: {missing}: no directory {missing.parent}"), err
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]

    # an --out that is a directory, which open() would refuse only at the end
    code, err = run("features", "--manifest", manifest, "--extractor", "hu", "--out", hu,
                    "--extractor", "clbp", "--out", tmp_path)
    assert code == 1 and err.count("\n") == 1, err
    assert err == f"error: {tmp_path}: is a directory\n", err
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]


def test_classify_refuses_its_out_before_reading_the_csv(tmp_path, monkeypatch):
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "read_feature_csv", no_read)
    csv = tmp_path / "features.csv"
    csv.write_text("label,f0\na,1.0\nb,2.0\n")
    # the same messages as features, before the CSV is read or a fold runs
    missing = tmp_path / "missing" / "report.json"
    for out, text in ((tmp_path, "is a directory"), (missing, f"no directory {missing.parent}")):
        code, err = run("classify", "--features", csv, "--classifier", "knn", "--out", out)
        assert code == 1 and err == f"error: {out}: {text}\n", err
    assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]


def test_features_refuses_an_out_that_is_one_of_its_inputs(tmp_path, monkeypatch):
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "read_edge_list", no_read)
    (tmp_path / "sub").mkdir()
    graph = tmp_path / "g.edges"
    graph.write_text("0 1\n1 2\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"{MANIFEST_HEADER}\ng.edges,BA,ER,3,2,,0.1,0\n")
    before = {p: p.read_bytes() for p in (graph, manifest)}
    # the manifest, a graph it lists, and a graph spelled through another path
    for out in (manifest, graph, tmp_path / "sub" / ".." / "g.edges"):
        code, err = run("features", "--manifest", manifest, "--extractor", "hu",
                        "--out", tmp_path / "hu.csv", "--extractor", "clbp", "--out", out)
        assert code == 1 and err == f"error: {out}: is an input of this command\n", err
        assert {p: p.read_bytes() for p in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.edges", "manifest.csv", "sub"]


def test_render_refuses_its_out_before_reading_the_graph(tmp_path, monkeypatch):
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "read_edge_list", no_read)
    (tmp_path / "sub").mkdir()
    graph = tmp_path / "g.edges"
    graph.write_text("0 1\n1 2\n")
    missing = tmp_path / "missing" / "g.pgm"
    # the graph itself, spelled two ways, a directory and a missing directory
    for out, text in ((graph, "is an input of this command"),
                      (tmp_path / "sub" / ".." / "g.edges", "is an input of this command"),
                      (tmp_path, "is a directory"),
                      (missing, f"no directory {missing.parent}")):
        code, err = run("render", graph, "--out", out)
        assert code == 1 and err == f"error: {out}: {text}\n", err
    assert graph.read_text() == "0 1\n1 2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.edges", "sub"]


def test_classify_refuses_an_out_that_is_its_csv(tmp_path, monkeypatch):
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "read_feature_csv", no_read)
    csv = tmp_path / "q.csv"
    csv.write_text("label,f0\na,1.0\nb,2.0\n")
    code, err = run("classify", "--features", csv, "--classifier", "knn", "--out", csv)
    assert code == 1 and err == f"error: {csv}: is an input of this command\n", err
    assert csv.read_text() == "label,f0\na,1.0\nb,2.0\n"


def test_dataset_errors_name_the_csv(tmp_path):
    csv = tmp_path / "one-class.csv"
    csv.write_text("label,f0\na,1.0\na,2.0\n")
    code, err = classify(csv)
    assert code == 1
    assert str(csv) in err and "2 classes" in err


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# indices small enough to pass, just past the cap, far past it, negative
indices = st.one_of(
    st.integers(0, 40),
    st.integers(MAX_DENSE_SIZE - 1, MAX_DENSE_SIZE + 1),
    st.integers(MAX_DENSE_SIZE, 10**6),
    st.integers(-3, -1),
)
words = st.one_of(
    indices.map(str),
    st.sampled_from(["", "x", "1.5", "nan", "+3", "#", "n=", "1e3", "0x10", "٣"]),
    st.text(max_size=6),
)


def joined(line):
    return st.lists(line, max_size=12).map("\n".join)


edge_lines = st.one_of(
    st.tuples(indices, indices).map(lambda p: f"{p[0]} {p[1]}"),
    indices.map(lambda k: f"# n={k}"),
    st.lists(words, max_size=4).map(" ".join),
)


# raw bytes stand in for the text about half the time
raw_bytes = st.none() | st.binary(max_size=64)


@FUZZ
@given(text=joined(edge_lines), raw=raw_bytes)
def test_fuzz_edge_list(tmp_path, text, raw):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"{MANIFEST_HEADER}\ng.edges,a,ER,3,2,,0.1,0\n")
    graph = tmp_path / "g.edges"
    graph.write_bytes(text.encode() if raw is None else raw)
    code, err = features(manifest, tmp_path / "f.csv")
    assert_named(code, err, graph, text if raw is None else raw.decode("utf-8", "replace"))


field = st.one_of(words, st.sampled_from(MODELS), st.floats(allow_nan=True).map(repr))
manifest_rows = st.one_of(
    st.tuples(st.sampled_from(["a", "b", ""]), st.sampled_from(MODELS + ("XX",)),
              words, words, st.sampled_from(["", "1.0", "0.5", "-1", "nan", "inf", "x"]),
              st.sampled_from(["0.1", "0", "1", "2", "nan", ""]), words)
    .map(lambda f: "g.edges," + ",".join(f)),
    st.lists(field, max_size=10).map(",".join),
)


@FUZZ
@given(header=st.sampled_from([MANIFEST_HEADER, MANIFEST_HEADER + ",x", "", "path"]),
       body=joined(manifest_rows), raw=raw_bytes)
def test_fuzz_manifest(tmp_path, header, body, raw):
    (tmp_path / "g.edges").write_text("0 1\n1 2\n")
    manifest = tmp_path / "fuzz.csv"
    text = f"{header}\n{body}"
    manifest.write_bytes(text.encode() if raw is None else raw)
    code, err = features(manifest, tmp_path / "f.csv")
    assert_named(code, err, manifest, text if raw is None else raw.decode("utf-8", "replace"))


values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-10, 10).map(repr),
    words,
)
csv_rows = st.tuples(st.sampled_from(["a", "b", "c"]), st.lists(values, min_size=1, max_size=3))


@FUZZ
@given(width=st.integers(0, 3), rows=st.lists(csv_rows, max_size=10),
       header_ok=st.booleans(), raw=raw_bytes,
       classifier=st.sampled_from(["knn", "svm"]))
def test_fuzz_feature_csv(tmp_path, width, rows, header_ok, raw, classifier):
    header = ("label" if header_ok else "lab") + "".join(f",f{i}" for i in range(width))
    text = "\n".join([header] + [",".join([label, *vals]) for label, vals in rows])
    csv = tmp_path / "fuzz.csv"
    csv.write_bytes(text.encode() if raw is None else raw)
    code, err = classify(csv, classifier)
    assert_named(code, err, csv, text if raw is None else raw.decode("utf-8", "replace"))
