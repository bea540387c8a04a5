"""The traced run: per-layer spans, counts and memory for one workload.

It first runs one untraced pass through the CLI as the reference.  The
traced pass then repeats the workload in this process, calling each layer's
public functions from the benchmark's code with a span around every call:
per graph it generates and writes the graph (set-up), reads it back, builds
the dense adjacency, runs the BFS forward pass alone (``all_pairs_distances``),
the sorted image, every image descriptor and the structural histograms.  The
sorted image's call into the node ranking, and the ranking's call into
betweenness, get spans of their own: for that call the benchmark puts timing
wrappers around the two functions in the ``ordering`` module, so one ranking
yields all three nested spans.  Its feature CSVs and reports are written
through the package's own writers and must be byte-identical to the
reference pass's, which ties the per-layer numbers to the program the
end-to-end run measured.  Each layer's peak RSS comes from a fresh child
process on the workload's largest input.  The tracing overhead is the cost
of the spans themselves: an empty span's cost, timed here, times the number
of spans the traced pass recorded.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
import warnings
from contextlib import contextmanager
from pathlib import Path

from checks import sha256, sha256_text
from pipeline import MANIFEST, ROOT, Pipeline, Stage, child_argv, csv_name

STARTUP_SAMPLES = 5
# Empty spans timed per batch, and batches, for the cost of one span.
SPAN_COST_SAMPLES = 2000
SPAN_COST_BATCHES = 5

# Span name of the call that computes each extractor's values in the traced pass.
EXTRACTOR_SPANS = {
    "projection": "features.projection_s",
    "hu": "features.hu_s",
    "clbp": "features.clbp_s",
    "structural:combined": "metrics.structural_s",
}
TIME_SPANS = (
    "generators.generate_s", "graph.write_edge_list_s", "graph.read_edge_list_s",
    "graph.adjacency_matrix_s", "metrics.distances_s", "metrics.betweenness_s",
    "metrics.structural_s", "ordering.node_ranking_s", "ordering.sorted_adjacency_s",
    "features.projection_s", "features.hu_s", "features.clbp_s", "features.csv_write_s",
    "features.csv_read_s", "classify.knn_cv_s", "classify.svm_cv_s",
)
# (metric prefix, probe layer, bytes per cell of its dense n x n array).
RSS_PROBES = (
    ("metrics.betweenness", "betweenness", 8),
    ("metrics.structural", "structural", 8),
    ("ordering.sorted_adjacency", "sorted_adjacency", 1),
    ("features.clbp", "clbp", 1),
    ("classify.svm", "svm", 8),
)
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_SPANS},
    "metrics.bfs_levels": "count", "metrics.components": "count",
    "ordering.relabel_changed": "count",
    "features.csv_bytes": "B", "cli.startup_s": "s", "cli.pool_efficiency": "ratio",
    **{f"{prefix}.peak_rss_mb": "MB" for prefix, _, _ in RSS_PROBES},
    **{f"{prefix}.computed_dense_mb": "MB" for prefix, _, _ in RSS_PROBES},
    "trace.overhead_pct": "%",
}
MB = 1024.0 * 1024.0


class Spans:
    """Spans kept in memory until the run ends.

    Each records its layer name, the item it worked on (graph or CSV file),
    that item's class label, the span that caused it (the innermost span
    still open when it started) and its start and end.
    """

    def __init__(self):
        self.records: list[dict] = []
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str, item: str = "", group: str = ""):
        parent = self._open[-1] if self._open else ""
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.records.append({"name": name, "item": item, "group": group,
                                 "parent": parent, "start": start, "end": end})

    @contextmanager
    def around_calls(self, module, spans: dict[str, str], item: str, group: str):
        """Records a span around each call made through ``module.<function>``
        for the functions named in ``spans`` (function -> span name)."""
        originals = {fn: getattr(module, fn) for fn in spans}

        def traced(fn):
            def call(*args, **kwargs):
                with self.span(spans[fn], item, group):
                    return originals[fn](*args, **kwargs)
            return call

        for fn in spans:
            setattr(module, fn, traced(fn))
        try:
            yield
        finally:
            for fn, original in originals.items():
                setattr(module, fn, original)

    def durations(self, name: str, group: str | None = None) -> list[float]:
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name and (group is None or r["group"] == group)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus the time their child spans cover."""
        total = 0.0
        for r in self.records:
            if r["name"] == name:
                total += r["end"] - r["start"] - sum(
                    c["end"] - c["start"] for c in self.records
                    if c["parent"] == name and c["item"] == r["item"]
                    and r["start"] <= c["start"] and c["end"] <= r["end"])
        return total

    def summary(self) -> dict:
        out = {}
        for name in dict.fromkeys(r["name"] for r in self.records):
            groups = sorted({r["group"] for r in self.records if r["name"] == name} - {""})
            out[name] = dict(_stats(self.durations(name)), self_sum=self.self_time(name),
                             by_group={g: _stats(self.durations(name, g)) for g in groups})
        return out


def _stats(values: list[float]) -> dict:
    p90 = values[0]
    if len(values) > 1:
        p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return {"n": len(values), "sum": sum(values), "p50": statistics.median(values), "p90": p90}


def _trace_graph(path: Path, label: str, seed: int, index: int, spans: Spans) -> tuple[dict, dict]:
    """All graph layers on one graph; returns (exact counts, extractor values)."""
    import numpy as np
    from netclass import (adjacency_matrix, all_pairs_distances, clbp_features, from_edge_list,
                          hu_moments, ordering, projection, read_edge_list, sorted_adjacency,
                          structural_features)

    item = path.name

    def span(name):
        return spans.span(name, item, label)

    with span("graph.read_edge_list_s"):
        g = read_edge_list(path)
    with span("graph.adjacency_matrix_s"):
        adjacency_matrix(g)
    with span("metrics.distances_s"):
        dist = all_pairs_distances(g)
    finite = np.isfinite(dist)
    counts = {
        "file": item, "label": label, "n": g.n, "m": g.edge_count,
        "bfs_levels": int(dist[finite].max()),
        # a component is counted at its lowest-numbered node
        "components": int((finite.argmax(axis=1) == np.arange(g.n)).sum()),
    }
    del dist, finite
    nested = {"node_ranking": "ordering.node_ranking_s", "betweenness": "metrics.betweenness_s"}
    with spans.around_calls(ordering, nested, item, label), span("ordering.sorted_adjacency_s"):
        image = sorted_adjacency(g)
    perm = np.random.default_rng([seed, index, 0x5E1A]).permutation(g.n)
    relabeled = from_edge_list(g.n, ((perm[u], perm[v]) for u, v in g.edges()))
    counts["relabel_changed"] = int(not np.array_equal(sorted_adjacency(relabeled), image))
    values = {}
    with span("features.projection_s"):
        values["projection"] = projection(image)
    with span("features.hu_s"):
        values["hu"] = hu_moments(image)
    with span("features.clbp_s"):
        values["clbp"] = clbp_features(image)
    with span("metrics.structural_s"):
        values["structural:combined"] = structural_features(g, "combined")
    return counts, values


def traced_pass(pipe: Pipeline, ref: dict[str, str], ref_dir: Path, out: Path,
                spans: Spans) -> tuple[list[dict], list[str], int]:
    """Returns (per-graph counts, labels whose bytes differ from the reference,
    comparisons made)."""
    import numpy as np
    from netclass import (LabeledDataset, evaluate, generate, read_feature_csv,
                          write_edge_list, write_feature_csv)
    from netclass.generators import write_manifest

    seed = pipe.seed
    data = out / "data"
    data.mkdir(parents=True)
    checks: dict[str, bool] = {}
    graphs: list[dict] = []
    feats: dict[str, list] = {ext: [] for ext in pipe.features_run}
    rows = pipe.wl.graph_rows(seed, pipe.smoke)
    labels = [r.label for r in rows]
    names = [r.filename() for r in rows]
    for row, name in zip(rows, names):
        with spans.span("generators.generate_s", name, row.label):
            g = generate(row.spec)
        with spans.span("graph.write_edge_list_s", name, row.label):
            write_edge_list(g, data / name)
    write_manifest(rows, names, data / MANIFEST)
    checks["setup"] = sha256([data / MANIFEST] + [data / n for n in names]) == ref["setup"]
    for index, (row, name) in enumerate(zip(rows, names)):
        with spans.span("graph", name, row.label):
            counts, values = _trace_graph(data / name, row.label, seed, index, spans)
        graphs.append(counts)
        for ext in pipe.features_run:
            feats[ext].append(values[ext].tolist())
    for ext in pipe.features_run:
        csv = out / csv_name(ext)
        with spans.span("features.csv_write_s", csv.name, ext):
            write_feature_csv(csv, labels, np.array(feats[ext], dtype=np.float64))
        checks[f"features {ext}"] = sha256([csv]) == ref[f"features {ext}"]
    for ext, clf in pipe.classify_run:
        csv = ref_dir / csv_name(ext)
        with spans.span("features.csv_read_s", csv.name, ext):
            row_labels, x = read_feature_csv(csv)
        with spans.span(f"classify.{clf}_cv_s", csv.name, ext), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # fold-count reduction notice
            report = evaluate(LabeledDataset(x, tuple(row_labels), extractor=ext),
                              classifier=clf, seed=seed)
        label = f"classify {ext} {clf}"
        checks[label] = sha256_text(report.to_json()) == ref[label]
    return graphs, [label for label, same in checks.items() if not same], len(checks)


def pool_work(extractors, spans: Spans) -> float:
    """In-process seconds of the work the features stages do: per extractor,
    reading every graph, its sorted image when the extractor reads one, the
    extractor itself, and the CSV write."""
    work = 0.0
    for ext in extractors:
        work += sum(spans.durations("features.csv_write_s", ext))
        work += spans.total("graph.read_edge_list_s") + spans.total(EXTRACTOR_SPANS[ext])
        if ext in ("projection", "hu", "clbp"):
            work += spans.total("ordering.sorted_adjacency_s")
    return work


def span_cost() -> float:
    """Seconds an empty span takes to enter and exit: the median over
    SPAN_COST_BATCHES batches of SPAN_COST_SAMPLES spans each."""
    per_batch = []
    for _ in range(SPAN_COST_BATCHES):
        spans = Spans()
        start = time.perf_counter()
        for _ in range(SPAN_COST_SAMPLES):
            with spans.span("empty", "item", "group"):
                pass
        per_batch.append((time.perf_counter() - start) / SPAN_COST_SAMPLES)
    return statistics.median(per_batch)


def _largest_graph(data: Path):
    """``(edge-list path, n)`` of the graph with the most nodes, then the
    largest file; None when the workload has no graphs."""
    try:
        lines = (data / MANIFEST).read_text(encoding="utf-8").splitlines()[1:]
    except OSError:
        return None
    fields = [line.split(",") for line in lines if line]
    best = max(fields, key=lambda f: (int(f[3]), (data / f[0]).stat().st_size), default=None)
    return (data / best[0], int(best[3])) if best else None


def probe_rss(pipe: Pipeline, ref_dir: Path, stages: list[Stage]) -> dict[str, dict]:
    """Peak RSS of each probed layer in a fresh child on the workload's
    largest input, beside the computed size of its dense array."""
    largest = _largest_graph(ref_dir / "data")
    csvs = [ref_dir / csv_name(ext) for ext, _ in pipe.classify_run]
    widest = max((c for c in csvs if c.is_file()), key=lambda c: c.stat().st_size, default=None)
    rss: dict[str, dict] = {}
    for prefix, layer, cell in [("cli.baseline", "baseline", 0), *RSS_PROBES]:
        if layer == "baseline":
            target, dense = None, 0
        elif layer == "svm":
            target = widest
            dense = pipe.rows * _csv_width(widest) * 8 if widest else 0
        else:
            target, n = largest if largest else (None, 0)
            dense = n * n * cell
        if target is None and layer != "baseline":  # no such input in this workload
            rss[prefix] = {"peak_rss_mb": 0.0, "dense_mb": 0.0, "input": None}
            continue
        argv = child_argv("probe", layer, target or "-")
        stage = pipe.run_stage(argv, f"probe {layer}", "probe")[0]
        stages.append(stage)
        rss[prefix] = {"peak_rss_mb": stage.rss_mb, "dense_mb": dense / MB,
                       "input": target.name if target else None}
    return rss


def run(pipe: Pipeline, work: Path, env: dict):
    """The traced run; returns (metrics, units, attempted, failed, ok)."""
    stages: list[Stage] = [pipe.startup() for _ in range(STARTUP_SAMPLES)]
    ref_dir = work / "reference"
    ref_pass = pipe.run_pass(ref_dir)
    stages += ref_pass.stages
    for stage in ref_pass.stages:
        print(f"reference {stage.label:<34} {stage.wall_s:9.4f} s (x{stage.runs}) "
              f"{stage.rss_mb:8.1f} MB "
              f"sha256={stage.digest or '-'} {'ok' if stage.ok else 'FAILED ' + stage.error}")
    ref_metrics = ref_pass.metrics()
    for name, value in ref_metrics.items():
        print(f"reference e2e {name:<12} {value:12.4f}")
    ref = {s.label: s.digest for s in ref_pass.stages}
    # Probes run before this process imports numpy, so their peak RSS is their own.
    rss = probe_rss(pipe, ref_dir, stages)

    spans = Spans()
    graphs: list[dict] = []
    mismatched: list[str] = []
    compared = 0
    crashed = False
    try:
        with spans.span("pass"):
            graphs, mismatched, compared = traced_pass(pipe, ref, ref_dir, work / "traced", spans)
    except Exception:  # a layer raised: report it as a failure and keep the partial trace
        traceback.print_exc()
        crashed = True
    for label in mismatched:
        print(f"FAILED traced {label!r} bytes differ from the reference pass")

    summary = spans.summary()
    written = [work / "traced" / csv_name(ext) for ext in pipe.features_run]
    workers = int(env["netclass_threads"])
    tracing_s = span_cost() * len(spans.records)
    metrics = {name: spans.total(name) for name in TIME_SPANS}
    metrics.update({
        "metrics.bfs_levels": sum(c["bfs_levels"] for c in graphs),
        "metrics.components": sum(c["components"] for c in graphs),
        "ordering.relabel_changed": sum(c["relabel_changed"] for c in graphs),
        "features.csv_bytes": sum(p.stat().st_size for p in written if p.is_file()),
        "cli.startup_s": statistics.median(s.wall_s for s in stages[:STARTUP_SAMPLES]),
        "cli.pool_efficiency": pool_work(pipe.features_run, spans)
        / (workers * ref_metrics["features_s"]),
        "trace.overhead_pct": 100.0 * tracing_s / (spans.total("pass") - tracing_s),
    })
    for prefix, _, _ in RSS_PROBES:
        metrics[f"{prefix}.peak_rss_mb"] = rss[prefix]["peak_rss_mb"]
        metrics[f"{prefix}.computed_dense_mb"] = rss[prefix]["dense_mb"]

    for name in TIME_SPANS:
        s = summary.get(name)
        if s:
            print(f"layer {name:<28} sum {s['sum']:10.4f} s  self {s['self_sum']:10.4f} s  "
                  f"p50 {s['p50']:9.5f}  p90 {s['p90']:9.5f}  n {s['n']}")
            for group, g in s["by_group"].items():
                print(f"layer {name:<28}   {group:<10} sum {g['sum']:10.4f} s  "
                      f"p50 {g['p50']:9.5f}  p90 {g['p90']:9.5f}  n {g['n']}")
    for c in graphs:
        print("graph " + " ".join(f"{k}={v}" for k, v in c.items()))
    for prefix, r in rss.items():
        print(f"rss {prefix:<28} peak {r['peak_rss_mb']:8.1f} MB  computed dense "
              f"{r['dense_mb']:8.1f} MB  on {r['input']}")

    failed = sum(not s.ok for s in stages) + len(mismatched) + crashed
    detail = {"env": env, "reference_pass": ref_metrics, "spans": summary, "graphs": graphs,
              "rss": rss, "mismatched": mismatched, "metrics": metrics}
    trace_dir = ROOT / ".perfbench_work"
    stem = f"{pipe.wl.name}-seed{pipe.seed}"
    (trace_dir / f"trace-{stem}.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in spans.records), encoding="utf-8")
    (trace_dir / f"detail-{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(f"spans and detail written to {trace_dir}/{{trace,detail}}-{stem}.*")
    sys.stdout.flush()
    attempted = len(stages) + compared + crashed
    return metrics, PER_LAYER_UNITS, attempted, failed, failed == 0


def _csv_width(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return fh.readline().count(",")
