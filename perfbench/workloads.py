"""The benchmark's workloads and the inputs each one generates from a seed.

Graph inputs are cells of the package's own dataset presets, so a workload's
graphs are exactly what ``netclass gen`` writes for the same seed.  netclass
itself is imported lazily: ``run.py`` must be able to start (and
refuse to run) in a directory that does not hold the package.
"""

from __future__ import annotations

from dataclasses import dataclass

# Feature width of each extractor the workloads run, without the label.
EXTRACTOR_WIDTHS = {"projection": 2500, "hu": 7, "clbp": 200, "structural:combined": 3001}

# (model, mean degree) cells of deep-structural.  GEO runs at k=8: at k=4
# it sits at its percolation threshold, and at k=6 its BFS depth still swings
# from 32 to 61 levels between seeds at n=500 (a ten-seed spread of 0.12 in
# summed depth); at k=8 it stays at 25 to 41 levels (a spread of 0.04).
DEEP_CELLS = (("WS", 4), ("GEO", 8))
# Graph size of deep-structural.  At n=1000 a pass took 18 s, so a 50-second
# run held two passes, and the ten-seed spread of total_s reached 0.25-0.29
# of its median; at n=500 a run holds five or six passes.
DEEP_N = 500
# Graphs per class of deep-structural.  Twelve graphs average the
# seed-to-seed depth differences of single graphs.
DEEP_REPLICATES = 6
# BLAS threads of every workload.  With two on a 2-vCPU host,
# deep-structural's five-seed spread of features_s was 0.12 of the median,
# against 0.09 with one.
BLAS_THREADS = 1
# Graphs per class of scalefree-pool and of deep-structural's smoke size: the
# fewest that cross-validation accepts.
REPLICATES = 2


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and the CLI stages one pass runs over them.

    ``setup`` is ``gen:<preset>`` (the ``netclass gen`` stage with
    ``--count``) or ``deep`` (cells of the synthetic-full grid, written by
    the benchmark through the package's generator and edge-list writer).
    ``pool`` selects two feature workers; otherwise one process does the
    work.

    The smoke size, which the benchmark's own tests run, keeps only the
    first extractor and the classify stages on it, and writes REPLICATES
    deep graphs per class instead of DEEP_REPLICATES.
    """

    name: str
    why: str
    setup: str
    features: tuple[str, ...]
    classify: tuple[tuple[str, str], ...]
    pool: bool = False

    def workers(self, nproc: int) -> int:
        """``NETCLASS_THREADS`` on a machine with ``nproc`` cores."""
        return min(2, nproc) if self.pool else 1

    def stages(self, smoke: bool) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
        """``(extractors, (extractor, classifier) pairs)`` one pass runs."""
        if not smoke:
            return self.features, self.classify
        first = self.features[0]
        return (first,), tuple(c for c in self.classify if c[0] == first)

    def replicates(self, smoke: bool) -> int:
        """Graphs per class."""
        return DEEP_REPLICATES if self.setup == "deep" and not smoke else REPLICATES

    def expected_rows(self, smoke: bool) -> int:
        per_rep = {"gen:scalefree-desk": 5, "deep": len(DEEP_CELLS)}
        return per_rep[self.setup] * self.replicates(smoke)

    def graph_rows(self, seed: int, smoke: bool):
        """The workload's graphs as :class:`netclass.generators.DatasetRow`."""
        from netclass.generators import preset_rows

        if self.setup.startswith("gen:"):
            return preset_rows(self.setup[4:], seed, count_override=self.replicates(smoke))
        return [
            r for r in preset_rows("synthetic-full", seed, count_override=self.replicates(smoke))
            if (r.spec.model, r.spec.k_bar) in DEEP_CELLS and r.spec.n == DEEP_N
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scalefree-pool",
            why="BA/DM n=1000 at BFS depth 3-5 over two feature workers; the shallow case a deep-graph kernel must not slow",
            setup="gen:scalefree-desk",
            features=("projection", "hu", "clbp"),
            classify=(("projection", "knn"), ("hu", "knn"), ("clbp", "knn")),
            pool=True,
        ),
        Workload(
            name="deep-structural",
            why="WS k=4 and GEO k=8 at n=500, structural+SVM; 14-41 BFS levels make the shortest-path kernel nearly all the time",
            setup="deep",
            features=("structural:combined",),
            classify=(("structural:combined", "svm"),),
        ),
    )
}
