"""netclass: classify complex networks from canonically sorted adjacency
matrices.

The pipeline: generate or ingest undirected simple graphs, sort each
adjacency matrix by node degree (betweenness tie-break), treat the sorted
matrix as a binary image, extract fixed-length descriptors, and evaluate
1-NN / linear-SVM classification under stratified cross-validation.

Each public name, and each submodule (``netclass.metrics``), is imported on
first access (PEP 562), so a process loads only the modules it uses:
``import netclass`` loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "DatasetError": "classify",
    "ExperimentReport": "classify",
    "LabeledDataset": "classify",
    "evaluate": "classify",
    "FeatureError": "features",
    "clbp_features": "features",
    "hu_moments": "features",
    "projection": "features",
    "read_feature_csv": "features",
    "render_pgm": "features",
    "write_feature_csv": "features",
    "GenSpec": "generators",
    "InvalidSpecError": "generators",
    "generate": "generators",
    "preset_rows": "generators",
    "Graph": "graph",
    "GraphInputError": "graph",
    "adjacency_matrix": "graph",
    "degree_vector": "graph",
    "from_edge_list": "graph",
    "read_edge_list": "graph",
    "write_edge_list": "graph",
    "DisconnectedGraphError": "metrics",
    "UndefinedMetricError": "metrics",
    "all_pairs_distances": "metrics",
    "assortativity_scalar": "metrics",
    "avg_neighbor_degree": "metrics",
    "betweenness": "metrics",
    "closeness": "metrics",
    "clustering": "metrics",
    "diameter": "metrics",
    "eccentricity": "metrics",
    "metric_histogram": "metrics",
    "structural_features": "metrics",
    "node_ranking": "ordering",
    "sorted_adjacency": "ordering",
}
# the submodules ``import netclass`` bound before its names were lazy
_SUBMODULES = {*_EXPORTS.values(), "rng"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
