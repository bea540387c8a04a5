"""netclass: classify complex networks from canonically sorted adjacency
matrices.

The pipeline: generate or ingest undirected simple graphs, sort each
adjacency matrix by node degree (betweenness tie-break), treat the sorted
matrix as a binary image, extract fixed-length descriptors, and evaluate
1-NN / linear-SVM classification under stratified cross-validation.
"""

from .classify import (
    DatasetError,
    ExperimentReport,
    LabeledDataset,
    auc_ovr,
    evaluate,
    stratified_kfold,
    svm_train,
)
from .features import (
    FeatureError,
    clbp_features,
    hu_moments,
    projection,
    read_feature_csv,
    render_pgm,
    write_feature_csv,
)
from .generators import (
    GenSpec,
    InvalidSpecError,
    generate,
    preset_rows,
)
from .graph import (
    Graph,
    GraphInputError,
    adjacency_matrix,
    degree_vector,
    from_edge_list,
    read_edge_list,
    write_edge_list,
)
from .metrics import (
    DisconnectedGraphError,
    UndefinedMetricError,
    all_pairs_distances,
    assortativity_scalar,
    avg_neighbor_degree,
    betweenness,
    closeness,
    clustering,
    diameter,
    eccentricity,
    metric_histogram,
    structural_features,
)
from .ordering import node_ranking, sorted_adjacency

__version__ = "0.1.0"

__all__ = [
    "DatasetError",
    "DisconnectedGraphError",
    "ExperimentReport",
    "FeatureError",
    "GenSpec",
    "Graph",
    "GraphInputError",
    "InvalidSpecError",
    "LabeledDataset",
    "UndefinedMetricError",
    "adjacency_matrix",
    "all_pairs_distances",
    "assortativity_scalar",
    "auc_ovr",
    "avg_neighbor_degree",
    "betweenness",
    "clbp_features",
    "closeness",
    "clustering",
    "degree_vector",
    "diameter",
    "eccentricity",
    "evaluate",
    "from_edge_list",
    "generate",
    "hu_moments",
    "metric_histogram",
    "node_ranking",
    "preset_rows",
    "projection",
    "read_edge_list",
    "read_feature_csv",
    "render_pgm",
    "sorted_adjacency",
    "stratified_kfold",
    "structural_features",
    "svm_train",
    "write_edge_list",
    "write_feature_csv",
]
