"""Graph substrate: representations, builders, generators, datasets."""

from .builders import (
    build_graph,
    build_graph_streamed,
    compact_vertices,
    from_pairs,
)
from .coo import EdgeList, dedup, remove_self_loops, symmetrize
from .csr import CSRGraph
from .datasets import (
    ALL_DATASET_NAMES,
    DATASETS,
    LARGE_DATASET_NAMES,
    POWER_LAW_DATASET_NAMES,
    ROAD_DATASET_NAMES,
    DatasetSpec,
    extract_giant_component,
)
from .generators import (
    barabasi_albert_graph,
    chung_lu_graph,
    cycle_graph,
    disjoint_union,
    erdos_renyi_graph,
    path_graph,
    rmat_graph,
    road_network_graph,
    star_graph,
    with_dust_components,
    with_tendrils,
)
from .io import save_csr_npz, save_edge_list_text
from .properties import (
    DegreeStats,
    component_labels_reference,
    component_sizes,
    degree_stats,
    estimate_diameter,
    giant_component_fraction,
    is_skewed,
    max_degree_component_fraction,
)
from .source import GraphSource, load

__all__ = [
    "GraphSource",
    "load",
    "EdgeList",
    "CSRGraph",
    "build_graph",
    "build_graph_streamed",
    "from_pairs",
    "compact_vertices",
    "dedup",
    "symmetrize",
    "remove_self_loops",
    "DegreeStats",
    "degree_stats",
    "is_skewed",
    "component_labels_reference",
    "component_sizes",
    "giant_component_fraction",
    "max_degree_component_fraction",
    "estimate_diameter",
    "DatasetSpec",
    "DATASETS",
    "ALL_DATASET_NAMES",
    "POWER_LAW_DATASET_NAMES",
    "ROAD_DATASET_NAMES",
    "LARGE_DATASET_NAMES",
    "extract_giant_component",
    "save_edge_list_text",
    "save_csr_npz",
    "rmat_graph",
    "chung_lu_graph",
    "barabasi_albert_graph",
    "erdos_renyi_graph",
    "road_network_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "disjoint_union",
    "with_dust_components",
    "with_tendrils",
]
