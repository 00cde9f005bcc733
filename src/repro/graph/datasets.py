"""Surrogate registry for the paper's 17 evaluation datasets (Table II).

The paper evaluates on real graphs from KONECT / NetworkRepository /
LAW, up to 1.7 B vertices and 15.6 B edges.  Those inputs are not
available offline and do not fit a laptop; per DESIGN.md each dataset
is replaced by a *synthetic surrogate* that matches the structural
properties Thrifty's optimizations depend on:

* skew — power-law datasets use RMAT or Chung-Lu with a heavy tail;
  roads use perturbed lattices with degree in {2..4};
* giant component — surrogates reproduce the ">94% of vertices in the
  hub's component" premise (validated by Experiment T1);
* component count character — |CC| = 1 datasets are cut to their giant
  component; crawls with many components get dust components attached;
* relative size ordering — surrogate |V| scales with the paper's |V|
  (heavily compressed: ~2^10 smaller) so "large graph" trends survive.

Every spec records the paper's original |V| (millions), |E| (billions)
and |CC| for EXPERIMENTS.md comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .csr import CSRGraph
from .generators import (
    barabasi_albert_graph,
    chung_lu_graph,
    rmat_graph,
    road_network_graph,
    with_dust_components,
    with_tendrils,
)
from .properties import component_labels_reference

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "ALL_DATASET_NAMES",
    "POWER_LAW_DATASET_NAMES",
    "ROAD_DATASET_NAMES",
    "LARGE_DATASET_NAMES",
    "extract_giant_component",
]


def extract_giant_component(graph: CSRGraph) -> CSRGraph:
    """Restrict a graph to its largest connected component, relabelled."""
    labels = component_labels_reference(graph)
    if labels.size == 0:
        return graph
    giant = np.argmax(np.bincount(labels))
    keep = np.flatnonzero(labels == giant)
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size, dtype=np.int64)
    # Slice CSR rows directly: all neighbours of kept vertices are kept.
    degs = graph.degrees[keep]
    indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(degs, out=indptr[1:])
    # Output slot i of row r reads input slot
    # graph.indptr[keep[r]] + (i - indptr[r]): one repeat of the shifts.
    pos = (np.repeat(graph.indptr[keep] - indptr[:-1], degs)
           + np.arange(int(indptr[-1]), dtype=np.int64))
    indices = remap[graph.indices[pos]]
    return CSRGraph(indptr, indices)


@dataclass(frozen=True)
class DatasetSpec:
    """One Table II dataset and its surrogate recipe."""

    name: str
    full_name: str
    kind: str              # "road" | "social" | "web" | "knowledge"
    power_law: bool
    paper_vertices_m: float
    paper_edges_b: float
    paper_cc: int
    builder: Callable[[float], CSRGraph]

    def build(self, scale: float = 1.0) -> CSRGraph:
        """Materialize the surrogate; ``scale`` shrinks/grows |V|."""
        return self.builder(scale)


def _giant(graph: CSRGraph) -> CSRGraph:
    return extract_giant_component(graph)


def _social(n: int, scale: float, *, seed: int, avg_degree: float = 16.0,
            exponent: float = 2.1, single_component: bool,
            dust: int = 0, tendril_depth: tuple[int, int] = (4, 14)
            ) -> CSRGraph:
    """Chung-Lu-based social-network surrogate.

    Hub weights are capped at the structural cutoff (~3 sqrt(n)) so the
    maximum degree is a few percent of |V|, as in real social graphs,
    and path tendrils are attached to recover the effective diameter
    (and hence the DO-LP iteration counts) of the paper's datasets.
    """
    nv = max(int(n * scale), 64)
    g = chung_lu_graph(nv, avg_degree, exponent=exponent,
                       max_weight=3.0 * np.sqrt(nv), seed=seed)
    if single_component:
        g = _giant(g)
    g = with_tendrils(g, max(g.num_vertices // 40, 1),
                      min_depth=tendril_depth[0],
                      max_depth=tendril_depth[1],
                      permute_fraction=0.4, seed=seed + 7000)
    if dust:
        g = with_dust_components(g, max(int(dust * scale), 1), seed=seed)
    return g


def _web(scale_bits: int, scale: float, *, seed: int,
         edge_factor: int = 12, dust: int = 0,
         single_component: bool = False,
         tendril_depth: tuple[int, int] = (10, 40),
         tendril_permute: float = 0.3,
         tendril_divisor: int = 60) -> CSRGraph:
    """RMAT-based web-crawl surrogate (higher skew than Chung-Lu).

    Web crawls have much longer whiskers than social networks (page
    chains), which is why the paper's web graphs need tens to hundreds
    of LP iterations; ``tendril_depth`` controls that.
    """
    bits = scale_bits
    # `scale` shrinks by whole powers of two (RMAT vertex count is 2^bits).
    while scale < 0.75 and bits > 6:
        bits -= 1
        scale *= 2
        dust = max(dust // 2, 1)   # keep the dust share proportional
    g = rmat_graph(bits, edge_factor, seed=seed)
    if single_component:
        g = _giant(g)
    g = with_tendrils(g, max(g.num_vertices // tendril_divisor, 1),
                      min_depth=tendril_depth[0],
                      max_depth=tendril_depth[1],
                      permute_fraction=tendril_permute, seed=seed + 7000)
    if dust:
        g = with_dust_components(g, dust, seed=seed)
    return g


def _road(rows: int, cols: int, scale: float, *, seed: int,
          permute: float = 0.25) -> CSRGraph:
    s = float(np.sqrt(scale))
    return road_network_graph(max(int(rows * s), 8), max(int(cols * s), 8),
                              permute_fraction=permute, seed=seed)


# Registry ordered as in Table II.  Surrogate sizes compress the paper's
# |V| by roughly 2^10 while preserving the ordering between datasets.
DATASETS: dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    if spec.name in DATASETS:
        raise ValueError(f"duplicate dataset {spec.name}")
    DATASETS[spec.name] = spec


# Road grids are stretched (high aspect ratio): compressing the paper's
# 8M/24M-vertex road networks ~2^10x would otherwise compress their
# diameter ~32x, erasing the many-iterations behaviour that makes
# label propagation lose on roads.  The skinny grids keep diameter in
# the hundreds-to-thousands range the cost contrast depends on.
_register(DatasetSpec(
    "GBRd", "GB Roads (surrogate)", "road", False, 8, 0.016, 1,
    lambda s: _road(420, 20, s, seed=101)))
_register(DatasetSpec(
    "USRd", "US Roads (surrogate)", "road", False, 24, 0.058, 1,
    lambda s: _road(1900, 12, s, seed=102, permute=0.1)))
_register(DatasetSpec(
    "Pkc", "Pokec (surrogate)", "social", True, 1.6, 0.044, 1,
    lambda s: barabasi_albert_graph(max(int(3_000 * s), 64), 12, seed=103)))
_register(DatasetSpec(
    "WWiki", "War Wikipedia (surrogate)", "knowledge", True, 2, 0.052, 1245,
    lambda s: _social(3_500, s, seed=104, avg_degree=24, exponent=2.3,
                      single_component=False, dust=40)))
_register(DatasetSpec(
    "LJLnks", "LiveJournal links (surrogate)", "social", True, 5, 0.098, 4945,
    lambda s: _social(8_000, s, seed=105, avg_degree=18,
                      single_component=False, dust=80)))
_register(DatasetSpec(
    "LJGrp", "LiveJournal groups (surrogate)", "social", True, 7, 0.225, 1,
    lambda s: _social(10_000, s, seed=106, avg_degree=30,
                      single_component=True)))
_register(DatasetSpec(
    "Twtr10", "Twitter 2010 (surrogate)", "social", True, 21, 0.530, 1,
    lambda s: _social(20_000, s, seed=107, avg_degree=24, exponent=2.0,
                      single_component=True)))
_register(DatasetSpec(
    "Twtr", "Twitter (surrogate)", "social", True, 28, 0.956, 31445,
    lambda s: _social(26_000, s, seed=108, avg_degree=28, exponent=2.0,
                      single_component=False, dust=250)))
_register(DatasetSpec(
    "Wbbs", "WebBase-2001 (surrogate)", "web", True, 115, 1.737, 236185,
    lambda s: _web(16, s, seed=109, edge_factor=8, dust=500,
                   tendril_depth=(40, 120), tendril_permute=0.12,
                   tendril_divisor=200)))
_register(DatasetSpec(
    "TwtrMpi", "Twitter-MPI (surrogate)", "social", True, 41, 2.405, 1,
    lambda s: _social(36_000, s, seed=110, avg_degree=32, exponent=2.0,
                      single_component=True)))
_register(DatasetSpec(
    "Frndstr", "Friendster (surrogate)", "social", True, 65, 3.612, 1,
    lambda s: _social(56_000, s, seed=111, avg_degree=28, exponent=2.2,
                      single_component=True)))
_register(DatasetSpec(
    "SK", "SK-Domain (surrogate)", "web", True, 50, 3.639, 45,
    lambda s: _web(15, s, seed=112, edge_factor=16, dust=45)))
_register(DatasetSpec(
    "WbCc", "Web-CC12 (surrogate)", "web", True, 89, 3.872, 464919,
    lambda s: _web(16, s, seed=113, edge_factor=10, dust=700)))
_register(DatasetSpec(
    "UKDls", "UK-Delis (surrogate)", "web", True, 110, 6.919, 80443,
    lambda s: _web(16, s, seed=114, edge_factor=14, dust=400)))
_register(DatasetSpec(
    "UU", "UK-Union (surrogate)", "web", True, 133, 9.359, 278716,
    lambda s: _web(17, s, seed=115, edge_factor=12, dust=700)))
_register(DatasetSpec(
    "UKDmn", "UK-Domain (surrogate)", "web", True, 105, 6.603, 14333,
    lambda s: _web(16, s, seed=116, edge_factor=16, dust=600)))
_register(DatasetSpec(
    "ClWb9", "ClueWeb09 (surrogate)", "web", True, 1685, 15.622, 5642809,
    lambda s: _web(17, s, seed=117, edge_factor=8, dust=900)))


ALL_DATASET_NAMES: tuple[str, ...] = tuple(DATASETS)
POWER_LAW_DATASET_NAMES: tuple[str, ...] = tuple(
    name for name, spec in DATASETS.items() if spec.power_law)
ROAD_DATASET_NAMES: tuple[str, ...] = tuple(
    name for name, spec in DATASETS.items() if not spec.power_law)
# Paper Section I: "graph datasets larger than one billion edges".
LARGE_DATASET_NAMES: tuple[str, ...] = tuple(
    name for name, spec in DATASETS.items() if spec.paper_edges_b >= 1.0)


@lru_cache(maxsize=64)
def _load_dataset(name: str, scale: float = 1.0) -> CSRGraph:
    """Build (and memoize) the surrogate for a Table II dataset.

    Internal: the public entry is :func:`repro.graph.load`, which
    dispatches dataset names here and shares this memo (so
    ``load(name, scale=s) is load(name, scale=s)``).
    """
    try:
        spec = DATASETS[name]
    except KeyError:
        known = ", ".join(DATASETS)
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None
    return spec.build(scale)
