"""One graph front door: :func:`load` / :class:`GraphSource`.

Every graph entering the system — API, CLI, service, tests — comes
through here.  ``load`` accepts any of:

* a :class:`~repro.graph.csr.CSRGraph` (returned as-is) or an
  out-of-core :class:`~repro.storage.BlockedGraph` (as-is, never
  materialized);
* a :class:`~repro.graph.coo.EdgeList` or a COO-ish value (an
  ``(src, dst)`` array pair or a sequence of ``(u, v)`` pairs),
  normalized through :func:`~repro.graph.builders.build_graph`;
* a Table II dataset name (``"Twtr"``, ``"GBRd"``, ...), built and
  memoized — repeated ``load(name, scale=s)`` calls return the *same*
  object;
* a file path: blocked-CSR (``.rbcsr`` / magic-sniffed — opened
  streaming, not materialized), ``.npz`` CSR snapshots, ``.mtx``
  MatrixMarket, KONECT ``out.*`` files, or whitespace edge-list text.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .builders import build_graph, from_pairs
from .coo import EdgeList
from .csr import CSRGraph
from .datasets import DATASETS, _load_dataset
from .io import _load_file

__all__ = ["GraphSource", "load"]

_BLOCKED_SUFFIX = ".rbcsr"


def _is_blocked_path(path: Path) -> bool:
    if path.suffix == _BLOCKED_SUFFIX:
        return True
    from ..storage import is_blocked_file
    return is_blocked_file(path)


@dataclass(frozen=True)
class GraphSource:
    """A classified graph source: ``kind`` + the raw ``value``.

    ``kind`` is one of ``"graph"`` (an in-memory or blocked graph
    object), ``"edges"`` (EdgeList / COO-ish value), ``"dataset"``
    (surrogate name), ``"file"`` (serialized graph file) or
    ``"blocked"`` (out-of-core blocked-CSR file).  Build one with
    :meth:`infer` (what :func:`load` uses) or directly when the kind
    is already known and a string is ambiguous.
    """

    kind: str
    value: Any

    _KINDS = ("graph", "edges", "dataset", "file", "blocked")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown source kind {self.kind!r}; one of {self._KINDS}")

    @classmethod
    def infer(cls, source: Any) -> "GraphSource":
        """Classify ``source`` (see module docstring for the rules)."""
        if isinstance(source, GraphSource):
            return source
        if isinstance(source, CSRGraph) or hasattr(source, "block_cache"):
            return cls("graph", source)
        if isinstance(source, EdgeList):
            return cls("edges", source)
        if isinstance(source, (str, os.PathLike)):
            text = os.fspath(source)
            if isinstance(text, str) and text in DATASETS:
                return cls("dataset", text)
            path = Path(text)
            if path.exists():
                if _is_blocked_path(path):
                    return cls("blocked", text)
                return cls("file", text)
            raise ValueError(
                f"cannot load graph source {text!r}: not a known dataset "
                f"name (one of {', '.join(DATASETS)}) and no such file")
        if isinstance(source, tuple) and len(source) == 2:
            return cls("edges", source)
        if isinstance(source, np.ndarray) or isinstance(source, (list,)):
            return cls("edges", source)
        raise TypeError(
            f"cannot load graph source of type {type(source).__name__}; "
            "expected a CSRGraph, BlockedGraph, EdgeList, (src, dst) "
            "arrays, a sequence of (u, v) pairs, a dataset name, or a "
            "file path")

    def resolve(self, *, scale: float = 1.0,
                num_vertices: int | None = None,
                resident_bytes: int | None = None,
                mode: str = "mmap", **build_kwargs):
        """Materialize the source into a graph object."""
        if self.kind == "graph":
            return self.value
        if self.kind == "edges":
            value = self.value
            if isinstance(value, EdgeList):
                return build_graph(value, **build_kwargs)
            if isinstance(value, tuple) and len(value) == 2 and \
                    not np.isscalar(value[0]):
                src = np.asarray(value[0], dtype=np.int64)
                dst = np.asarray(value[1], dtype=np.int64)
                n = num_vertices
                if n is None:
                    n = int(max(src.max(initial=-1),
                                dst.max(initial=-1))) + 1
                return build_graph(EdgeList(src, dst, n), **build_kwargs)
            return build_graph(from_pairs(value, num_vertices),
                               **build_kwargs)
        if self.kind == "dataset":
            return _load_dataset(self.value, scale)
        if self.kind == "blocked":
            from ..storage import BlockedGraph
            return BlockedGraph.open(self.value,
                                     resident_bytes=resident_bytes,
                                     mode=mode)
        return _load_file(self.value, **build_kwargs)


def load(source: Any, scale: float = 1.0, *,
         num_vertices: int | None = None,
         resident_bytes: int | None = None,
         mode: str = "mmap", **build_kwargs):
    """Load a graph from any supported source (see module docstring).

    ``scale`` applies to dataset names only; ``num_vertices`` to COO
    inputs whose vertex count is not implied; ``resident_bytes`` and
    ``mode`` to blocked files (the block-cache budget and reader
    mode); remaining keywords go to
    :func:`~repro.graph.builders.build_graph` for edge-list sources.
    Returns a :class:`CSRGraph`, or a
    :class:`~repro.storage.BlockedGraph` for blocked files (streamed,
    never materialized).
    """
    return GraphSource.infer(source).resolve(
        scale=scale, num_vertices=num_vertices,
        resident_bytes=resident_bytes, mode=mode, **build_kwargs)
