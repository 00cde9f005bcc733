"""Graph serialization: whitespace edge-list text and .npz binary.

Text format is one ``u v`` pair per line with ``#`` comments — the same
shape as SNAP / KONECT / NetworkRepository downloads, so real datasets
drop in unchanged if available.  The .npz format stores the CSR arrays
directly and round-trips losslessly.

Graph ingestion goes through the one front door,
:func:`repro.graph.load`, which dispatches on the source kind —
in-memory CSR, COO edge list, dataset name, serialized file, or
out-of-core blocked file — and reaches the private ``_load_*`` readers
here through :func:`_load_file`.  The savers are public (there is
exactly one writer per format).
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from .builders import build_graph
from .coo import EdgeList
from .csr import CSRGraph

__all__ = [
    "save_edge_list_text",
    "save_csr_npz",
    "save_matrix_market",
]


def _load_edge_list_text(path: str | os.PathLike | io.TextIOBase,
                         *, num_vertices: int | None = None) -> EdgeList:
    if isinstance(path, io.TextIOBase):
        text = path.read()
    else:
        text = Path(path).read_text()
    rows: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        parts = stripped.split()
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        rows.append((int(parts[0]), int(parts[1])))
    if not rows:
        return EdgeList(np.empty(0, np.int64), np.empty(0, np.int64),
                        int(num_vertices or 0))
    arr = np.asarray(rows, dtype=np.int64)
    n = int(num_vertices) if num_vertices is not None else int(arr.max()) + 1
    return EdgeList(arr[:, 0], arr[:, 1], n)



def save_edge_list_text(edges: EdgeList,
                        path: str | os.PathLike,
                        *, header: str | None = None) -> None:
    """Write an edge list as text; ``header`` becomes a ``#`` comment."""
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        np.savetxt(fh, np.column_stack([edges.src, edges.dst]), fmt="%d")


def save_csr_npz(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Binary CSR snapshot (compressed npz)."""
    np.savez_compressed(path, indptr=graph.indptr, indices=graph.indices)


def _load_csr_npz(path: str | os.PathLike) -> CSRGraph:
    with np.load(path) as data:
        return CSRGraph(data["indptr"], data["indices"])



def _load_matrix_market(path: str | os.PathLike | io.TextIOBase
                        ) -> EdgeList:
    if isinstance(path, io.TextIOBase):
        lines = path.read().splitlines()
    else:
        lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ValueError("missing %%MatrixMarket header")
    header = lines[0].split()
    if len(header) < 5 or header[1] != "matrix" \
            or header[2] != "coordinate":
        raise ValueError(f"unsupported MatrixMarket type: {lines[0]!r}")
    symmetric = header[4] == "symmetric"
    body = [ln for ln in lines[1:]
            if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ValueError("missing size line")
    size = body[0].split()
    rows_n, cols_n = int(size[0]), int(size[1])
    n = max(rows_n, cols_n)
    src_list: list[int] = []
    dst_list: list[int] = []
    for ln in body[1:]:
        parts = ln.split()
        u, v = int(parts[0]) - 1, int(parts[1]) - 1
        src_list.append(u)
        dst_list.append(v)
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    if symmetric:
        keep = src != dst
        src, dst = (np.concatenate([src, dst[keep]]),
                    np.concatenate([dst, src[keep]]))
    return EdgeList(src, dst, n)



def save_matrix_market(edges: EdgeList, path: str | os.PathLike,
                       *, comment: str | None = None) -> None:
    """Write a 1-indexed general pattern MatrixMarket file."""
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        n = edges.num_vertices
        fh.write(f"{n} {n} {edges.num_edges}\n")
        np.savetxt(fh, np.column_stack([edges.src + 1, edges.dst + 1]),
                   fmt="%d")


def _load_konect(path: str | os.PathLike | io.TextIOBase) -> EdgeList:
    if isinstance(path, io.TextIOBase):
        text = path.read()
    else:
        text = Path(path).read_text()
    rows: list[tuple[int, int]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        rows.append((int(parts[0]) - 1, int(parts[1]) - 1))
    if not rows:
        return EdgeList(np.empty(0, np.int64), np.empty(0, np.int64), 0)
    arr = np.asarray(rows, dtype=np.int64)
    if arr.min() < 0:
        raise ValueError("KONECT ids must be 1-based")
    return EdgeList(arr[:, 0], arr[:, 1], int(arr.max()) + 1)



def _load_file(path: str | os.PathLike, **build_kwargs) -> CSRGraph:
    """Extension-dispatched file loader (the front door's file leg).

    ``.npz`` -> binary CSR; ``.mtx`` -> MatrixMarket; files whose name
    starts with ``out.`` -> KONECT; anything else -> whitespace edge
    list.
    """
    p = Path(path)
    if p.suffix == ".npz":
        return _load_csr_npz(p)
    if p.suffix == ".mtx":
        return build_graph(_load_matrix_market(p), **build_kwargs)
    if p.name.startswith("out."):
        return build_graph(_load_konect(p), **build_kwargs)
    return build_graph(_load_edge_list_text(p), **build_kwargs)
