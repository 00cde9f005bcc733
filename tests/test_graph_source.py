"""Tests for the unified ``repro.graph.load`` front door."""

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    GraphSource,
    build_graph,
    from_pairs,
    load,
    save_csr_npz,
    save_edge_list_text,
)
from repro.graph.generators import star_graph
from repro.storage import write_blocked


@pytest.fixture()
def graph():
    return star_graph(5)


class TestInfer:
    def test_graph_passthrough(self, graph):
        assert GraphSource.infer(graph).kind == "graph"

    def test_edge_list(self):
        edges = from_pairs([(0, 1), (1, 2)])
        assert GraphSource.infer(edges).kind == "edges"

    def test_pairs_array(self):
        assert GraphSource.infer([(0, 1), (1, 2)]).kind == "edges"
        assert GraphSource.infer(
            np.array([[0, 1], [1, 2]])).kind == "edges"

    def test_src_dst_tuple(self):
        src = np.array([0, 1])
        dst = np.array([1, 2])
        assert GraphSource.infer((src, dst)).kind == "edges"

    def test_dataset_name(self):
        assert GraphSource.infer("Pkc").kind == "dataset"

    def test_file_path(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        save_csr_npz(graph, path)
        assert GraphSource.infer(str(path)).kind == "file"

    def test_blocked_path(self, graph, tmp_path):
        path = tmp_path / "g.rbcsr"
        write_blocked(graph, path)
        assert GraphSource.infer(str(path)).kind == "blocked"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="not a known dataset"):
            GraphSource.infer("no-such-thing")

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            GraphSource.infer(3.14)

    def test_source_passthrough(self, graph):
        src = GraphSource.infer(graph)
        assert GraphSource.infer(src) is src


class TestLoad:
    def test_graph_identity(self, graph):
        assert load(graph) is graph

    def test_dataset_memoized(self):
        assert load("Pkc", 0.2) is load("Pkc", 0.2)

    def test_edges(self):
        g = load([(0, 1), (1, 2), (3, 4)])
        assert isinstance(g, CSRGraph)
        assert g.num_vertices == 5
        assert g.num_undirected_edges == 3

    def test_src_dst_pair(self):
        g = load((np.array([0, 1]), np.array([1, 2])))
        assert g.num_undirected_edges == 2

    def test_npz_file(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        save_csr_npz(graph, path)
        g = load(str(path))
        assert np.array_equal(g.indices, graph.indices)

    def test_text_file(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list_text(graph.to_edge_list(), path)
        g = load(str(path))
        assert np.array_equal(g.indices, graph.indices)

    def test_blocked_file(self, graph, tmp_path):
        path = tmp_path / "g.rbcsr"
        write_blocked(graph, path)
        g = load(str(path), resident_bytes=1 << 16)
        assert hasattr(g, "block_cache")
        assert g.resident_bytes == 1 << 16
        assert np.array_equal(np.asarray(g.indices), graph.indices)
        g.close()

    def test_num_vertices_forwarded(self):
        g = load([(0, 1)], num_vertices=10, drop_zero_degree=False)
        assert g.num_vertices == 10

    def test_build_kwargs_forwarded(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("0 0\n0 1\n")
        g = load(str(path))
        assert not g.has_edge(0, 0)     # self-loops dropped by default


class TestEquivalence:
    """One content, four doors: every spelling yields the same graph."""

    def test_all_sources_agree(self, tmp_path):
        base = load("Pkc", 0.2)
        npz = tmp_path / "pkc.npz"
        save_csr_npz(base, npz)
        rbcsr = tmp_path / "pkc.rbcsr"
        write_blocked(base, rbcsr)
        from_npz = load(str(npz))
        from_blocked = load(str(rbcsr))
        try:
            assert np.array_equal(from_npz.indices, base.indices)
            assert np.array_equal(np.asarray(from_blocked.indices),
                                  base.indices)
        finally:
            from_blocked.close()

    def test_edges_source_round_trip(self):
        g = build_graph(from_pairs([(0, 1), (1, 2), (2, 0)]))
        g2 = load(g.to_edge_list())
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)
