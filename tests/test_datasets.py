"""Tests for the Table II surrogate registry."""

import hashlib

from repro.graph import load
import numpy as np
import pytest

from repro.graph import (
    ALL_DATASET_NAMES,
    DATASETS,
    LARGE_DATASET_NAMES,
    POWER_LAW_DATASET_NAMES,
    ROAD_DATASET_NAMES,
    extract_giant_component,
    is_skewed,
    max_degree_component_fraction,
)
from repro.graph.generators import star_graph, with_dust_components


class TestRegistry:
    def test_all_17_table2_datasets_present(self):
        assert len(ALL_DATASET_NAMES) == 17

    def test_15_power_law_and_2_roads(self):
        assert len(POWER_LAW_DATASET_NAMES) == 15
        assert set(ROAD_DATASET_NAMES) == {"GBRd", "USRd"}

    def test_large_set_matches_paper(self):
        # Table II: datasets with >= 1B edges.
        assert "Wbbs" in LARGE_DATASET_NAMES
        assert "ClWb9" in LARGE_DATASET_NAMES
        assert "Pkc" not in LARGE_DATASET_NAMES

    def test_paper_metadata_recorded(self):
        spec = DATASETS["ClWb9"]
        assert spec.paper_vertices_m == 1685
        assert spec.paper_cc == 5642809

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="not a known dataset"):
            load("nope")


class TestSurrogateStructure:
    @pytest.mark.parametrize("name", ["Pkc", "WWiki", "Twtr", "SK"])
    def test_power_law_surrogates_are_skewed(self, name):
        assert is_skewed(load(name, 0.5))

    @pytest.mark.parametrize("name", ROAD_DATASET_NAMES)
    def test_road_surrogates_not_skewed(self, name):
        assert not is_skewed(load(name, 0.5))

    @pytest.mark.parametrize("name", ["Pkc", "LJLnks", "Twtr"])
    def test_giant_component_premise(self, name):
        """Table I: the hub's component holds >~94% of vertices."""
        g = load(name, 0.5)
        assert max_degree_component_fraction(g) > 0.90

    @pytest.mark.parametrize("name", ["Pkc", "LJGrp", "TwtrMpi"])
    def test_single_component_datasets(self, name):
        from repro.graph import component_sizes
        g = load(name, 0.25)
        assert len(component_sizes(g)) == 1

    def test_multi_component_dataset(self):
        from repro.graph import component_sizes
        g = load("WWiki", 0.5)
        assert len(component_sizes(g)) > 5

    def test_scale_shrinks(self):
        big = load("Pkc", 0.5)
        small = load("Pkc", 0.1)
        assert small.num_vertices < big.num_vertices

    def test_memoized(self):
        assert load("Pkc", 0.5) is load("Pkc", 0.5)


class TestExtractGiant:
    def test_star_identity(self):
        g = star_graph(5)
        g2 = extract_giant_component(g)
        assert g2.num_vertices == 6
        assert g2.num_edges == g.num_edges

    def test_drops_dust(self):
        g = with_dust_components(star_graph(20), 5, seed=1)
        g2 = extract_giant_component(g)
        assert g2.num_vertices == 21

    def test_edges_remapped_consistently(self):
        g = with_dust_components(star_graph(10), 2, seed=2)
        g2 = extract_giant_component(g)
        assert g2.degree(0) == 10
        assert np.array_equal(g2.neighbors(0), np.arange(1, 11))


#: sha256 over (dtype name, raw bytes) of ``indptr`` then ``indices`` of
#: every surrogate at scale 0.05.  Ingest rewrites must keep them.
SURROGATE_DIGESTS = {
    "GBRd": "e749f208c60a631fbee911dc76aec78118305bb355a962d33c74773f2be95fd9",
    "USRd": "54d181ab06e7bdcd9ac270458dcc8f32a7d782a54ea1b7f8454e7d1cd87869b5",
    "Pkc": "46f36208d1ffd90145c08b61ecbe0210278b5a62ceced5494e7f3b8f31fcfade",
    "WWiki": "12c5c99af6d94e7f846a1c3cfa77c9c07927436b24f72143e13aa40fc5c6cc77",
    "LJLnks": "26c61631a2bcee2c1713cd7644daec257adbf305a66cfd014b28fa406fc1acb4",
    "LJGrp": "ee03d02ce1bbd088746d47752cd81ead11fad54eb397ac31bfb247e428f50e08",
    "Twtr10": "8297d21406f1b7e906c367c4688ccb913eba91f2e4922fc8e5880c9ee2fbc47c",
    "Twtr": "125da6188f5870d327140d8e14cd35e13a0fe40a248e916c365748fb8e97775f",
    "Wbbs": "8d6a4e2989b721606d0291bb4d516e7f9a31eef32615e8750f09789d726803f6",
    "TwtrMpi": "0086db30bb491d307f589b065aefed18fdd9a760ca9e17f848b36d801381bd19",
    "Frndstr": "29db0cb07983acc1f3f496ba17c3ec3b67b969247946e19bd47a6784ad040b73",
    "SK": "97fff60ff353d657d2978b9053f3b252a885ab99ee7751ffced4928215092788",
    "WbCc": "98f893531ddacf262e642cf73a41e5496631ba00ae1cd47095e1139d72e0da2f",
    "UKDls": "9ce07f053cdc710ec61c8e70cb94988ca84cb40aaa259ad83767a211f0b24e1d",
    "UU": "29336b7ac3410f253b49e917f24d6dee1cc5e723f6d590b47e6069f5ea1a3f8f",
    "UKDmn": "d83619c7fc5a4d774c595bfac709c9bccde1c4d593382d3772bcf5db480a8205",
    "ClWb9": "e782894a1efb0a99df01359c0e29096acb626e636ccdc47181289e71ba15937f",
}


class TestSurrogateDigests:
    def test_every_dataset_is_pinned(self):
        assert set(SURROGATE_DIGESTS) == set(ALL_DATASET_NAMES)

    @pytest.mark.parametrize("name", ALL_DATASET_NAMES)
    def test_bytes_unchanged(self, name):
        g = DATASETS[name].build(0.05)
        h = hashlib.sha256()
        for arr in (g.indptr, g.indices):
            h.update(str(arr.dtype).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == SURROGATE_DIGESTS[name]
