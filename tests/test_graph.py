import math
import re

import numpy as np
import pytest
from hypothesis import given

from geoknot import (
    build_graph,
    connected_components,
    graph_stats,
    read_graph_csv,
    sample_surface,
    sphere,
    write_graph_csv,
)
from geoknot.graph import BRUTE_FORCE_LIMIT
from conftest import bfs_components, graph_edge_set, split_graphs


def random_config(rng, max_n=60):
    n = int(rng.integers(5, max_n))
    dim = int(rng.integers(2, 4))
    pts = rng.uniform(-2.0, 2.0, (n, dim))
    r = float(rng.uniform(0.3, 1.5))
    if rng.random() < 0.5:
        return pts, dict(kind="ball", r=r)
    return pts, dict(kind="annulus", r=r, alpha=float(rng.uniform(0.0, 0.9)))


class TestBuildGraph:
    def test_collinear_ball(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        assert set(graph_edge_set(g)) == {(0, 1), (1, 2)}

    def test_collinear_annulus_same(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        g = build_graph(pts, kind="annulus", r=1.0, alpha=0.5)
        assert set(graph_edge_set(g)) == {(0, 1), (1, 2)}

    def test_annulus_drops_short_edges(self):
        pts = np.array([[0.0, 0.0], [0.4, 0.0]])
        g = build_graph(pts, kind="annulus", r=1.0, alpha=0.5)
        assert g.edge_count == 0

    def test_boundary_distances_included(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        assert (0, 1) in graph_edge_set(g)  # exactly r
        g2 = build_graph(pts, kind="annulus", r=2.0, alpha=0.5)
        assert (0, 1) in graph_edge_set(g2)  # exactly alpha*r

    def test_weights_are_distances(self, rng):
        pts, kw = random_config(rng)
        g = build_graph(pts, **kw)
        for (i, j), w in graph_edge_set(g).items():
            assert w == pytest.approx(np.linalg.norm(pts[i] - pts[j]), rel=1e-12)
            assert 0.0 < w <= g.r

    def test_adjacency_is_symmetric_and_sorted(self, rng):
        pts, kw = random_config(rng)
        g = build_graph(pts, **kw)
        for i in range(g.n):
            nbrs, _ = g.neighbors(i)
            assert np.all(np.diff(nbrs) > 0)
            for j in nbrs:
                assert i in g.neighbors(int(j))[0]

    def test_index_equals_brute(self, rng):
        # The spatial index must reproduce the all-pairs edge set
        # exactly, weights included.
        for _ in range(25):
            pts, kw = random_config(rng)
            a = build_graph(pts, method="index", **kw)
            b = build_graph(pts, method="brute", **kw)
            assert graph_edge_set(a) == graph_edge_set(b)

    def test_annulus_is_subset_of_ball(self, rng):
        pts, _ = random_config(rng)
        r = 1.0
        ball = graph_edge_set(build_graph(pts, kind="ball", r=r))
        ann = graph_edge_set(build_graph(pts, kind="annulus", r=r, alpha=0.5))
        assert set(ann) <= set(ball)
        for e, w in ann.items():
            assert w == ball[e]

    def test_gates(self):
        pts = np.zeros((1, 2))
        with pytest.raises(ValueError):
            build_graph(pts, kind="ball", r=1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            build_graph(pts, kind="ball", r=0.0)
        with pytest.raises(ValueError):
            build_graph(pts, kind="ball", r=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            build_graph(pts, kind="annulus", r=1.0)
        with pytest.raises(ValueError):
            build_graph(pts, kind="annulus", r=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            build_graph(pts, kind="torus", r=1.0)

    def test_brute_force_limit(self):
        pts = np.zeros((BRUTE_FORCE_LIMIT + 1, 2))
        pts[:, 0] = np.arange(len(pts))
        with pytest.raises(ValueError, match="brute-force"):
            build_graph(pts, method="brute", r=1.0)

    def test_sampleset_input(self):
        samp = sample_surface(sphere(1.0), "grid", 66)
        g = build_graph(samp, kind="ball", r=0.5)
        assert g.points is samp.points


class TestStatsAndComponents:
    def test_two_clusters(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 0.0], [10.5, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        labels = connected_components(g)
        assert labels.tolist() == [0, 0, 1, 1]
        stats = graph_stats(g)
        assert stats.components == 2
        assert stats.edge_count == 2
        assert stats.min_degree == 1
        assert 2 * stats.edge_count == int(g.degrees().sum())

    @given(split_graphs())
    def test_labels_match_bfs(self, g):
        labels = connected_components(g)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, bfs_components(g))
        assert graph_stats(g).components == int(labels.max()) + 1 >= 2

    def test_stats_mean(self, rng):
        pts, kw = random_config(rng)
        g = build_graph(pts, **kw)
        stats = graph_stats(g)
        assert stats.mean_degree == pytest.approx(2 * g.edge_count / g.n)


class TestGraphIO:
    def test_round_trip(self, tmp_path, rng):
        pts, kw = random_config(rng)
        g = build_graph(pts, **kw)
        path = str(tmp_path / "g.csv")
        write_graph_csv(path, g)
        back = read_graph_csv(path, points=pts)
        assert back.kind == g.kind
        assert back.r == g.r
        assert back.alpha == g.alpha
        assert np.array_equal(back.indptr, g.indptr)
        assert np.array_equal(back.indices, g.indices)
        assert np.array_equal(back.weights, g.weights)

    def test_header_comment_present(self, tmp_path):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        g = build_graph(pts, kind="annulus", r=2.0, alpha=0.25)
        path = tmp_path / "g.csv"
        write_graph_csv(str(path), g)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# kind=annulus")
        assert "alpha=0.25" in first

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1,0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_graph_csv(str(path))

    def write_edges(self, tmp_path, rows):
        path = tmp_path / "g.csv"
        path.write_text("# kind=ball r=1\n" + "".join(f"{row}\n" for row in rows))
        return str(path)

    def test_index_out_of_range_rejected(self, tmp_path):
        path = self.write_edges(tmp_path, ["0,1,0.5", "1,3,0.5"])
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: node index outside [0, 3)")):
            read_graph_csv(path, n=3)

    def test_unordered_pair_and_self_loop_rejected(self, tmp_path):
        for row in ("2,1,0.5", "1,1,0.5"):
            path = self.write_edges(tmp_path, ["0,1,0.5", row])
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: edge must have i < j")):
                read_graph_csv(path, n=3)

    def test_bad_weight_rejected(self, tmp_path):
        for w in ("-1.0", "0", "nan", "inf"):
            path = self.write_edges(tmp_path, ["0,1,0.5", f"1,2,{w}"])
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: weight must be finite and positive")):
                read_graph_csv(path, n=3)

    def test_duplicate_edge_rejected(self, tmp_path):
        # COO -> CSR would sum the two listings into one 1.0 edge.
        path = self.write_edges(tmp_path, ["0,1,0.5", "1,2,0.5", "0,1,0.5"])
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: duplicate edge 0,1 (first on line 2)")):
            read_graph_csv(path, n=3)

    def test_edge_between_coincident_points_rejected(self, tmp_path):
        path = self.write_edges(tmp_path, ["0,1,1", "1,2,1"])
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: edge joins coincident points")):
            read_graph_csv(path, points=pts)
        # Without coordinates there is nothing to compare.
        assert read_graph_csv(path, n=3).edge_count == 2

    def test_malformed_row_rejected(self, tmp_path):
        path = self.write_edges(tmp_path, ["0,1,0.5", "1,2"])
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected i,j,weight")):
            read_graph_csv(path, n=3)
