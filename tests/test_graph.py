import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import coo_matrix

from geoknot import (
    build_graph,
    graph_from_edges,
    graph_stats,
    read_graph_csv,
    sample_surface,
    shortest_distances,
    sphere,
    write_graph_csv,
)
from geoknot import graph
from geoknot.graph import BRUTE_FORCE_LIMIT
from conftest import bfs_components, graph_edge_set, split_graphs

# Three distinct points, for graph files on nodes 0..2.
LINE = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


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

    @pytest.mark.parametrize("method", ["index", "brute"])
    @pytest.mark.parametrize("pts, match", [
        ([[0.0, 0.0], [math.nan, 0.0], [0.5, 0.0]], "points must have finite coordinates"),
        ([[0.0, 0.0], [math.inf, 0.0], [0.5, 0.0]], "points must have finite coordinates"),
        (np.zeros((3, 0)), re.escape("points must be an (n, D) array with D >= 1")),
    ])
    def test_bad_points_rejected_by_both_builders(self, method, pts, match):
        # The oracle and the fast builder refuse the same inputs, with
        # one line and before any neighbour search.
        with pytest.raises(ValueError, match=match) as exc:
            build_graph(pts, kind="ball", r=1.0, method=method)
        assert "\n" not in str(exc.value)


def first_bad_row(points, rows):
    """(rule, row, first listing) that graph_from_edges must report for
    the edge list ``rows``, or None: each rule is a pure-Python test of
    one row, tried in the constructor's order."""
    n = len(points)
    rules = [
        (f"node index outside [0, {n})", lambda i, j, w: i < 0 or j >= n),
        ("edge must have i < j", lambda i, j, w: i >= j),
        ("weight must be finite and positive", lambda i, j, w: not (math.isfinite(w) and w > 0.0)),
        ("edge joins coincident points", lambda i, j, w: points[i].tolist() == points[j].tolist()),
    ]
    for what, bad in rules:
        for k, (i, j, w) in enumerate(rows):
            if bad(i, j, w):
                return what, k, None
    seen = {}
    for k, (i, j, _) in enumerate(rows):
        if (i, j) in seen:
            return f"duplicate edge {i},{j}", k, seen[(i, j)]
        seen[(i, j)] = k
    return None


@st.composite
def edge_lists(draw):
    """Points on a small lattice, so that some coincide, and an edge
    list mixing good rows with every kind of bad one."""
    n = draw(st.integers(2, 6))
    coords = st.tuples(st.integers(0, 2), st.integers(0, 1))
    points = np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=np.float64)

    @st.composite
    def row(draw):
        if draw(st.integers(0, 5)):
            i = draw(st.integers(0, n - 2))
            j = draw(st.integers(i + 1, n - 1))
        else:
            i, j = draw(st.integers(-1, n)), draw(st.integers(-1, n))
        good = st.sampled_from([0.5, 1.0, 2.5])
        bad = st.sampled_from([0.0, -1.0, -0.0, math.nan, math.inf, -math.inf])
        return i, j, draw(good if draw(st.integers(0, 5)) else bad)

    return points, draw(st.lists(row(), max_size=8))


def edge_arrays(rows):
    return (
        np.array([i for i, _, _ in rows], dtype=np.int64),
        np.array([j for _, j, _ in rows], dtype=np.int64),
        np.array([w for _, _, w in rows], dtype=np.float64),
    )


# Nodes 0 and 3 coincide.
FOURTH_AT_ORIGIN = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])


class TestEdgeRules:
    """Every edge list, whoever makes it, passes the constructor's rules."""

    @given(edge_lists())
    def test_matches_row_predicate(self, case):
        points, rows = case
        arrays = edge_arrays(rows)
        expected = first_bad_row(points, rows)
        try:
            g = graph_from_edges(points, "ball", 1.0, None, lambda *_: arrays)
        except graph.EdgeError as exc:
            assert (exc.what, exc.row, exc.first) == expected
        else:
            assert expected is None
            assert graph_edge_set(g) == {(i, j): w for i, j, w in rows}

    @pytest.mark.parametrize("rows, what, row", [
        ([(0, 1, 1.0), (1, 2, -1.0)], "weight must be finite and positive", 1),
        ([(0, 1, 0.0)], "weight must be finite and positive", 0),
        ([(0, 1, math.nan)], "weight must be finite and positive", 0),
        ([(0, 1, math.inf)], "weight must be finite and positive", 0),
        ([(0, 1, 1.0), (1, 1, 1.0)], "edge must have i < j", 1),
        ([(2, 1, 1.0)], "edge must have i < j", 0),
        ([(0, 4, 1.0)], "node index outside [0, 4)", 0),
        ([(-1, 1, 1.0)], "node index outside [0, 4)", 0),
        ([(0, 1, 1.0), (0, 3, 1.0)], "edge joins coincident points", 1),
        ([(0, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0)], "duplicate edge 0,1", 2),
    ])
    def test_build_path_is_checked(self, monkeypatch, rows, what, row):
        # A faulty neighbour search is caught like a faulty file.
        monkeypatch.setattr(graph, "_kdtree_edges", lambda *_: edge_arrays(rows))
        with pytest.raises(graph.EdgeError) as exc:
            build_graph(FOURTH_AT_ORIGIN, kind="ball", r=1.0)
        assert (exc.value.what, exc.value.row) == (what, row)

    @pytest.mark.parametrize("ii, jj", [
        (np.array([0.5]), np.array([1.7])),
        (np.array([math.nan]), np.array([1.0])),
        (np.array([0]), np.array([True])),
    ])
    def test_non_integer_indices_rejected(self, ii, jj):
        # A float index would be truncated to a different node, and a
        # NaN one cast to -2**31.
        with pytest.raises(ValueError, match="node indices must be integers, got dtype") as exc:
            graph_from_edges(LINE, "ball", 1.0, None, lambda *_: (ii, jj, np.array([1.0])))
        assert not isinstance(exc.value, graph.EdgeError)

    @pytest.mark.parametrize("ii, jj, ww", [
        ([0, 1], [1, 2], [1.0, 1.0]),
        (np.array([0, 1], dtype=np.uint8), np.array([1, 2], dtype=np.int16), [1.0, 1.0]),
        ([], [], []),
    ])
    def test_integer_indices_accepted(self, ii, jj, ww):
        g = graph_from_edges(LINE, "ball", 1.0, None, lambda *_: (ii, jj, ww))
        assert graph_edge_set(g) == {(i, j): w for i, j, w in zip(ii, jj, ww)}

    def test_only_graph_from_edges_makes_graphs(self):
        # A graph made any other way would skip the edge rules.  Three
        # exceptions start from a checked graph: the perturbation keeps
        # its edges and divides its weights, checking that each stays
        # finite and positive; a query's lens slices the rows of the
        # nodes inside it, whose edges pass every rule that g's pass; and
        # a graph file's twin stores a layout that graph_from_edges made,
        # bound to the file's bytes and the points.
        makers = []
        for path in sorted(Path(graph.__file__).parent.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if isinstance(node, ast.Call):
                        callee = ast.unparse(node.func)
                        if callee.endswith("NeighborhoodGraph") or callee in (
                            "replace", "dataclasses.replace"
                        ):
                            makers.append((path.name, func.name, callee))
        assert makers == [
            ("graph.py", "graph_from_edges", "NeighborhoodGraph"),
            ("graph.py", "_graph_twin", "NeighborhoodGraph"),
            ("paths.py", "_induced", "NeighborhoodGraph"),
            ("validation.py", "perturb_graph_weights", "replace"),
        ]


def coo_layout(n, ii, jj, ww):
    """The symmetric CSR as the graph layer once laid it out, the slow
    twin of graph_from_edges': both directions of every edge in one
    concatenated COO matrix, summed to CSR and sorted.  A repeated edge
    shows as fewer than 2E entries."""
    mat = coo_matrix(
        (np.concatenate([ww, ww]), (np.concatenate([ii, jj]), np.concatenate([jj, ii]))),
        shape=(n, n),
    ).tocsr()
    mat.sort_indices()
    return mat


def assert_twin_layout(g, twin):
    assert g.indptr.dtype == g.indices.dtype == np.int32
    assert np.array_equal(g.indptr, twin.indptr)
    assert np.array_equal(g.indices, twin.indices)
    assert g.weights.tobytes() == twin.data.tobytes()
    for i in range(g.n):
        assert np.all(np.diff(g.neighbors(i)[0]) > 0)


@st.composite
def listings(draw):
    """Good edge rows on distinct points, often listing an edge twice."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda p: p[0] < p[1])
    weight = st.sampled_from([0.5, 1.0, 2.5]) | st.floats(0.01, 10.0)
    rows = draw(st.lists(st.tuples(pair, weight), max_size=12))
    points = np.column_stack([np.arange(n, dtype=np.float64), np.zeros(n)])
    return points, [(i, j, w) for (i, j), w in rows]


class TestLayoutTwin:
    """The upper-triangle layout against the concatenated-COO twin."""

    @given(split_graphs())
    def test_split_graphs(self, g):
        ii, jj, ww = g.edge_list()
        assert ii.dtype == jj.dtype == np.int32
        assert_twin_layout(g, coo_layout(g.n, ii, jj, ww))

    @given(listings())
    def test_edge_lists_with_duplicates(self, case):
        points, rows = case
        ii, jj, ww = edge_arrays(rows)
        twin = coo_layout(len(points), ii, jj, ww)
        if twin.nnz == 2 * len(rows):
            g = graph_from_edges(points, "ball", 1.0, None, lambda *_: (ii, jj, ww))
            assert_twin_layout(g, twin)
            return
        first = {}
        for k, (i, j, _) in enumerate(rows):
            if first.setdefault((i, j), k) != k:
                break
        with pytest.raises(graph.EdgeError) as exc:
            graph_from_edges(points, "ball", 1.0, None, lambda *_: (ii, jj, ww))
        assert (exc.value.what, exc.value.row, exc.value.first) == (
            f"duplicate edge {i},{j}", k, first[(i, j)]
        )


@st.composite
def boundary_samples(draw):
    """2-D or 3-D points on a lattice of step 1/4, so that some pairs
    sit exactly at r or at alpha*r and some coincide, mixed with
    arbitrary coordinates; and the parameters of a ball or an annulus
    graph whose r, and alpha*r for most alphas, are lattice distances."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 24))
    lattice = st.integers(0, 6).map(lambda k: k / 4)
    coord = lattice | st.floats(0.0, 1.5, allow_nan=False)
    pts = np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                 min_size=n, max_size=n)))
    r = draw(st.sampled_from([0.5, 1.0, 1.25]))
    if draw(st.booleans()):
        return pts, dict(kind="ball", r=r)
    return pts, dict(kind="annulus", r=r, alpha=draw(st.sampled_from([0.0, 0.25, 0.5, 0.8])))


class TestBuiltWeights:
    """A built graph's weights are measured from its points in the
    layout, not carried with its edge list."""

    @given(boundary_samples())
    def test_equal_the_oracle_and_the_mirror_slot(self, case):
        pts, kw = case
        built = build_graph(pts, method="index", **kw)
        oracle = build_graph(pts, method="brute", **kw)
        assert built.weights.dtype == np.float64
        assert np.array_equal(built.indptr, oracle.indptr)
        assert np.array_equal(built.indices, oracle.indices)
        assert built.weights.tobytes() == oracle.weights.tobytes()
        mirror = built.to_csr().T.tocsr()
        mirror.sort_indices()
        assert np.array_equal(mirror.indices, built.indices)
        assert mirror.data.tobytes() == built.weights.tobytes()

    def test_boundary_and_coincident_points(self):
        # Pairs exactly at r = 1 and at alpha*r = 0.5 are edges; the
        # coincident pair is not.
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]])
        built = build_graph(pts, kind="annulus", r=1.0, alpha=0.5)
        assert graph_edge_set(built) == {(0, 1): 1.0, (0, 2): 0.5, (1, 3): 1.0, (2, 3): 0.5}


class TestSizeGate:
    """Graphs csgraph cannot index in int32 fail before any row is read.
    The inputs are zero-stride views, so nothing large is allocated."""

    def gate(self, points, edges, match):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match) as exc:
                graph_from_edges(points, "ball", 1.0, None, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "\n" not in str(exc.value)
        assert peak < 1 << 20

    def test_too_many_nodes(self):
        points = np.broadcast_to(np.zeros(2), (graph.INDEX_LIMIT, 2))

        def edges(*_):
            raise AssertionError("the node gate comes before the neighbour search")

        self.gate(points, edges, re.escape("fewer than 2**31 nodes, got 2147483648"))

    def test_too_many_edges(self):
        rows = graph.INDEX_LIMIT // 2
        ii = np.broadcast_to(np.int32(0), (rows,))
        jj = np.broadcast_to(np.int32(1), (rows,))
        ww = np.broadcast_to(1.0, (rows,))
        self.gate(LINE, lambda *_: (ii, jj, ww), re.escape("fewer than 2**30 edges, got 1073741824"))


@pytest.fixture(scope="module")
def dense_sphere():
    """A seeded r-ball graph of mean degree about 190, so per-node
    overheads stay small next to what the edges store."""
    sample = sample_surface(sphere(1.0), "uniform-random", 3000, 14)
    return sample, build_graph(sample, kind="ball", r=0.5)


def stored_bytes(g):
    return g.indptr.nbytes + g.indices.nbytes + g.weights.nbytes


class TestGraphMemory:
    def test_build_peak(self, dense_sphere):
        """On this small graph (6.5 MiB) the blocks of scratch
        differences, a few MiB each in the neighbour filter and in the
        weight fill, are a large share of the peak, which reads about
        1.7 times what the graph stores.  ``test_layout_peak`` bounds
        the layout where the graph dwarfs them."""
        sample, _ = dense_sphere
        tracemalloc.start()
        try:
            built = build_graph(sample, kind="ball", r=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * stored_bytes(built)

    def test_layout_peak(self):
        """Where the graph (about 26 MB) dwarfs a block of scratch, the
        build peaks at little more than what it stores: the symmetric
        sum carries one byte per entry, and the weights are measured
        into their final slots afterwards."""
        sample = sample_surface(sphere(1.0), "uniform-random", 20000, 18)
        tracemalloc.start()
        try:
            built = build_graph(sample, kind="ball", r=0.15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stored_bytes(built) > 10 * graph.EDGE_BLOCK * 3 * 8
        assert peak <= 1.5 * stored_bytes(built)

    def test_csr_shares_the_stored_arrays(self, dense_sphere):
        _, g = dense_sphere
        mat = g.to_csr()
        assert np.shares_memory(mat.indptr, g.indptr)
        assert np.shares_memory(mat.indices, g.indices)
        assert np.shares_memory(mat.data, g.weights)

    def test_bounded_search_transient(self, dense_sphere):
        """A bounded search copies no graph array; csgraph's own checks
        add about one byte per directed edge."""
        _, g = dense_sphere
        tracemalloc.start()
        try:
            rows = shortest_distances(g, {0: 0.5, 7: 1.0})
            transient = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert transient <= rows.nbytes + 0.1 * stored_bytes(g)


class TestStatsAndComponents:
    def test_two_clusters(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 0.0], [10.5, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        stats = graph_stats(g)
        assert stats.components == 2
        assert stats.edge_count == 2
        assert stats.min_degree == 1
        assert 2 * stats.edge_count == int(g.degrees().sum())

    @given(split_graphs())
    def test_labels_match_bfs(self, g):
        # The component count is the number of BFS labels.
        assert graph_stats(g).components == int(bfs_components(g).max()) + 1 >= 2

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
            read_graph_csv(str(path), LINE)

    def write_edges(self, tmp_path, rows):
        path = tmp_path / "g.csv"
        path.write_text("# kind=ball r=1\n" + "".join(f"{row}\n" for row in rows))
        return str(path)

    def test_index_out_of_range_rejected(self, tmp_path):
        path = self.write_edges(tmp_path, ["0,1,0.5", "1,3,0.5"])
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: node index outside [0, 3)")):
            read_graph_csv(path, LINE)

    def test_unordered_pair_and_self_loop_rejected(self, tmp_path):
        for row in ("2,1,0.5", "1,1,0.5"):
            path = self.write_edges(tmp_path, ["0,1,0.5", row])
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: edge must have i < j")):
                read_graph_csv(path, LINE)

    def test_bad_weight_rejected(self, tmp_path):
        for w in ("-1.0", "0", "nan", "inf"):
            path = self.write_edges(tmp_path, ["0,1,0.5", f"1,2,{w}"])
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: weight must be finite and positive")):
                read_graph_csv(path, LINE)

    def test_duplicate_edge_rejected(self, tmp_path):
        # COO -> CSR would sum the two listings into one 1.0 edge.
        path = self.write_edges(tmp_path, ["0,1,0.5", "1,2,0.5", "0,1,0.5"])
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: duplicate edge 0,1 (first on line 2)")):
            read_graph_csv(path, LINE)

    def test_edge_between_coincident_points_rejected(self, tmp_path):
        path = self.write_edges(tmp_path, ["0,1,1", "1,2,1"])
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: edge joins coincident points")):
            read_graph_csv(path, points=pts)
        assert read_graph_csv(path, LINE).edge_count == 2

    def test_malformed_row_rejected(self, tmp_path):
        path = self.write_edges(tmp_path, ["0,1,0.5", "1,2"])
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected i,j,weight")):
            read_graph_csv(path, LINE)
