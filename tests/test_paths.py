import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoknot import (
    EdgeStateEngine,
    brute_force_constrained,
    build_graph,
    constrained_shortest,
    dijkstra,
    discrete_curvature,
    graph_from_edges,
    path_from_predecessors,
    path_max_curvature,
    query_constrained,
    query_shortest,
    sample_surface,
    shortest_distances,
    sphere,
)
from geoknot.geometry import lexicographic_rank, turn_curvature, turn_curvatures
from geoknot import paths
from geoknot.paths import (
    BRUTE_FORCE_MAX_NODES,
    DistanceField,
    path_result_payload,
    shortest_path_turns,
)
from conftest import (
    bellman_ford,
    finite_turn_curvatures,
    graph_edge_set,
    reference_path,
    split_graphs,
)


def random_graph(rng, n_max=10, dim=2, r=1.2):
    n = int(rng.integers(4, n_max + 1))
    pts = rng.uniform(-1.5, 1.5, (n, dim))
    return build_graph(pts, kind="ball", r=r)


class TestDijkstra:
    def test_path_graph(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        field = dijkstra(g, 0)
        assert field.dist.tolist() == [0.0, 1.0, 2.0]
        assert path_from_predecessors(field.predecessor, 0, 2) == [0, 1, 2]

    def test_isolated_vertex(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [9.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        field = dijkstra(g, 0)
        assert math.isinf(field.dist[2])
        assert path_from_predecessors(field.predecessor, 0, 2) is None

    def test_matches_bellman_ford(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_max=12)
            edges = [(i, j, w) for (i, j), w in graph_edge_set(g).items()]
            field = dijkstra(g, 0)
            want = bellman_ford(g.n, edges, 0)
            assert np.allclose(field.dist, want, rtol=1e-12, atol=0.0)

    def test_tie_break_smaller_predecessor(self):
        # Unit square: both 0-1-3 and 0-2-3 reach node 3 at cost 2.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        field = dijkstra(g, 0)
        assert field.dist[3] == pytest.approx(2.0)
        assert field.predecessor[3] == 1

    def test_triangle_inequality(self, rng):
        g = random_graph(rng, n_max=15)
        fields = [dijkstra(g, s) for s in range(g.n)]
        for a in range(g.n):
            for b in range(g.n):
                for c in range(g.n):
                    lhs = fields[a].dist[c]
                    rhs = fields[a].dist[b] + fields[b].dist[c]
                    if math.isfinite(rhs):
                        assert lhs <= rhs * (1 + 1e-12)

    def test_predecessor_cycle_raises(self):
        # Nodes 1 and 2 name each other as predecessor; the walk back
        # from 1 never reaches the source.
        field = DistanceField(
            source=0,
            dist=np.array([0.0, 1.0, 1.0]),
            predecessor=np.array([-1, 2, 1]),
        )
        with pytest.raises(ValueError, match="cycle"):
            path_from_predecessors(field.predecessor, field.source, 1)
        with pytest.raises(ValueError, match="cycle"):
            path_from_predecessors(np.array([-9999, 2, 1]), 0, 1)

    def test_bad_source(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        with pytest.raises(ValueError):
            dijkstra(g, 2)
        with pytest.raises(ValueError):
            dijkstra(g, -1)


class TestPathMaxCurvature:
    def test_short_paths_zero(self):
        assert path_max_curvature(np.array([[0.0, 0.0]])) == 0.0
        assert path_max_curvature(np.array([[0.0, 0.0], [1.0, 0.0]])) == 0.0

    def test_right_angle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert path_max_curvature(pts) == pytest.approx(math.sqrt(2.0))

    def test_matches_pointwise_max(self, rng):
        pts = rng.uniform(-1.0, 1.0, (6, 3))
        want = max(
            discrete_curvature(pts[k - 1], pts[k], pts[k + 1])
            for k in range(1, 5)
        )
        assert path_max_curvature(pts) == want

    def test_repeated_point_rejected(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            path_max_curvature(pts)

    def test_coincident_endpoints_are_infinite(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert path_max_curvature(pts) == math.inf


def lattice(dim, side=3):
    axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * dim, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


class TestTurnCurvatures:
    """The row-wise kernel the engine uses against the scalar formula."""

    def check(self, pts, u, v, w):
        got = turn_curvatures(pts, lexicographic_rank(pts), u, v, w)
        for k, (a, b, c) in enumerate(zip(u.tolist(), v.tolist(), w.tolist())):
            if len({a, b, c}) < 3:
                assert got[k] == math.inf
                continue
            assert got[k] == discrete_curvature(pts[a], pts[b], pts[c])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_triples(self, rng, dim):
        pts = rng.uniform(-2.0, 2.0, (40, dim))
        u, v, w = (rng.integers(0, 40, 2000) for _ in range(3))
        self.check(pts, u, v, w)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_lattice_right_angles(self, dim):
        pts = lattice(dim)
        u, v, w = (a.ravel() for a in np.meshgrid(*[np.arange(len(pts))] * 3))
        right = np.einsum("ij,ij->i", pts[u] - pts[v], pts[w] - pts[v]) == 0.0
        assert right.sum() > 100
        self.check(pts, u, v, w)

    @pytest.mark.parametrize("u, v, w, want", [
        (0, 1, 0, math.inf),  # x == z, same index
        (0, 1, 5, math.inf),  # x == z, coincident points
        (0, 0, 1, math.inf),  # x == y
        (5, 0, 1, math.inf),  # x == y, coincident points
        (0, 1, 1, math.inf),  # y == z
        (0, 1, 2, math.sqrt(2.0)),  # right angle at y
        (2, 1, 0, math.sqrt(2.0)),
        (1, 2, 3, math.sqrt(2.0)),
        (1, 0, 3, math.sqrt(2.0)),
        (0, 1, 4, 0.0),  # straight
        (1, 4, 0, math.inf),  # endpoints on one side of y
    ])
    def test_degenerate_and_right_triples_in_both_twins(self, u, v, w, want):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                        [2.0, 0.0], [-0.0, 0.0]])
        row = turn_curvatures(
            pts, lexicographic_rank(pts), np.array([u]), np.array([v]), np.array([w])
        )
        scalar = turn_curvature(pts[u].tolist(), pts[v].tolist(), pts[w].tolist())
        assert row.tolist() == [scalar]
        assert scalar == pytest.approx(want, rel=1e-15)

    def test_coincident_points_are_infinite(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        u, v, w = np.array([0, 0, 1]), np.array([1, 2, 3]), np.array([2, 3, 1])
        got = turn_curvatures(pts, lexicographic_rank(pts), u, v, w)
        assert got.tolist() == [math.inf, math.inf, math.inf]


class TestConstrainedShortest:
    def test_loose_constraint_recovers_dijkstra(self, rng):
        # When the unconstrained optimum itself satisfies a loose cap,
        # the constrained search must find the same length.  A finite
        # cap still forbids acute turns, so paths that double back stay
        # out of reach no matter how large kappa is.
        for _ in range(10):
            g = random_graph(rng)
            field = dijkstra(g, 0)
            for t in range(g.n):
                res = constrained_shortest(g, 1e9, 0, t)
                if math.isinf(field.dist[t]):
                    assert not res.feasible
                    continue
                path = path_from_predecessors(field.predecessor, 0, t)
                if path_max_curvature(g.points[path]) <= 1e9:
                    assert res.feasible
                    assert res.length == pytest.approx(field.dist[t], rel=1e-9)
                elif res.feasible:
                    assert res.length >= field.dist[t] * (1 - 1e-12)

    def test_sharp_turn_blocked(self):
        # 0-1-2 doubles back at node 1; the only route is infeasible
        # for any finite curvature budget.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.1]])
        g = build_graph(pts, kind="ball", r=1.1)
        res = constrained_shortest(g, 5.0, 0, 2)
        direct = graph_edge_set(g)
        if (0, 2) in direct:
            assert res.feasible
        else:
            assert not res.feasible

    def test_detour_taken_when_needed(self):
        # Square plus center: straight-through center path turns hard,
        # perimeter path is gentler.
        pts = np.array(
            [
                [0.0, 0.0],
                [1.0, 0.0],
                [2.0, 0.0],
                [1.0, 0.08],
            ]
        )
        g = build_graph(pts, kind="ball", r=1.05)
        mid_curv = discrete_curvature(pts[0], pts[1], pts[2])
        via_top = discrete_curvature(pts[0], pts[3], pts[2])
        assert mid_curv == 0.0
        res = constrained_shortest(g, via_top / 2, 0, 2)
        assert res.feasible
        assert res.nodes == [0, 1, 2]

    def test_infeasible_result_shape(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.01]])
        g = build_graph(pts, kind="annulus", r=1.0, alpha=0.4)
        res = constrained_shortest(g, 0.01, 0, 2)
        if not res.feasible:
            assert res.nodes == []
            assert math.isinf(res.length)
            assert res.max_interior_curvature == 0.0

    def test_source_equals_target(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        res = constrained_shortest(g, 1.0, 0, 0)
        assert res.feasible and res.nodes == [0] and res.length == 0.0

    def test_kappa_monotone(self, rng):
        for _ in range(10):
            g = random_graph(rng, n_max=8)
            lengths = []
            for kappa in (0.5, 1.0, 2.0, 8.0, math.inf):
                lengths.append(constrained_shortest(g, kappa, 0, g.n - 1).length)
            for a, b in zip(lengths, lengths[1:]):
                assert b <= a * (1 + 1e-12) or (math.isinf(a) and math.isinf(b))

    def test_result_curvature_within_budget(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_max=9)
            kappa = float(rng.uniform(0.5, 6.0))
            res = constrained_shortest(g, kappa, 0, g.n - 1)
            if res.feasible and len(res.nodes) > 2:
                assert res.max_interior_curvature <= kappa * (1 + 1e-12)

    def test_no_repeated_directed_edge(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_max=9)
            res = constrained_shortest(g, float(rng.uniform(0.5, 4.0)), 0, g.n - 1)
            if res.feasible:
                steps = list(zip(res.nodes, res.nodes[1:]))
                assert len(steps) == len(set(steps))

    def test_coincident_endpoints_are_infeasible(self):
        # x0 = x2: the turn 0-1-2 folds back onto its start.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.1)
        res = constrained_shortest(g, 5.0, 0, 2)
        assert not res.feasible
        assert brute_force_constrained(g, 5.0, 0, 2) == math.inf
        assert constrained_shortest(g, 5.0, 0, 3).length == 2.0

    def test_gates(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        with pytest.raises(ValueError):
            constrained_shortest(g, 0.0, 0, 1)
        with pytest.raises(ValueError):
            constrained_shortest(g, -1.0, 0, 1)
        with pytest.raises(ValueError):
            constrained_shortest(g, 1.0, 0, 5)


class TestBruteForce:
    def test_matches_constrained(self, rng):
        for _ in range(40):
            g = random_graph(rng, n_max=7)
            kappa = float(rng.uniform(0.5, 8.0))
            fast = constrained_shortest(g, kappa, 0, g.n - 1)
            slow = brute_force_constrained(g, kappa, 0, g.n - 1)
            assert fast.feasible == math.isfinite(slow)
            if fast.feasible:
                assert fast.length == pytest.approx(slow, rel=1e-12)

    def test_size_gate(self):
        pts = np.zeros((BRUTE_FORCE_MAX_NODES + 1, 2))
        pts[:, 0] = np.arange(len(pts)) * 0.5
        g = build_graph(pts, kind="ball", r=0.6)
        with pytest.raises(ValueError):
            brute_force_constrained(g, 1.0, 0, 1)


# Small lattice point sets in which a few points repeat.
coincident_points = st.builds(
    lambda base, dup: np.array(base + [base[i % len(base)] for i in dup], dtype=np.float64),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=5),
    st.lists(st.integers(0, 4), min_size=1, max_size=3),
)


def draw_limits(data, full):
    """{source: limit} over a random subset of sources in random order.
    A limit is often one of the source's own finite distances, so the
    boundary case (distance == limit) comes up."""
    n = full.shape[1]
    sources = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    limits = {}
    for s in sources:
        reached = sorted(set(full[s][np.isfinite(full[s])].tolist()))
        limits[s] = data.draw(
            st.sampled_from(reached) | st.floats(0.0, 40.0) | st.just(math.inf)
        )
    return limits


def assert_bounded(bounded, full, limits):
    """Equal to the unbounded rows within each row's limit, inf beyond."""
    within = full <= np.asarray(limits, dtype=np.float64).reshape(-1, 1)
    assert bounded.shape == full.shape
    assert np.array_equal(bounded[within], full[within])
    assert np.isinf(bounded[~within]).all()


class TestBulkEngines:
    def test_shortest_distances_matches_dijkstra(self, rng):
        g = random_graph(rng, n_max=20)
        dist = shortest_distances(g, list(range(g.n)))
        for s in range(g.n):
            field = dijkstra(g, s)
            assert np.allclose(dist[s], field.dist, rtol=1e-12, atol=0.0)

    @given(split_graphs())
    def test_shortest_distances_disconnected(self, g):
        dist = shortest_distances(g, list(range(g.n)))
        for s in range(g.n):
            assert np.array_equal(dist[s], dijkstra(g, s).dist)
        assert np.isinf(dist[: g.n - 1, g.n - 1]).all()

    def test_edge_state_engine_matches_constrained(self, rng):
        for _ in range(15):
            g = random_graph(rng, n_max=9)
            engine = EdgeStateEngine(g)
            kappa = float(rng.uniform(0.5, 6.0))
            dist = engine.distances(kappa, [0])
            for t in range(g.n):
                res = constrained_shortest(g, kappa, 0, t)
                if res.feasible:
                    assert dist[0, t] == res.length
                else:
                    assert math.isinf(dist[0, t])

    def test_edge_state_engine_unconstrained(self, rng):
        g = random_graph(rng, n_max=12)
        engine = EdgeStateEngine(g)
        dist = engine.distances(math.inf, [0])
        field = dijkstra(g, 0)
        assert np.array_equal(dist[0], field.dist)

    @given(split_graphs(max_n=12),
           st.floats(0.1, 20.0) | st.just(math.inf))
    def test_edge_state_engine_matches_constrained_on_split_graphs(self, g, kappa):
        dist = EdgeStateEngine(g).distances(kappa, list(range(g.n)))
        for s in range(g.n):
            for t in range(g.n):
                assert dist[s, t] == constrained_shortest(g, kappa, s, t).length

    @given(coincident_points, st.floats(0.3, 4.0))
    def test_coincident_points_engine_and_references(self, pts, kappa):
        g = build_graph(pts, kind="ball", r=1.5)
        dist = EdgeStateEngine(g).distances(kappa, list(range(g.n)))
        for s in range(g.n):
            for t in range(g.n):
                ref = constrained_shortest(g, kappa, s, t).length
                assert dist[s, t] == ref
                assert ref == pytest.approx(
                    brute_force_constrained(g, kappa, s, t), rel=1e-12
                )

    @given(split_graphs(), st.data())
    def test_bounded_shortest_distances_match_unbounded(self, g, data):
        full = shortest_distances(g, list(range(g.n)))
        limits = draw_limits(data, full)
        bounded = shortest_distances(g, limits)
        assert_bounded(bounded, full[list(limits)], list(limits.values()))

    @given(split_graphs(max_n=12),
           st.floats(0.1, 20.0) | st.just(math.inf), st.data())
    def test_bounded_engine_matches_unbounded(self, g, kappa, data):
        engine = EdgeStateEngine(g)
        full = engine.distances(kappa, list(range(g.n)))
        limits = draw_limits(data, full)
        bounded = engine.distances(kappa, limits)
        assert_bounded(bounded, full[list(limits)], list(limits.values()))

    def test_edge_state_engine_stores_finite_transitions_only(self, rng):
        for _ in range(10):
            g = random_graph(rng, n_max=12)
            engine = EdgeStateEngine(g)
            engine.distinct_curvatures()  # builds the table
            finite = 0
            for v in range(g.n):
                nbrs = g.neighbors(v)[0].tolist()
                for u in nbrs:
                    for w in nbrs:
                        if u != w and math.isfinite(
                            discrete_curvature(g.points[u], g.points[v], g.points[w])
                        ):
                            finite += 1
            assert engine.transitions == len(engine._curv) == finite
            assert np.isfinite(engine._curv).all()
            assert engine._to.dtype == np.int32
            assert engine.states == len(g.indices)
            assert not hasattr(engine, "_from")


@st.composite
def tied_graphs(draw, max_n=10):
    """Small graph on distinct lattice points with edge weights 1 or 2,
    so equally short paths are common and every sum is exact."""
    n = draw(st.integers(2, max_n))
    node = st.integers(0, n - 1)
    pairs = sorted(draw(st.sets(
        st.tuples(node, node).filter(lambda p: p[0] < p[1]), max_size=2 * n
    )))
    ii = np.array([i for i, _ in pairs], dtype=np.int64)
    jj = np.array([j for _, j in pairs], dtype=np.int64)
    ww = np.array([draw(st.sampled_from([1.0, 2.0])) for _ in pairs])
    coord = st.integers(-3, 3)
    points = np.array(draw(st.lists(st.tuples(coord, coord), unique=True,
                                    min_size=n, max_size=n)), dtype=np.float64)
    return graph_from_edges(points, "ball", 10.0, None, lambda *_: (ii, jj, ww))


def all_shortest_turns(g, source, target):
    """Union of the turns (u, v, w) of every shortest source -> target
    path, enumerated depth first under the Bellman-Ford distance; None
    if target is unreachable."""
    edges = [(i, j, w) for (i, j), w in graph_edge_set(g).items()]
    best = bellman_ford(g.n, edges, source)[target]
    if math.isinf(best):
        return None
    turns = set()

    def walk(path, length):
        if length > best:
            return
        if path[-1] == target:
            if length == best:
                turns.update(zip(path, path[1:], path[2:]))
            return
        nbrs, wts = g.neighbors(path[-1])
        for v, w in zip(nbrs.tolist(), wts.tolist()):
            if v not in path:
                walk(path + [v], length + w)

    walk([source], 0.0)
    return turns


class TestShortestPathTurns:
    """The tight turns read from a distance row against every shortest
    path, enumerated by brute force."""

    @given(tied_graphs())
    def test_turns_of_every_shortest_path(self, g):
        rows = shortest_distances(g, list(range(g.n)))
        for s in range(g.n):
            slow = dijkstra(g, s).dist
            for t in range(g.n):
                want = all_shortest_turns(g, s, t)
                # A search stopped at the target's distance is exact
                # on every shortest path to it.
                bounded = shortest_distances(g, {s: rows[s, t]})[0]
                for dist in (rows[s], slow, bounded):
                    got = shortest_path_turns(g, dist, t)
                    if want is None:
                        assert got is None
                    else:
                        assert len(got) == len(set(got)) and set(got) == want


def frozen_block_builder(g):
    """The engine's transition table as an earlier, plainer builder made
    it: every candidate turn of a block through ``turn_curvatures``, the
    finite ones kept, the blocks concatenated.  Returns (indptr, to, curv).
    """
    pts = g.points
    rank = lexicographic_rank(pts)
    indptr, tails = g.indptr, g.indices
    deg = np.diff(indptr)
    heads = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    out_state = np.argsort(tails, kind="stable").astype(np.int32)
    cand = deg[heads]
    ends = np.zeros(len(tails) + 1, dtype=np.int64)
    np.cumsum(cand, out=ends[1:])
    kept = np.zeros(len(tails), dtype=np.int64)
    to, curv = [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
    s0 = 0
    while s0 < len(tails):
        s1 = int(np.searchsorted(ends, ends[s0] + (1 << 14), "right")) - 1
        s1 = max(s1, s0 + 1)
        state = np.repeat(np.arange(s0, s1), cand[s0:s1])
        slot = np.arange(ends[s0], ends[s1]) + np.repeat(
            indptr[heads[s0:s1]] - ends[s0:s1], cand[s0:s1]
        )
        c = turn_curvatures(pts, rank, tails[state], heads[state], tails[slot])
        finite = np.isfinite(c)
        to.append(out_state[slot[finite]])
        curv.append(c[finite])
        kept[s0:s1] = np.bincount(state[finite] - s0, minlength=s1 - s0)
        s0 = s1
    out_indptr = np.zeros(len(tails) + 1, dtype=np.int64)
    np.cumsum(kept, out=out_indptr[1:])
    return out_indptr, np.concatenate(to), np.concatenate(curv)


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def grid_annulus():
    """The N=1026 grid annulus graph (r=0.4, alpha=0.25) of the sphere."""
    sample = sample_surface(sphere(1.0), "grid", 1000, 0)
    return build_graph(sample, kind="annulus", r=0.4, alpha=0.25)


class TestEngineArrays:
    """The engine's stored arrays, bit for bit against the frozen builder."""

    def check(self, g):
        engine = EdgeStateEngine(g)
        engine.distinct_curvatures()  # builds the table
        for got, want in zip(
            (engine._indptr, engine._to, engine._curv), frozen_block_builder(g)
        ):
            assert_same_array(got, want)
        return engine

    @given(split_graphs())
    def test_split_graphs(self, g):
        self.check(g)

    @given(split_graphs())
    def test_distinct_curvatures_match_every_triple(self, g):
        got = EdgeStateEngine(g).distinct_curvatures()
        assert got.tolist() == finite_turn_curvatures(g)

    def test_coincident_points_trim_the_table(self):
        # Edge 0-1 joins distinct points whose squared offset underflows
        # to 0: turns through it are obtuse (a.b = 0) but not finite, so
        # the table is cut below its obtuse-candidate count.
        pts = np.array([[0.0, 0.0], [1e-170, 0.0], [1.0, 0.0], [1.0, 1.0]])
        ii, jj = np.array([0, 0, 1, 1, 2]), np.array([1, 2, 2, 3, 3])
        g = graph_from_edges(pts, "ball", 2.0, None, lambda *_: (ii, jj, np.ones(5)))
        obtuse = sum(
            float(np.dot(pts[u] - pts[v], pts[w] - pts[v])) <= 0.0
            for v in range(g.n)
            for u in g.neighbors(v)[0]
            for w in g.neighbors(v)[0]
        )
        assert 0 < self.check(g).transitions < obtuse

    def test_grid_annulus(self, grid_annulus):
        assert self.check(grid_annulus).transitions == 787016


class TestTurnSources:
    """A fresh engine computes the turns of each cap from its geometry;
    after ``distinct_curvatures`` it reads them from the table.  Both
    must give the same distances, byte for byte."""

    def check(self, g, data):
        table = EdgeStateEngine(g)
        curv = table.distinct_curvatures()
        fresh = EdgeStateEngine(g)
        # Caps are positive; a straight turn's curvature 0 is no cap.
        positive = curv[curv > 0.0].tolist()
        caps = [math.inf]
        if len(curv) == 0 or curv[0] > 0.0:  # a cap below every turn
            caps.append(curv[0] / 2.0 if len(curv) else 1.0)
        if positive:
            caps += data.draw(st.lists(st.sampled_from(positive), max_size=3))
            caps.append(positive[-1])
        sources = list(range(g.n))
        for cap in caps:
            full = fresh.distances(cap, sources)
            assert full.tobytes() == table.distances(cap, sources).tobytes()
            limits = draw_limits(data, full)
            bounded = fresh.distances(cap, limits)
            assert bounded.tobytes() == table.distances(cap, limits).tobytes()
        assert fresh._curv is None
        assert fresh.transitions == table.transitions == len(table._curv)

    @given(split_graphs(max_n=12), st.data())
    def test_split_graphs(self, g, data):
        self.check(g, data)

    @given(coincident_points, st.data())
    def test_coincident_points(self, pts, data):
        self.check(build_graph(pts, kind="ball", r=1.5), data)


class TestStateLayoutCache:
    def test_one_layout_per_cap(self, grid_annulus, monkeypatch):
        """A bounded search and its re-search at one cap lay the state
        graph out once; a new cap lays it out again, after the old one
        is dropped."""
        built, layouts = [], []
        layout = EdgeStateEngine._state_csr

        def spy(engine, kappa):
            # Which earlier layouts are freed by the time this one starts.
            built.append((kappa, [ref() is None for ref in layouts]))
            mat = layout(engine, kappa)
            layouts.append(weakref.ref(mat))
            return mat

        monkeypatch.setattr(EdgeStateEngine, "_state_csr", spy)
        engine = EdgeStateEngine(grid_annulus)
        first = engine.distances(3.0, {0: 0.5, 7: 0.5})
        again = engine.distances(3.0, [0, 7])
        assert built == [(3.0, [])]
        within = np.isfinite(first)
        assert np.array_equal(first[within], again[within])
        engine.distances(math.inf, [0])
        engine.distances(2.0, [0])
        engine.distances(2.0, {7: 1.0})
        assert built == [(3.0, []), (2.0, [True])]


def arrays_held(engine) -> set:
    """The engine's attributes that hold an array, directly or in a
    tuple or list; the graph and the layout's matrix are not counted."""
    def holds(value):
        if isinstance(value, (tuple, list)):
            return any(holds(v) for v in value)
        return isinstance(value, np.ndarray)
    return {k for k, v in vars(engine).items() if holds(v)}


class TestEngineMemory:
    def test_fixed_cap_holds_its_layout_only(self, grid_annulus):
        """A fresh engine at one cap holds its geometry and that cap's
        state graph, never the table of every finite turn."""
        tracemalloc.start()
        try:
            engine = EdgeStateEngine(grid_annulus)
            engine.distances(3.0, {0: 1.5, 7: 1.0})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mat = engine._mat
        layout = mat.indptr.nbytes + mat.indices.nbytes + mat.data.nbytes
        # The reverse slots and one pass's geometry, at their documented
        # sizes: 44 bytes per state and 32 per node in 3-D.
        geometry = 44 * engine.states + 32 * grid_annulus.n
        full = EdgeStateEngine(grid_annulus)
        full.distinct_curvatures()
        table = full._indptr.nbytes + full._to.nbytes + full._curv.nbytes
        assert engine._curv is None
        assert peak <= 1.25 * (layout + geometry)
        # Cap 3 keeps 53% of the turns here, so the layout alone is over
        # half the table; what the query holds besides it is not.
        assert peak - layout < 0.5 * table

    def test_no_geometry_between_passes(self, grid_annulus):
        """After a search at one cap the engine holds the reverse slots
        and that cap's layout, no per-slot geometry; after the table is
        built, the table besides."""
        tracemalloc.start()
        try:
            engine = EdgeStateEngine(grid_annulus)
            engine.distances(3.0, {0: 1.5, 7: 1.0})
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        mat = engine._mat
        layout = mat.indptr.nbytes + mat.indices.nbytes + mat.data.nbytes
        assert engine._cap == 3.0
        assert arrays_held(engine) == {"_out_state"}
        # One pass's geometry is 40 bytes per state and 32 per node.
        geometry = 40 * engine.states + 32 * grid_annulus.n
        assert held - layout - engine._out_state.nbytes < 0.05 * geometry
        engine.distinct_curvatures()
        assert arrays_held(engine) == {"_out_state", "_indptr", "_to", "_curv"}

    def test_build_and_query_transients(self, grid_annulus):
        """Neither the build nor a query holds its output twice."""
        tracemalloc.start()
        try:
            engine = EdgeStateEngine(grid_annulus)
            engine.distinct_curvatures()  # builds the table
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            engine.distances(3.0, {0: 1.5, 7: 1.0})
            query = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        stored = sum(a.nbytes for a in (
            engine._indptr, engine._to, engine._curv, engine._out_state
        ))
        assert build_peak <= 1.8 * stored
        assert query <= 1.0 * stored


def query_path(g, kappa, source, target):
    """The compiled query for kappa, as ``geoknot dist`` picks it."""
    if kappa is None or kappa == math.inf:
        return query_shortest(g, source, target)
    return query_constrained(g, kappa, source, target)


LATTICE = np.array([(k // 4, k % 4) for k in range(16)], dtype=np.float64)
LATTICE_PAIRS = [(i, j) for i in range(16) for j in range(i + 1, 16)
                 if np.linalg.norm(LATTICE[i] - LATTICE[j]) < 2.3]


def lattice_graph(edges, weights=None):
    """Graph on the 4 x 4 integer lattice, node k at (k // 4, k % 4),
    weighted by length unless ``weights`` (one, or one per edge) are
    given."""
    ii, jj = (np.array(col) for col in zip(*edges))
    if weights is None:
        ww = np.linalg.norm(LATTICE[ii] - LATTICE[jj], axis=1)
    else:
        ww = np.broadcast_to(np.asarray(weights, dtype=np.float64), ii.shape)
    return graph_from_edges(LATTICE, "ball", 2.3, None, lambda *_: (ii, jj, ww))


class TestSinglePairQueries:
    """query_shortest and query_constrained against their references:
    nodes, length, curvature and feasibility equal."""

    # Small integer weights, or Euclidean lengths on a lattice, make
    # equally short walks common, so the tie rules decide the nodes.
    tied = st.one_of(
        tied_graphs(),
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=len(LATTICE_PAIRS),
                 max_size=len(LATTICE_PAIRS)).filter(any).map(lambda weights: lattice_graph(
                     *zip(*((p, w) for p, w in zip(LATTICE_PAIRS, weights) if w)))),
        st.booleans().flatmap(lambda euclidean: split_graphs(max_n=16, euclidean=euclidean)),
    )

    @settings(derandomize=True, max_examples=30)
    @given(tied, st.data())
    def test_shortest_matches_the_reference(self, g, data):
        for s in data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3)):
            for t in range(g.n):
                kappa = data.draw(st.sampled_from([None, math.inf]))
                assert query_path(g, kappa, s, t) == reference_path(g, kappa, s, t)

    @settings(derandomize=True, max_examples=50)
    @given(tied, st.data())
    def test_constrained_matches_the_reference(self, g, data):
        # The graph's own curvatures put turns exactly at the cap; a tiny
        # cap leaves only straight walks.
        caps = [c for c in finite_turn_curvatures(g) if c > 0.0]
        kappa = data.draw(st.sampled_from([1e-3, *caps]) | st.floats(0.05, 20.0))
        node = st.integers(0, g.n - 1)
        for s, t in data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=10)):
            assert query_constrained(g, kappa, s, t) == reference_path(g, kappa, s, t)

    def test_lens_widens(self):
        # The shortest walk 7 -> 10 (length 2) turns a right angle,
        # over the cap 1, so the answer detours over 6.24: the lenses
        # of reach 2.5 and 5 hold no walk, and the third, of reach 10,
        # holds the whole graph.
        g = lattice_graph([
            (0, 1), (0, 4), (1, 4), (1, 6), (2, 5), (2, 7), (3, 7), (4, 5), (4, 8),
            (4, 9), (5, 6), (5, 8), (5, 9), (6, 7), (6, 9), (6, 10), (6, 11), (7, 11),
            (8, 9), (8, 12), (8, 13), (9, 10), (9, 12), (9, 13), (9, 14), (10, 15),
            (11, 14), (11, 15), (12, 13), (13, 14), (14, 15),
        ])
        lenses = []
        induced = paths._induced

        def spy(g, inside):
            lenses.append(int(inside.sum()))
            return induced(g, inside)

        with mock.patch.object(paths, "_induced", spy):
            got = query_constrained(g, 1.0, 7, 10)
        assert lenses == [3, 11, 16]
        assert got == constrained_shortest(g, 1.0, 7, 10)
        assert got.nodes == [7, 6, 1, 4, 9, 10] and got.length > 1.25 * 2.0

    def test_rounded_increment_answers_from_the_reference(self):
        # 1 + 1e-300 == 1: nodes 5 and 6 are tied at distance 1 from 9
        # through each other, so a tight walk back from 6 could cycle.
        g = lattice_graph([(5, 6), (5, 9), (6, 9)], [1e-300, 1.0, 1.0])
        for kappa, name in ((None, "dijkstra"), (4.0, "constrained_shortest")):
            with mock.patch.object(paths, name, wraps=getattr(paths, name)) as ref:
                got = query_path(g, kappa, 9, 6)
            assert ref.call_count == 1
            assert got == reference_path(g, kappa, 9, 6)
            assert got.nodes == [9, 5, 6] and got.length == 1.0

    def test_endpoints_and_caps_checked(self):
        g = lattice_graph([(0, 1)])
        for bad in (-1, 16):
            for query in (lambda: query_shortest(g, 0, bad),
                          lambda: query_constrained(g, 2.0, bad, 0)):
                with pytest.raises(ValueError, match="endpoint out of range"):
                    query()
        for kappa in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="kappa must be positive"):
                query_constrained(g, kappa, 0, 1)


class TestPayload:
    def test_infeasible_serializes_inf(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        res = constrained_shortest(g, 1.0, 0, 2)
        payload = path_result_payload(res, 0, 2, 1.0)
        assert payload["feasible"] is False
        assert payload["length"] == "inf"
        assert payload["kappa"] == 1.0
