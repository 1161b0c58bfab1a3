import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geoknot import (
    EdgeStateEngine,
    brute_force_constrained,
    build_graph,
    constrained_shortest,
    dijkstra,
    discrete_curvature,
    extract_path,
    path_from_predecessors,
    path_max_curvature,
    pseudo_metric,
    sample_surface,
    shortest_distances,
    sphere,
)
from geoknot.geometry import lexicographic_rank, turn_curvatures
from geoknot.paths import BRUTE_FORCE_MAX_NODES, DistanceField, path_result_payload
from conftest import bellman_ford, graph_edge_set, split_graphs


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
        assert extract_path(field, 2) == [0, 1, 2]

    def test_isolated_vertex(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [9.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        field = dijkstra(g, 0)
        assert math.isinf(field.dist[2])
        assert extract_path(field, 2) is None

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
            extract_path(field, 1)
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
                path = extract_path(field, t)
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

    def test_hop_gate(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        with pytest.raises(ValueError):
            brute_force_constrained(g, 1.0, 0, 1, max_hops=g.n + 4)


class TestPseudoMetric:
    def setup_method(self):
        self.pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        self.g = build_graph(self.pts, kind="ball", r=1.0)

    def test_exact_sample_points(self):
        d = pseudo_metric(self.pts, self.g, self.pts[0], self.pts[2])
        assert d == pytest.approx(2.0)

    def test_off_sample_snaps_to_nearest(self):
        d = pseudo_metric(self.pts, self.g, [0.1, 0.0], [1.9, 0.0])
        assert d == pytest.approx(2.0)

    def test_midpoint_tie_takes_min(self):
        # Equidistant from nodes 0 and 1: the cheaper assignment wins.
        d = pseudo_metric(self.pts, self.g, [0.5, 0.0], [2.0, 0.0])
        assert d == pytest.approx(1.0)

    def test_same_nearest_is_zero(self):
        d = pseudo_metric(self.pts, self.g, [0.01, 0.0], [-0.01, 0.0])
        assert d == 0.0

    def test_constrained_variant(self):
        d = pseudo_metric(self.pts, self.g, self.pts[0], self.pts[2], kappa=1.0)
        assert d == pytest.approx(2.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            pseudo_metric(np.zeros((0, 2)), self.g, [0.0, 0.0], [1.0, 0.0])


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

    def test_predecessor_paths_agree(self, rng):
        g = random_graph(rng, n_max=12)
        dist, pred = shortest_distances(g, [0], return_predecessors=True)
        field = dijkstra(g, 0)
        for t in range(g.n):
            path = path_from_predecessors(pred[0], 0, t)
            if math.isinf(dist[0, t]):
                assert path is None
            else:
                length = sum(
                    float(np.linalg.norm(g.points[a] - g.points[b]))
                    for a, b in zip(path, path[1:])
                )
                assert length == pytest.approx(field.dist[t], rel=1e-12, abs=1e-15)

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

    @given(split_graphs(max_n=12, points=True),
           st.floats(0.1, 20.0) | st.just(math.inf))
    def test_edge_state_engine_matches_constrained_on_split_graphs(self, g, kappa):
        dist = EdgeStateEngine(g).distances(kappa, list(range(g.n)))
        for s in range(g.n):
            for t in range(g.n):
                assert dist[s, t] == constrained_shortest(g, kappa, s, t).length

    @given(
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                 min_size=2, max_size=5),
        st.lists(st.integers(0, 4), min_size=1, max_size=3),
        st.floats(0.3, 4.0),
    )
    def test_coincident_points_engine_and_references(self, base, dup, kappa):
        pts = np.array(base + [base[i % len(base)] for i in dup], dtype=np.float64)
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

    @given(split_graphs(max_n=12, points=True),
           st.floats(0.1, 20.0) | st.just(math.inf), st.data())
    def test_bounded_engine_matches_unbounded(self, g, kappa, data):
        engine = EdgeStateEngine(g)
        full = engine.distances(kappa, list(range(g.n)))
        limits = draw_limits(data, full)
        bounded = engine.distances(kappa, limits)
        assert_bounded(bounded, full[list(limits)], list(limits.values()))

    def test_bounded_search_has_no_predecessors(self, rng):
        g = random_graph(rng, n_max=6)
        with pytest.raises(ValueError, match="no predecessors"):
            shortest_distances(g, {0: 1.0}, return_predecessors=True)

    def test_edge_state_engine_stores_finite_transitions_only(self, rng):
        for _ in range(10):
            g = random_graph(rng, n_max=12)
            engine = EdgeStateEngine(g)
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


class TestPayload:
    def test_infeasible_serializes_inf(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        res = constrained_shortest(g, 1.0, 0, 2)
        payload = path_result_payload(res, 0, 2, 1.0)
        assert payload["feasible"] is False
        assert payload["length"] == "inf"
        assert payload["kappa"] == 1.0
