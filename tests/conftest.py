"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately use different algorithms than the library
(Heron's formula for circumradius, Bellman-Ford for shortest paths,
breadth-first search for components, a dense reference grid and a
Voronoi diagram for the covering radius) so agreement is evidence, not
tautology.
"""

import math
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from scipy.spatial import Voronoi, cKDTree

from geoknot import (
    COMPARISON_CONSTANT,
    BoundReport,
    GateError,
    HardFailure,
    PairCheck,
    PathResult,
    build_graph,
    constrained_shortest,
    covering_radius,
    curvature_bound,
    dijkstra,
    graph_from_edges,
    path_from_predecessors,
    path_max_curvature,
    perturb_graph_weights,
    sample_surface,
    select_pairs,
    surface_label,
    surfaces,
)
from geoknot.geometry import _curvature_columns, _dot, turn_curvature
from geoknot.paths import shortest_path_turns
from geoknot.validation import C_GATE, _finish, _holds, _ratio

settings.register_profile("geoknot", deadline=None, max_examples=60)
settings.load_profile("geoknot")


def heron_circumradius(x, y, z) -> float:
    """Circumradius from the three side lengths alone."""
    x, y, z = (np.asarray(p, dtype=np.float64) for p in (x, y, z))
    a = float(np.linalg.norm(y - z))
    b = float(np.linalg.norm(x - z))
    c = float(np.linalg.norm(x - y))
    s = 0.5 * (a + b + c)
    area_sq = s * (s - a) * (s - b) * (s - c)
    if area_sq <= 0.0:
        return math.inf  # collinear
    return a * b * c / (4.0 * math.sqrt(area_sq))


def bellman_ford(n, edges, source):
    """Textbook relaxation; edges as (i, j, w) undirected."""
    dist = [math.inf] * n
    dist[source] = 0.0
    for _ in range(n - 1):
        changed = False
        for i, j, w in edges:
            if dist[i] + w < dist[j]:
                dist[j] = dist[i] + w
                changed = True
            if dist[j] + w < dist[i]:
                dist[i] = dist[j] + w
                changed = True
        if not changed:
            break
    return dist


def directed_hausdorff(from_points, to_points) -> float:
    """sup over ``from_points`` of the distance to the nearest ``to_point``.

    An empty target set has no nearest point anywhere, so the result is
    infinite by convention.
    """
    from_points = np.atleast_2d(np.asarray(from_points, dtype=np.float64))
    to_points = np.atleast_2d(np.asarray(to_points, dtype=np.float64))
    if to_points.shape[0] == 0 or to_points.size == 0:
        return math.inf
    if from_points.shape[0] == 0 or from_points.size == 0:
        return 0.0
    dists, _ = cKDTree(to_points).query(from_points, k=1)
    return float(np.max(dists))


def grid_covering_bracket(sample) -> tuple:
    """The slow twin of ``covering_radius``: (low, high) around the
    sample's covering radius, measured on the surface's grid of ten
    times the sample's points.

    ``low`` is the largest chordal nearest-sample distance over the
    grid, below the true (intrinsic) radius since the grid is a subset
    of the surface and a chord never exceeds its geodesic.  ``high``
    adds the grid's own spacing, the largest distance from a grid point
    to its nearest neighbour in the grid, which puts it above.
    """
    ref = sample_surface(sample.surface, "grid", 10 * max(sample.n, 1)).points
    spacing = float(np.max(cKDTree(ref).query(ref, k=2)[0][:, 1]))
    low = directed_hausdorff(ref, sample.points)
    return low, low + spacing


def voronoi_plane_candidates(sites, crossings) -> np.ndarray:
    """The slow twin of ``surfaces._plane_candidates``: the vertices and
    ridges read from a ``scipy.spatial.Voronoi`` object, not from the
    Delaunay triangles."""
    vor = Voronoi(sites)
    p, q = np.moveaxis(sites[vor.ridge_points], 1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        hits = crossings(0.5 * (p + q), np.stack([p[:, 1] - q[:, 1], q[:, 0] - p[:, 0]], axis=1))
    return np.concatenate([vor.vertices, hits[np.isfinite(hits).all(axis=1)]])


def voronoi_covering_radius(sample):
    """``covering_radius`` with the planar candidates of the Voronoi
    twin; the sphere and the circle do not read them."""
    with mock.patch.object(surfaces, "_plane_candidates", voronoi_plane_candidates):
        return covering_radius(sample)


def intrinsic_nearest(spec, sample_points, query) -> np.ndarray:
    """The intrinsic distance from each query point to its nearest
    sample point, over every pair and from the closed forms of
    ``geodesic_oracle``."""
    q, p = np.asarray(query, dtype=np.float64), np.asarray(sample_points, dtype=np.float64)
    if spec.kind in ("sphere", "circle"):
        d = spec.radius * np.arccos(np.clip(q @ p.T / spec.radius**2, -1.0, 1.0))
    elif spec.kind == "disk":
        d = np.linalg.norm(q[:, None, :] - p[None, :, :], axis=2)
    else:
        turn = np.arctan2(q[:, 1], q[:, 0])[:, None] - np.arctan2(p[:, 1], p[:, 0])[None, :]
        turn = np.remainder(turn + math.pi, 2.0 * math.pi) - math.pi
        d = np.hypot(spec.radius * turn, q[:, 2, None] - p[None, :, 2])
    return d.min(axis=1)


def bfs_components(g):
    """Component label per node, assigned by BFS in index order."""
    labels = np.full(g.n, -1, dtype=np.int64)
    current = 0
    for start in range(g.n):
        if labels[start] >= 0:
            continue
        labels[start] = current
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.indices[g.indptr[u]:g.indptr[u + 1]]:
                if labels[v] < 0:
                    labels[v] = current
                    queue.append(int(v))
        current += 1
    return labels


def turn_curvatures(points, rank, u, v, w) -> np.ndarray:
    """Row-wise ``turn_curvature`` of the triples
    (points[u], points[v], points[w]) over index arrays, bit for bit:
    the twin of the state engine's use of ``_curvature_columns``.

    ``rank`` is ``lexicographic_rank`` of ``points``.  Every IEEE
    operation of the scalar form is repeated per coordinate column, in
    the same order; triples that repeat a point or turn acutely give
    ``inf``.
    """
    swap = rank[u] > rank[w]
    x = np.where(swap, w, u)
    z = np.where(swap, u, w)
    cols = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    xs = [col[x] for col in cols]
    ys = [col[v] for col in cols]
    zs = [col[z] for col in cols]
    a = [p - q for p, q in zip(xs, ys)]
    b = [p - q for p, q in zip(zs, ys)]
    c = [p - q for p, q in zip(zs, xs)]
    return _curvature_columns(a, b, c, _dot(a, a), np.sqrt(_dot(b, b)), _dot(a, b))


def finite_turns(g) -> list:
    """The finite curvature of every non-backtracking triple u - v - w of
    the graph, one ``turn_curvature`` call each, repeats kept."""
    coords = g.points.tolist()
    found = []
    for v in range(g.n):
        nbrs = g.neighbors(v)[0].tolist()
        for u in nbrs:
            for w in nbrs:
                if u != w:
                    found.append(turn_curvature(coords[u], coords[v], coords[w]))
    return [c for c in found if math.isfinite(c)]


def finite_turn_curvatures(g):
    """Sorted distinct finite curvatures over every non-backtracking
    triple u - v - w of the graph."""
    return sorted(set(finite_turns(g)))


def turn_table(engine):
    """The turn table an ``EdgeStateEngine`` keeps, its blocks joined:
    (indptr over states, target states, curvatures); None before
    ``distinct_curvatures`` keeps one."""
    if engine._table is None:
        return None
    indptr = np.zeros(engine.states + 1, dtype=np.int64)
    to, curv = [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
    for s0, s1, ptr, block_to, block_curv in engine._table:
        indptr[s0 + 1:s1 + 1] = indptr[s0] + ptr[1:]
        to.append(block_to)
        curv.append(block_curv)
    return indptr, np.concatenate(to), np.concatenate(curv)


@st.composite
def split_graphs(draw, max_n=30, euclidean=False):
    """Random weighted graph with at least two components: the last node
    is isolated and the others fall into blocks that share no edge.

    Node coordinates are 2-D, often from a small integer lattice, so
    coincident points and exact right angles are common.  An edge drawn
    between two coincident points is dropped, as the graph rules ask,
    so repeated points meet only across a turn.  The weights stay
    independent of the coordinates, unless ``euclidean`` makes each the
    distance between its points, so that equally long paths are
    common."""
    n = draw(st.integers(3, max_n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 2), max_size=4)))
    edges = {}
    for lo, hi in zip([0] + cuts, cuts + [n - 1]):
        if hi - lo < 2:
            continue
        node = st.integers(lo, hi - 1)
        pairs = draw(st.sets(
            st.tuples(node, node).filter(lambda p: p[0] < p[1]),
            max_size=3 * (hi - lo),
        ))
        for p in sorted(pairs):
            edges[p] = draw(st.floats(0.01, 10.0))
    coord = st.integers(-2, 2).map(float) | st.floats(-2.0, 2.0)
    points = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    edges = {(i, j): w for (i, j), w in edges.items() if (points[i] != points[j]).any()}
    ii = np.array([i for i, _ in edges], dtype=np.int64)
    jj = np.array([j for _, j in edges], dtype=np.int64)
    ww = np.array(list(edges.values()), dtype=np.float64)
    if euclidean:
        ww = np.hypot(*(points[ii] - points[jj]).T)  # no underflow to 0
    return graph_from_edges(points, "ball", 10.0, None, lambda *_: (ii, jj, ww))


def reference_path(g, kappa, source, target) -> PathResult:
    """The slow twin of ``query_shortest`` (kappa None or inf) and
    ``query_constrained``: :func:`dijkstra`'s predecessors with
    :func:`path_max_curvature`, as ``geoknot dist`` once answered, or
    :func:`constrained_shortest`."""
    if kappa is not None and kappa != math.inf:
        return constrained_shortest(g, kappa, source, target)
    field = dijkstra(g, source)
    nodes = path_from_predecessors(field.predecessor, source, target)
    if nodes is None:
        return PathResult([], math.inf, 0.0, False)
    return PathResult(nodes, float(field.dist[target]), path_max_curvature(g.points[nodes]), True)


def relaid_perturbation(g, p):
    """The slow twin of ``perturb_graph_weights``: the graph laid out
    again from its edge list with every weight divided by (1 + p)."""
    if p == 0.0:
        return g
    ii, jj, ww = g.edge_list()
    with np.errstate(over="ignore", under="ignore"):
        ww = ww / (1.0 + p)
    return graph_from_edges(g.points, g.kind, g.r, g.alpha, lambda *_: (ii, jj, ww))


def relaid_induced(g, inside):
    """The slow twin of ``paths._induced``: the edges i < j of g with
    both ends inside, relabelled by the running count of nodes inside
    and laid out again by ``graph_from_edges`` with g's weights."""
    nodes = np.flatnonzero(inside)
    label = np.cumsum(inside) - 1
    ii, jj, ww = g.edge_list()
    keep = inside[ii] & inside[jj]
    ii, jj, ww = label[ii[keep]], label[jj[keep]], ww[keep]
    return graph_from_edges(g.points[nodes], g.kind, g.r, g.alpha, lambda *_: (ii, jj, ww)), nodes


def graph_edge_set(g):
    """Undirected edge set {(i, j): w} with i < j, from the CSR layout."""
    out = {}
    for i in range(g.n):
        nbrs, wts = g.neighbors(i)
        for j, w in zip(nbrs.tolist(), wts.tolist()):
            if i < j:
                out[(i, j)] = w
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def slow_report(runner: str, surface, n, r, pairs, seed, mode, perturb_weights,
                alpha=None, kappa=None, kappa_prime=None) -> list:
    """The slow twin of a graph runner: the reports that the runner named
    ``runner`` returns for these arguments (constrained-lower takes a
    list ``n``), built from the oracles alone.

    It takes the runner's sample, its exact covering radius eps (none
    for unconstrained-lower), ``select_pairs`` and
    ``perturb_graph_weights``, builds the graph with ``build_graph(...,
    method="brute")``, and reads graph distances from the hand-written
    ``dijkstra``, one source at a time.  constrained-upper reads
    ``constrained_shortest`` per pair and cap: kappa' is the largest of
    the pairs' critical caps among kappa and the finite turn curvatures
    above it, as ``TestExactCap`` finds them, or the top cap if a pair
    fails there too.  constrained-lower reads ``shortest_path_turns``
    from ``dijkstra`` rows.  No search is bounded, so the twin reports no
    search counts and no ``evaluations``.
    """
    if runner == "constrained-lower":
        return [_slow_lower(surface, m, r, pairs, seed, mode, perturb_weights, alpha, kappa)
                for m in n]
    sample = sample_surface(surface, mode, n, seed)
    eps = None if runner == "unconstrained-lower" else covering_radius(sample).radius
    r = 4.0 * eps if r is None else r
    if runner == "unconstrained-upper" and eps > r / 4.0:
        raise GateError(f"gate eps <= r/4 failed: eps = {eps:.6g}, r/4 = {r / 4.0:.6g}")
    g, pair_list = _slow_graph(sample, r, pairs, seed, perturb_weights, alpha)
    report = BoundReport(runner, surface_label(surface), sample.n, r=r, epsilon=eps)
    if runner == "constrained-upper":
        return [_slow_upper(report, g, pair_list, alpha, kappa, kappa_prime)]
    rows = {}
    graph = []
    for i, j, _ in pair_list:
        if i not in rows:
            rows[i] = dijkstra(g, i).dist
        graph.append(float(rows[i][j]))
    if runner == "unconstrained-upper":
        factor = 1.0 + 4.0 * eps / r
        report.rows = _slow_upper_rows(pair_list, graph, factor)
        return [_finish(report, 0.0, sizes={}, fitted_constants={"bound_factor": factor})]
    factor = 1.0 + COMPARISON_CONSTANT * (curvature_bound(surface) * r) ** 2
    report.rows = [
        PairCheck(i, j, oracle, d, _ratio(d, oracle), factor,
                  None if math.isinf(d) else _holds(oracle, factor * d))
        for (i, j, oracle), d in zip(pair_list, graph)
    ]
    return [_finish(report, 0.0, factor_form="1 + C*(kappa_S*r)^2 with C = pi^2/50",
                    comparison_constant=COMPARISON_CONSTANT, sizes={},
                    fitted_constants={"bound_factor": factor})]


def _slow_graph(sample, r, pairs, seed, perturb_weights, alpha) -> tuple:
    kind = "ball" if alpha is None else "annulus"
    g = build_graph(sample, kind=kind, r=r, alpha=alpha, method="brute")
    pair_list = select_pairs(sample, r, pairs, np.random.default_rng(seed))
    return perturb_graph_weights(g, perturb_weights), pair_list


def _slow_upper_rows(pair_list, graph, factor) -> list:
    return [PairCheck(i, j, oracle, d, _ratio(d, oracle), factor, _holds(d, factor * oracle))
            for (i, j, oracle), d in zip(pair_list, graph)]


def _slow_upper(report, g, pair_list, alpha, kappa, kappa_prime) -> BoundReport:
    eps, r = report.epsilon, report.r
    factor = 1.0 + 6.0 * eps / r
    turns = finite_turns(g)

    def passes(cap, pair) -> bool:
        i, j, oracle = pair
        return _holds(constrained_shortest(g, cap, i, j).length, factor * oracle)

    cap, found = kappa_prime, None
    if kappa_prime is None:
        caps = [kappa, *sorted(c for c in set(turns) if c > kappa)]
        found = all(passes(caps[-1], pair) for pair in pair_list)
        k = len(caps) - 1
        if found:
            # The largest critical cap, each pair's by bisection: a pair
            # that passes at a cap passes at every larger one.
            k = 0
            for pair in pair_list:
                lo, hi = k - 1, len(caps) - 1
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if passes(caps[mid], pair) else (mid, hi)
                k = hi
        cap = caps[k]
    graph = [constrained_shortest(g, cap, i, j).length for i, j, _ in pair_list]
    report.alpha, report.kappa, report.kappa_prime = alpha, kappa, cap
    report.rows = _slow_upper_rows(pair_list, graph, factor)
    base_slack = kappa**2 * r + eps / r**2
    fitted = None
    if found is not False and math.isfinite(cap) and base_slack > 0.0:
        fitted = (cap - kappa) / base_slack
    return _finish(
        report, 0.0,
        # kappa' = inf is answered without a turn pass, which counts them.
        sizes={"states": len(g.indices),
               "transitions": None if kappa_prime == math.inf else len(turns)},
        fitted_constants={"bound_factor": factor,
                          "kappa_prime_min": cap if found else None, "C_emp": fitted},
    )


def _slow_lower(surface, n, r, pairs, seed, mode, perturb_weights, alpha, kappa) -> BoundReport:
    sample = sample_surface(surface, mode, n, seed)
    eps = covering_radius(sample).radius
    g, pair_list = _slow_graph(sample, r, pairs, seed, perturb_weights, alpha)
    certified = eps <= alpha * kappa * r**2 / C_GATE
    report = BoundReport("constrained-lower", surface_label(surface), sample.n, r=r,
                         alpha=alpha, kappa=kappa, epsilon=eps)
    worst = 0.0
    for i, j, oracle in pair_list:
        dist = dijkstra(g, i).dist
        turns = shortest_path_turns(g, dist, j)
        if turns is None:
            report.rows.append(PairCheck(i, j, oracle, float(dist[j]), math.inf, math.inf, None))
            continue
        curv = max((path_max_curvature(g.points[list(t)]) for t in turns), default=0.0)
        if math.isinf(curv) and certified:
            raise HardFailure(f"acute interior angle on a shortest path at N={sample.n} "
                              f"inside the certified regime (eps = {eps:.6g})")
        worst = max(worst, curv)
        d = float(dist[j])
        report.rows.append(PairCheck(i, j, oracle, d, _ratio(d, oracle), math.inf,
                                     math.isfinite(curv)))
    q_hat = worst / kappa - 1.0
    return _finish(
        report, 0.0, certified_regime=certified, max_path_curvature=worst, sizes={},
        fitted_constants={"q_hat": q_hat,
                          "C_emp": q_hat * alpha * kappa**2 * r**3 / eps if eps > 0.0 else None},
    )
