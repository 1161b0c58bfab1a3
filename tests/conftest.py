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
    PathResult,
    constrained_shortest,
    covering_radius,
    dijkstra,
    graph_from_edges,
    path_from_predecessors,
    path_max_curvature,
    sample_surface,
    surfaces,
)
from geoknot.geometry import turn_curvature

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


def finite_turn_curvatures(g):
    """Sorted distinct finite curvatures over every non-backtracking
    triple u - v - w of the graph, one ``turn_curvature`` call each."""
    coords = g.points.tolist()
    found = set()
    for v in range(g.n):
        nbrs = g.neighbors(v)[0].tolist()
        for u in nbrs:
            for w in nbrs:
                if u != w:
                    found.add(turn_curvature(coords[u], coords[v], coords[w]))
    return sorted(c for c in found if math.isfinite(c))


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
