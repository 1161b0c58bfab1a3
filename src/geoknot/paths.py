"""Shortest paths on neighborhood graphs, with and without a curvature cap.

The unconstrained distance is plain Dijkstra.  The constrained variant
caps the discrete curvature of every interior triple of the walk; it
runs Dijkstra over directed-edge states, where appending an edge is
allowed only if the turn it creates stays within the cap.  Node
revisits stay legal (the constrained distance is only a semi-metric),
but repeating a directed edge never helps: the enclosed cycle can be
spliced out without touching any surviving triple.  Pruning repeats
therefore keeps the search exact and bounds the state count by the
directed edge count.

Heavy experiment drivers use the compiled Dijkstra from scipy over the
same graphs (and over the state graph); the hand-rolled searches remain
the reference implementations the oracles test.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .geometry import discrete_curvature
from .graph import NeighborhoodGraph

BRUTE_FORCE_MAX_NODES = 12


@dataclass(frozen=True)
class DistanceField:
    """Single-source distances with predecessors for path extraction."""

    source: int
    dist: np.ndarray
    predecessor: np.ndarray


@dataclass(frozen=True)
class PathResult:
    nodes: list
    length: float
    max_interior_curvature: float
    feasible: bool


def dijkstra(g: NeighborhoodGraph, source: int) -> DistanceField:
    """Single-source shortest paths.

    Unreachable nodes keep an infinite distance and no predecessor.
    Equal-length alternatives resolve toward the smaller predecessor
    index, so the predecessor tree is reproducible.
    """
    if not (0 <= source < g.n):
        raise ValueError("source out of range")
    dist = np.full(g.n, math.inf)
    pred = np.full(g.n, -1, dtype=np.int64)
    done = np.zeros(g.n, dtype=bool)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        nbrs, wts = g.neighbors(u)
        for v, w in zip(nbrs.tolist(), wts.tolist()):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and not done[v] and u < pred[v]:
                pred[v] = u
    return DistanceField(source=source, dist=dist, predecessor=pred)


def extract_path(field: DistanceField, target: int) -> list | None:
    """Node sequence from the field's source to target, or None if
    unreachable."""
    if not math.isfinite(field.dist[target]):
        return None
    nodes = [int(target)]
    while nodes[-1] != field.source:
        nodes.append(int(field.predecessor[nodes[-1]]))
    return nodes[::-1]


def path_max_curvature(points) -> float:
    """Largest discrete curvature over the interior triples of a path.

    Paths with at most two points have no interior vertex and return 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("path needs at least one point")
    if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
        raise ValueError("path repeats a point consecutively")
    if pts.shape[0] <= 2:
        return 0.0
    return max(
        discrete_curvature(pts[k - 1], pts[k], pts[k + 1])
        for k in range(1, pts.shape[0] - 1)
    )


def _graph_points(g: NeighborhoodGraph) -> np.ndarray:
    if g.points is None:
        raise ValueError("graph carries no point coordinates")
    return g.points


def constrained_shortest(
    g: NeighborhoodGraph, kappa: float, source: int, target: int
) -> PathResult:
    """Shortest walk whose every interior triple has curvature <= kappa.

    Dijkstra over directed-edge states (prev, cur).  All edges out of the
    source are feasible starts: a single edge has no interior vertex.
    With kappa = inf the constraint is vacuous and the result length
    matches plain Dijkstra.
    """
    if not (kappa > 0.0):
        raise ValueError("kappa must be positive (or math.inf)")
    if not (0 <= source < g.n and 0 <= target < g.n):
        raise ValueError("endpoint out of range")
    if source == target:
        return PathResult([source], 0.0, 0.0, True)
    pts = _graph_points(g)
    cost = {}
    parent = {}
    heap = []
    nbrs, wts = g.neighbors(source)
    for v, w in zip(nbrs.tolist(), wts.tolist()):
        state = (source, v)
        cost[state] = w
        parent[state] = None
        heapq.heappush(heap, (w, v, source))
    settled = set()
    final = None
    while heap:
        c, v, u = heapq.heappop(heap)
        state = (u, v)
        if state in settled or c > cost[state]:
            continue
        settled.add(state)
        if v == target:
            final = state
            break
        nbrs, wts = g.neighbors(v)
        for k, w in zip(nbrs.tolist(), wts.tolist()):
            if k == u:
                continue  # immediate backtrack: degenerate triple
            if math.isfinite(kappa):
                curv = discrete_curvature(pts[u], pts[v], pts[k])
                if not curv <= kappa:
                    continue
            nxt = (v, k)
            nc = c + w
            prev_cost = cost.get(nxt)
            if prev_cost is None or nc < prev_cost:
                cost[nxt] = nc
                parent[nxt] = state
                heapq.heappush(heap, (nc, k, v))
            elif nc == prev_cost and nxt not in settled and u < parent[nxt][0]:
                parent[nxt] = state
    if final is None:
        return PathResult([], math.inf, 0.0, False)
    nodes = [final[1]]
    state = final
    while state is not None:
        nodes.append(state[0])
        state = parent[state]
    nodes.reverse()
    return PathResult(
        nodes=[int(x) for x in nodes],
        length=float(cost[final]),
        max_interior_curvature=path_max_curvature(pts[nodes]),
        feasible=True,
    )


def brute_force_constrained(
    g: NeighborhoodGraph,
    kappa: float,
    source: int,
    target: int,
    max_hops: int | None = None,
) -> float:
    """Exhaustive minimum over constrained walks; the testing oracle.

    Enumerates every walk up to ``max_hops`` edges depth-first, allowing
    node revisits but never a repeated directed edge, and keeps walks
    whose interior triples all satisfy the cap.  Only viable for tiny
    graphs.
    """
    if g.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_NODES}")
    if max_hops is None:
        max_hops = g.n + 3
    if max_hops > g.n + 3:
        raise ValueError("max_hops limited to n + 3")
    if not (kappa > 0.0):
        raise ValueError("kappa must be positive (or math.inf)")
    if source == target:
        return 0.0
    pts = _graph_points(g)
    adj = [
        list(zip(g.neighbors(i)[0].tolist(), g.neighbors(i)[1].tolist()))
        for i in range(g.n)
    ]
    best = math.inf

    def walk(prev, cur, length, hops, used):
        nonlocal best
        if length >= best or hops == max_hops:
            return
        for nxt, w in adj[cur]:
            if nxt == prev or (cur, nxt) in used:
                continue
            if prev is not None and math.isfinite(kappa):
                if not discrete_curvature(pts[prev], pts[cur], pts[nxt]) <= kappa:
                    continue
            nl = length + w
            if nl >= best:
                continue
            if nxt == target:
                best = nl
                continue
            used.add((cur, nxt))
            walk(cur, nxt, nl, hops + 1, used)
            used.discard((cur, nxt))

    walk(None, source, 0.0, 0, set())
    return best


def pseudo_metric(sample, g: NeighborhoodGraph, x, xp, kappa: float | None = None) -> float:
    """Graph distance between arbitrary ambient points.

    Each query point is mapped to the set of sample indices at the
    minimal distance (ties within 1e-12 relative), and the smallest
    graph distance over those index pairs answers.  Distinct points
    sharing a nearest sample index get distance 0: this is only a
    pseudo-metric.
    """
    pts = sample.points if hasattr(sample, "points") else np.asarray(sample, float)
    if len(pts) == 0:
        raise ValueError("empty sample")
    sources = _nearest_indices(pts, x)
    targets = _nearest_indices(pts, xp)
    best = math.inf
    if kappa is None:
        for i in sources:
            field = dijkstra(g, i)
            best = min(best, float(np.min(field.dist[targets])))
    else:
        for i in sources:
            for j in targets:
                best = min(best, constrained_shortest(g, kappa, i, j).length)
    return best


def _nearest_indices(pts: np.ndarray, x) -> list:
    x = np.asarray(x, dtype=np.float64)
    d = np.linalg.norm(pts - x, axis=1)
    dmin = float(np.min(d))
    return [int(i) for i in np.nonzero(d <= dmin * (1.0 + 1e-12))[0]]


# ---------------------------------------------------------------------------
# Batch engines.  Experiments query hundreds of sources over graphs with
# millions of edges; these wrap the compiled searches while the pure
# implementations above stay as the tested reference.

def shortest_distances(
    g: NeighborhoodGraph, sources, return_predecessors: bool = False
):
    """Unconstrained distances from many sources at once.

    The adjacency already holds both directions of every edge, so the
    search runs on it as a directed graph and skips scipy's
    symmetrisation.
    """
    mat = g.to_csr()
    return _csgraph_dijkstra(
        mat,
        directed=True,
        indices=list(sources),
        return_predecessors=return_predecessors,
    )


def path_from_predecessors(pred_row: np.ndarray, source: int, target: int) -> list | None:
    """Rebuild one node path from a scipy predecessor row."""
    if target == source:
        return [source]
    if pred_row[target] < 0:
        return None
    nodes = [int(target)]
    while nodes[-1] != source:
        nodes.append(int(pred_row[nodes[-1]]))
    return nodes[::-1]


class EdgeStateEngine:
    """Curvature-constrained distances in bulk over one fixed graph.

    The directed-edge transition list and every triple curvature are
    precomputed once; each query thresholds the curvatures at its kappa,
    assembles the state graph, and runs the compiled Dijkstra from
    per-source virtual start nodes.  Results match
    :func:`constrained_shortest` exactly.
    """

    def __init__(self, g: NeighborhoodGraph):
        self.g = g
        pts = _graph_points(g)
        n = g.n
        m = len(g.indices)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
        heads = g.indices
        # States with head v, grouped: in_order[v_start[v]:v_start[v+1]].
        in_order = np.argsort(heads, kind="stable")
        v_start = np.searchsorted(heads[in_order], np.arange(n + 1))
        # Node v owns the (in, out) pairs in slice bounds[v]:bounds[v+1].
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.diff(v_start) * np.diff(g.indptr), out=bounds[1:])
        self._from = np.empty(bounds[-1], dtype=np.int64)
        self._to = np.empty(bounds[-1], dtype=np.int64)
        self._curv = np.empty(bounds[-1], dtype=np.float64)
        for v in range(n):
            lo, hi = bounds[v], bounds[v + 1]
            if hi == lo:
                continue
            ins = in_order[v_start[v]:v_start[v + 1]]
            outs = np.arange(g.indptr[v], g.indptr[v + 1], dtype=np.int64)
            u = rows[ins]
            w = heads[outs]
            a = pts[u] - pts[v]
            b = pts[w] - pts[v]
            dots = a @ b.T
            na2 = np.einsum("ij,ij->i", a, a)
            rej = b[None, :, :] - (dots / na2[:, None])[:, :, None] * a[:, None, :]
            wedge = np.linalg.norm(rej, axis=2)
            nb = np.linalg.norm(b, axis=1)
            chord = np.linalg.norm(pts[w][None, :, :] - pts[u][:, None, :], axis=2)
            with np.errstate(divide="ignore", invalid="ignore"):
                c = 2.0 * wedge / (nb[None, :] * chord)
            c = np.where(dots > 0.0, np.inf, c)
            c = np.where(u[:, None] == w[None, :], np.inf, c)  # backtracks
            self._from[lo:hi] = np.repeat(ins, len(outs))
            self._to[lo:hi] = np.tile(outs, len(ins))
            self._curv[lo:hi] = c.ravel()
        self._m = m
        self._rows = rows
        self._in_order = in_order
        self._v_start = v_start
        # Virtual start node per graph node, linked to its outgoing states.
        self._super_from = m + rows
        self._super_to = np.arange(m, dtype=np.int64)

    def distances(self, kappa: float, sources) -> np.ndarray:
        """Distance matrix (len(sources), n) at curvature cap kappa."""
        if not (kappa > 0.0):
            raise ValueError("kappa must be positive (or math.inf)")
        g = self.g
        m = self._m
        keep = self._curv <= kappa
        row = np.concatenate([self._from[keep], self._super_from])
        col = np.concatenate([self._to[keep], self._super_to])
        data = np.concatenate([g.weights[self._to[keep]], g.weights])
        size = m + g.n
        mat = csr_matrix((data, (row, col)), shape=(size, size))
        start = [m + int(s) for s in sources]
        dist = _csgraph_dijkstra(mat, directed=True, indices=start)
        # Distance to node t = min over states that end at t.
        out = np.full((len(start), g.n), np.inf)
        state_dist = dist[:, : m][:, self._in_order]
        for t in range(g.n):
            lo, hi = self._v_start[t], self._v_start[t + 1]
            if hi > lo:
                out[:, t] = np.min(state_dist[:, lo:hi], axis=1)
        for k, s in enumerate(sources):
            out[k, int(s)] = 0.0
        return out


# ---------------------------------------------------------------------------
# Path JSON: the one external format of this module.

def _num_out(x: float):
    if math.isinf(x):
        return "inf"
    return x


def path_result_payload(
    result: PathResult, source: int, target: int, kappa: float
) -> dict:
    """JSON-ready dict for a path query; infinities spell "inf"."""
    return {
        "source": int(source),
        "target": int(target),
        "kappa": _num_out(float(kappa)),
        "length": _num_out(float(result.length)),
        "nodes": [int(v) for v in result.nodes],
        "max_interior_curvature": _num_out(float(result.max_interior_curvature)),
        "feasible": bool(result.feasible),
    }
