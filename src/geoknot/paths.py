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

With kappa = inf the cap is vacuous: a shortest walk never needs a
backtrack or a repeated node, so plain Dijkstra answers, and bit for bit,
because adding a nonnegative weight in floating point never lowers a
partial sum.

Heavy experiment drivers use the compiled Dijkstra from scipy over the
same graphs (and over the state graph); the hand-rolled searches remain
the reference implementations the oracles test.  The state-graph engine
stores only the transitions of finite curvature, the only ones a finite
cap can admit, and sends kappa = inf to plain Dijkstra.  Every search
computes turn curvatures with the one formula of
:func:`geometry.turn_curvature` (row-wise: ``turn_curvatures``), so the
engine and the references agree exactly.

Both bulk searches also take their sources as a mapping
{source: limit}, which stops each search at its own distance limit.
Within the limit the answer is exact, bit for bit: every prefix of a
shortest walk ends no farther than the walk itself (again, a
nonnegative weight never lowers a float partial sum), so the bounded
search settles every node on it with the same value.  Nodes beyond
the limit read ``inf``; a caller that needs them searches again
without one.
"""

import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .geometry import lexicographic_rank, turn_curvature, turn_curvatures
from .graph import NeighborhoodGraph

BRUTE_FORCE_MAX_NODES = 12

# EdgeStateEngine computes its transitions in blocks of about this many
# (in-edge, out-edge) candidates, so the scratch arrays of the build stay
# small next to the transitions it keeps.
ENGINE_BLOCK = 1 << 14


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


def _walk_back(pred, source: int, target: int) -> list:
    """Follow predecessors from target back to source.

    A path has at most len(pred) nodes, so the walk stops there: a
    predecessor array with a cycle or a broken chain raises ValueError.
    """
    nodes = [int(target)]
    for _ in range(len(pred)):
        if nodes[-1] == source:
            return nodes[::-1]
        prev = int(pred[nodes[-1]])
        if prev < 0:
            raise ValueError(f"predecessor chain breaks at node {nodes[-1]}")
        nodes.append(prev)
    raise ValueError(f"predecessors of node {target} form a cycle")


def extract_path(field: DistanceField, target: int) -> list | None:
    """Node sequence from the field's source to target, or None if
    unreachable."""
    if not math.isfinite(field.dist[target]):
        return None
    return _walk_back(field.predecessor, field.source, target)


def path_max_curvature(points) -> float:
    """Largest discrete curvature over the interior triples of a path.

    Paths with at most two points have no interior vertex and return 0.
    A triple whose endpoints coincide counts as an infeasible turn
    (``inf``), as in the searches.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("path needs at least one point")
    if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
        raise ValueError("path repeats a point consecutively")
    return _max_turn(pts.tolist())


def _max_turn(coords: list) -> float:
    """Largest turn curvature along a list of coordinate lists; 0 when
    there is no interior point."""
    return max(
        (turn_curvature(a, b, c) for a, b, c in zip(coords, coords[1:], coords[2:])),
        default=0.0,
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
    A triple that repeats a point is an infeasible turn.  With
    kappa = inf the constraint is vacuous and the result length matches
    plain Dijkstra.
    """
    if not (kappa > 0.0):
        raise ValueError("kappa must be positive (or math.inf)")
    if not (0 <= source < g.n and 0 <= target < g.n):
        raise ValueError("endpoint out of range")
    if source == target:
        return PathResult([source], 0.0, 0.0, True)
    pts = _graph_points(g)
    coords = pts.tolist()
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
                curv = turn_curvature(coords[u], coords[v], coords[k])
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
        max_interior_curvature=_max_turn([coords[v] for v in nodes]),
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
    whose interior triples all satisfy the cap (a triple that repeats
    a point never does).  Only viable for tiny graphs.
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
    coords = _graph_points(g).tolist()
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
                if not turn_curvature(coords[prev], coords[cur], coords[nxt]) <= kappa:
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
    """Unconstrained distances from many sources at once, one row per
    source.

    The adjacency already holds both directions of every edge, so the
    search runs on it as a directed graph and skips scipy's
    symmetrisation.  A list of sources is searched in one batched call.
    A mapping {source: limit} runs one search per source, stopped at
    its limit (see the module docstring); it returns no predecessors.
    """
    mat = g.to_csr()
    if not isinstance(sources, Mapping):
        return _csgraph_dijkstra(
            mat,
            directed=True,
            indices=list(sources),
            return_predecessors=return_predecessors,
        )
    if return_predecessors:
        raise ValueError("bounded searches return no predecessors")
    out = np.empty((len(sources), g.n))
    for k, (s, limit) in enumerate(sources.items()):
        out[k] = _csgraph_dijkstra(mat, directed=True, indices=int(s), limit=limit)
    return out


def path_from_predecessors(pred_row: np.ndarray, source: int, target: int) -> list | None:
    """Rebuild one node path from a scipy predecessor row."""
    if target == source:
        return [source]
    if pred_row[target] < 0:
        return None
    return _walk_back(pred_row, source, target)


class EdgeStateEngine:
    """Curvature-constrained distances in bulk over one fixed graph.

    A state is a directed edge u -> v.  It is numbered by the CSR slot of
    its reverse v -> u, so the states that end at v fill v's row slice
    ``indptr[v]:indptr[v+1]``: state s has head ``rows[s]``, tail
    ``indices[s]`` and weight ``weights[s]``.  A transition
    (u -> v, v -> w) is kept only if its turn curvature is finite:
    acute turns, backtracks and repeated points are infinite, and no
    finite cap keeps them.  The kept transitions are computed once, in
    state order, as the rows of a CSR layout: ``_indptr`` over states,
    ``_to`` the target state (int32) and ``_curv`` the curvature.

    A query at a finite kappa masks ``_curv <= kappa``, reads the kept
    row pointers off a cumulative sum of the mask, appends one virtual
    start row per graph node (leading to the node's outgoing states) and
    runs the compiled Dijkstra.  The distance to node t is the smallest
    distance of a state that ends at t, so a search stopped at a limit
    still answers every node within it exactly.  kappa = inf is
    answered by :func:`shortest_distances`, which the module docstring
    shows to be exact.  Results match :func:`constrained_shortest`
    exactly.
    """

    def __init__(self, g: NeighborhoodGraph):
        self.g = g
        pts = _graph_points(g)
        rank = lexicographic_rank(pts)
        indptr, tails = g.indptr, g.indices
        deg = np.diff(indptr)
        heads = np.repeat(np.arange(g.n, dtype=np.int64), deg)
        # The state of out-edge slot e = (v, w) is the slot of (w, v): in
        # a symmetric CSR, a stable sort by column lists exactly those.
        self._out_state = np.argsort(tails, kind="stable").astype(np.int32)
        # State s = (u -> v) has one candidate per out-edge slot of v.
        cand = deg[heads]
        ends = np.zeros(len(tails) + 1, dtype=np.int64)
        np.cumsum(cand, out=ends[1:])
        kept = np.zeros(len(tails), dtype=np.int64)
        to, curv = [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
        s0 = 0
        while s0 < len(tails):
            s1 = int(np.searchsorted(ends, ends[s0] + ENGINE_BLOCK, "right")) - 1
            s1 = max(s1, s0 + 1)
            state = np.repeat(np.arange(s0, s1), cand[s0:s1])
            slot = np.arange(ends[s0], ends[s1]) + np.repeat(
                indptr[heads[s0:s1]] - ends[s0:s1], cand[s0:s1]
            )
            c = turn_curvatures(pts, rank, tails[state], heads[state], tails[slot])
            finite = np.isfinite(c)
            to.append(self._out_state[slot[finite]])
            curv.append(c[finite])
            kept[s0:s1] = np.bincount(state[finite] - s0, minlength=s1 - s0)
            s0 = s1
        self._indptr = np.zeros(len(tails) + 1, dtype=np.int64)
        np.cumsum(kept, out=self._indptr[1:])
        self._to = np.concatenate(to)
        self._curv = np.concatenate(curv)

    @property
    def states(self) -> int:
        """Directed edges of the graph."""
        return len(self.g.indices)

    @property
    def transitions(self) -> int:
        """Finite-curvature transitions stored."""
        return len(self._to)

    def distances(self, kappa: float, sources) -> np.ndarray:
        """Distance matrix (len(sources), n) at curvature cap kappa.

        ``sources`` is a list of nodes, or a mapping {source: limit}
        that stops each search at its limit, as in
        :func:`shortest_distances`.
        """
        if not (kappa > 0.0):
            raise ValueError("kappa must be positive (or math.inf)")
        g = self.g
        if math.isinf(kappa):
            return shortest_distances(g, sources)
        m = self.states
        keep = self._curv <= kappa
        ptr = np.concatenate(([0], np.cumsum(keep)))[self._indptr]
        indices = np.concatenate([self._to[keep], self._out_state])
        indptr = np.concatenate([ptr, ptr[-1] + g.indptr[1:]])
        size = m + g.n
        mat = csr_matrix((g.weights[indices], indices, indptr), shape=(size, size))
        # One search per source, each reduced at once to its node minima
        # (the distance to node t is the smallest distance of a state
        # that ends at t): no (sources, states) matrix is ever built.
        if isinstance(sources, Mapping):
            items = list(sources.items())
        else:
            items = [(s, math.inf) for s in sources]
        has_in = np.diff(g.indptr) > 0
        starts = g.indptr[:-1][has_in]
        out = np.full((len(items), g.n), np.inf)
        for k, (s, limit) in enumerate(items):
            dist = _csgraph_dijkstra(
                mat, directed=True, indices=m + int(s), limit=limit
            )
            if has_in.any():
                out[k, has_in] = np.minimum.reduceat(dist[:m], starts)
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
