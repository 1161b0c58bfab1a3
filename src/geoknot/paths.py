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
:func:`geometry.turn_curvature` (row-wise: the arithmetic of
``turn_curvatures``), so the engine and the references agree exactly.

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

from .geometry import _curvature_columns, _dot, lexicographic_rank, turn_curvature
from .graph import NeighborhoodGraph
from .surfaces import _jsonable

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


def path_from_predecessors(pred, source: int, target: int) -> list | None:
    """Node path from source to target along a :class:`DistanceField`'s
    predecessor array, or None if target is unreachable.

    A path has at most len(pred) nodes, so the walk stops there: a
    predecessor array with a cycle or a broken chain raises ValueError.
    """
    if target != source and pred[target] < 0:
        return None
    nodes = [int(target)]
    for _ in range(len(pred)):
        if nodes[-1] == source:
            return nodes[::-1]
        prev = int(pred[nodes[-1]])
        if prev < 0:
            raise ValueError(f"predecessor chain breaks at node {nodes[-1]}")
        nodes.append(prev)
    raise ValueError(f"predecessors of node {target} form a cycle")


def shortest_path_turns(g: NeighborhoodGraph, dist, target: int) -> list | None:
    """Every turn (u, v, w) that lies on some shortest path to target,
    read from one distance row of its source alone; None if target is
    unreachable.

    Edge u -> v is tight when ``dist[u] + w(u, v) == dist[v]``, and a
    node lies on a shortest path to target when it reaches target along
    tight edges.  The turns are the pairs of consecutive tight edges
    (u, v), (v, w) with w on such a path.  Weights are positive, so the
    tight edges form a DAG, and every node of finite distance has a
    tight in-edge unless it is the source.  The walk backward from
    target only compares sums the search itself formed, so the rows of
    :func:`dijkstra` and :func:`shortest_distances` give the same turns,
    whichever of several tied paths either search recorded.
    """
    if not math.isfinite(dist[target]):
        return None
    into = {}  # node on a shortest path -> its tight in-neighbours
    stack = [int(target)]
    while stack:
        v = stack.pop()
        if v in into:
            continue
        nbrs, wts = g.neighbors(v)
        into[v] = nbrs[dist[nbrs] + wts == dist[v]].tolist()
        stack.extend(into[v])
    return [(u, v, w) for w, vs in into.items() for v in vs for u in into[v]]


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
    coords = g.points.tolist()
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
) -> float:
    """Exhaustive minimum over constrained walks; the testing oracle.

    Enumerates every walk of up to n + 3 edges depth-first, allowing
    node revisits but never a repeated directed edge, and keeps walks
    whose interior triples all satisfy the cap (a triple that repeats
    a point never does).  Only viable for tiny graphs.
    """
    if g.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_NODES}")
    if not (kappa > 0.0):
        raise ValueError("kappa must be positive (or math.inf)")
    if source == target:
        return 0.0
    coords = g.points.tolist()
    adj = [
        list(zip(g.neighbors(i)[0].tolist(), g.neighbors(i)[1].tolist()))
        for i in range(g.n)
    ]
    max_hops = g.n + 3
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


# ---------------------------------------------------------------------------
# Batch engines.  Experiments query hundreds of sources over graphs with
# millions of edges; these wrap the compiled searches while the pure
# implementations above stay as the tested reference.

def shortest_distances(g: NeighborhoodGraph, sources) -> np.ndarray:
    """Unconstrained distances from many sources at once, one row per
    source.

    The adjacency already holds both directions of every edge, so the
    search runs on it as a directed graph and skips scipy's
    symmetrisation.  A list of sources is searched in one batched call.
    A mapping {source: limit} runs one search per source, stopped at
    its limit (see the module docstring).
    """
    mat = g.to_csr()
    if not isinstance(sources, Mapping):
        return _csgraph_dijkstra(mat, directed=True, indices=list(sources))
    out = np.empty((len(sources), g.n))
    for k, (_, dist) in enumerate(_searches(mat, sources)):
        out[k] = dist
    return out


def _searches(mat, sources, offset: int = 0):
    """(source, row) of one compiled search per source, from node
    ``offset + source`` of ``mat``: up to its limit for a mapping
    {source: limit}, unbounded for a list of sources."""
    items = sources.items() if isinstance(sources, Mapping) else [(s, math.inf) for s in sources]
    for s, limit in items:
        yield int(s), _csgraph_dijkstra(mat, directed=True, indices=offset + int(s), limit=limit)


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

    The build tests the sign of a.b first (acute turns are infinite),
    counts the obtuse candidates, sizes ``_to`` and ``_curv`` to that
    count and fills them block by block, trimming only if an obtuse turn
    repeats a point; its peak is 1.5 to 1.6 times what it stores on the
    certify graphs (12 bytes per transition, 12 per state).

    A query at a finite kappa masks ``_curv <= kappa``, counts the kept
    transitions per state, copies them and one virtual start row per
    graph node (leading to the node's outgoing states) into one index
    array and runs the compiled Dijkstra.  The distance to node t is the
    smallest distance of a state that ends at t, so a search stopped at
    a limit still answers every node within it exactly.  kappa = inf is
    answered by :func:`shortest_distances`, which the module docstring
    shows to be exact.  Results match :func:`constrained_shortest`
    exactly.
    """

    def __init__(self, g: NeighborhoodGraph):
        self.g = g
        pts = g.points
        rank = lexicographic_rank(pts)
        # Fancy indexing by int32 converts the index on every use, so
        # the tails, which index most of the arrays below, are cast once.
        indptr, tails = g.indptr, g.indices.astype(np.int64)
        deg = np.diff(indptr)
        heads = np.repeat(np.arange(g.n, dtype=np.int64), deg)
        # The state of out-edge slot e = (v, w) is the slot of (w, v): in
        # a symmetric CSR, a stable sort by column lists exactly those.
        self._out_state = np.argsort(tails, kind="stable").astype(np.int32)
        # Slot s points from its row's point to its column's.  For a
        # candidate (state s, out-slot e) the offsets of s and e are the
        # formula's a and b (which is which, the endpoint order decides),
        # so their squares and norms are computed once per slot.
        cols = np.ascontiguousarray(pts.T)
        off = [col[tails] - col[heads] for col in cols]
        sq = _dot(off, off)
        norm = np.sqrt(sq)
        # State s = (u -> v) has one candidate per out-edge slot of v.
        cand = deg[heads]
        ends = np.zeros(len(tails) + 1, dtype=np.int64)
        np.cumsum(cand, out=ends[1:])
        blocks = []
        s0 = 0
        while s0 < len(tails):
            s1 = int(np.searchsorted(ends, ends[s0] + ENGINE_BLOCK, "right")) - 1
            blocks.append((s0, max(s1, s0 + 1)))
            s0 = blocks[-1][1]

        def candidates(s0, s1):
            state = np.repeat(np.arange(s0, s1), cand[s0:s1])
            slot = np.arange(ends[s0], ends[s1]) + np.repeat(
                indptr[heads[s0:s1]] - ends[s0:s1], cand[s0:s1]
            )
            return state, slot

        # Acute turns first: the formula sends a positive a.b to inf, and
        # the dot product does not depend on the endpoint order.  The
        # obtuse candidates bound the transitions, so the output is sized
        # before it is filled.
        obtuse = np.empty(ends[-1], dtype=bool)
        for s0, s1 in blocks:
            state, slot = candidates(s0, s1)
            dot = _dot([o[state] for o in off], [o[slot] for o in off])
            np.less_equal(dot, 0.0, out=obtuse[ends[s0]:ends[s1]])
        self._to = np.empty(np.count_nonzero(obtuse), dtype=np.int32)
        self._curv = np.empty(len(self._to))
        # Kept transitions per state, summed in place into row pointers.
        self._indptr = np.zeros(len(tails) + 1, dtype=np.int64)
        done = 0
        for s0, s1 in blocks:
            state, slot = candidates(s0, s1)
            sel = obtuse[ends[s0]:ends[s1]]
            state, slot = state[sel], slot[sel]
            u, w = tails[state], tails[slot]
            swap = rank[u] > rank[w]
            # The slots whose offsets are a and b, and the endpoints x, z.
            sa = np.where(swap, slot, state)
            sb = np.where(swap, state, slot)
            x = np.where(swap, w, u)
            z = np.where(swap, u, w)
            a = [o[sa] for o in off]
            b = [o[sb] for o in off]
            c = [col[z] - col[x] for col in cols]
            curv = _curvature_columns(a, b, c, sq[sa], norm[sb], _dot(a, b))
            finite = np.isfinite(curv)
            k = done + np.count_nonzero(finite)
            np.compress(finite, self._out_state[slot], out=self._to[done:k])
            np.compress(finite, curv, out=self._curv[done:k])
            self._indptr[s0 + 1:s1 + 1] = np.bincount(
                state[finite] - s0, minlength=s1 - s0
            )
            done = k
        if done < len(self._to):  # an obtuse turn repeated a point or overflowed
            self._to = self._to[:done].copy()
            self._curv = self._curv[:done].copy()
        np.cumsum(self._indptr, out=self._indptr)

    @property
    def states(self) -> int:
        """Directed edges of the graph."""
        return len(self.g.indices)

    @property
    def transitions(self) -> int:
        """Finite-curvature transitions stored."""
        return len(self._to)

    def distinct_curvatures(self) -> np.ndarray:
        """Sorted distinct stored curvatures, the finite caps at which
        distances can change; computed per call, never kept."""
        return np.unique(self._curv)

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
        # Row lengths, summed in place into row pointers: the kept
        # transitions of each state (counted in int32, not over an int64
        # copy of the mask), then the out-degrees of the start rows.
        rows = np.flatnonzero(np.diff(self._indptr))
        indptr = np.zeros(m + g.n + 1, dtype=np.int64)
        indptr[rows + 1] = np.add.reduceat(
            keep.view(np.int8), self._indptr[rows], dtype=np.int32
        )
        indptr[m + 1:] = np.diff(g.indptr)
        np.cumsum(indptr, out=indptr)
        kept = int(indptr[m])
        indices = np.empty(kept + m, dtype=np.int32)
        np.compress(keep, self._to, out=indices[:kept])
        indices[kept:] = self._out_state
        size = m + g.n
        mat = csr_matrix((g.weights[indices], indices, indptr), shape=(size, size))
        # One search per source, each reduced at once to its node minima
        # (the distance to node t is the smallest distance of a state
        # that ends at t): no (sources, states) matrix is ever built.
        has_in = np.diff(g.indptr) > 0
        starts = g.indptr[:-1][has_in]
        out = np.full((len(sources), g.n), np.inf)
        for k, (s, dist) in enumerate(_searches(mat, sources, offset=m)):
            if has_in.any():
                out[k, has_in] = np.minimum.reduceat(dist[:m], starts)
            out[k, s] = 0.0
        return out


# ---------------------------------------------------------------------------
# Path JSON: the one external format of this module.

def path_result_payload(
    result: PathResult, source: int, target: int, kappa: float
) -> dict:
    """JSON-ready dict for a path query; infinities spell "inf"."""
    return _jsonable({
        "source": int(source),
        "target": int(target),
        "kappa": float(kappa),
        "length": float(result.length),
        "nodes": [int(v) for v in result.nodes],
        "max_interior_curvature": float(result.max_interior_curvature),
        "feasible": bool(result.feasible),
    })
