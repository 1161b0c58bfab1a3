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
lays out only the transitions a cap admits, those of finite curvature
within it, and sends kappa = inf to plain Dijkstra.  Every search
computes turn curvatures with the one formula of
:func:`geometry.turn_curvature` (row-wise: the same arithmetic in
``geometry._curvature_columns``), so the engine and the references
agree exactly.

Both bulk searches also take their sources as a mapping
{source: limit}, which stops each search at its own distance limit.
Within the limit the answer is exact, bit for bit: every prefix of a
shortest walk ends no farther than the walk itself (again, a
nonnegative weight never lowers a float partial sum), so the bounded
search settles every node on it with the same value.  Nodes beyond
the limit read ``inf``; a caller that needs them searches again
without one.

:func:`shortest_distances` also takes the targets a caller reads from
each bounded row and then searches only the source's chord lens: the
rows of the nodes that a walk no longer than the limit to a target can
visit, since a walk is never shorter than its chord
(:func:`_chord_lens`).  The row stays exact at the targets and on every
such walk, so the turns read from it are the same too.

The single-pair queries :func:`query_shortest` and
:func:`query_constrained` answer one source and target from the
compiled searches and return the :class:`PathResult` of the references
(:func:`dijkstra` with :func:`path_from_predecessors`, and
:func:`constrained_shortest`) exactly, nodes included: they walk back
along tight edges or states with the references' tie rules.  Those rules
hold while every increment raises the float sum it is added to; a graph
with a weight small enough to round away is answered by the reference.
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

# A search that serves given pairs stops at a rung of SEARCH_REACH times
# a distance it expects: a runner at its farthest pair's oracle, a
# constrained query at the pair's unconstrained distance.  Graph
# distances stay within a few percent of the oracle on the benchmark
# inputs (on certify's runs at a fixed cap or none, graph/oracle ratios
# have medians of 0.999-1.013 and reach 1.077 and 1.081 on the cylinder;
# only the bisecting run's low caps go far beyond), so the first rung
# seldom cuts a pair off, while it spares the search most of the graph.
# A runner's source that misses a target is searched again at the next
# rung, and after the last one without a limit; a constrained query
# widens from the last rung.  The rungs trade speed only, never the
# answer.
SEARCH_REACH = (1.05, 1.25)

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

def shortest_distances(g: NeighborhoodGraph, sources, targets=None) -> np.ndarray:
    """Unconstrained distances from many sources at once, one row per
    source.

    The adjacency already holds both directions of every edge, so the
    search runs on it as a directed graph and skips scipy's
    symmetrisation.  A list of sources is searched in one batched call.
    A mapping {source: limit} runs one search per source, stopped at
    its limit (see the module docstring).

    ``targets`` {source: [target, ...]} names the nodes a caller reads
    from each row of such a mapping.  A source with a finite limit and
    targets is then searched on its chord lens alone (:func:`_chord_lens`):
    the nodes outside keep their label but are never expanded.  Its row
    is exact at every target and at every node of a walk to a target
    that is no longer than the limit; a target beyond the limit reads
    ``inf``, as without the lens.  Elsewhere the row reads ``inf`` or a
    value at least the distance.  A source without targets, or with an
    infinite limit, is searched on the whole graph.  Every target, at
    any limit, must lie in [0, n), and the sources as
    :func:`_checked_sources` says.
    """
    items = _checked_sources(g, sources)
    if not isinstance(sources, Mapping):
        return _csgraph_dijkstra(g.to_csr(), directed=True, indices=[s for s, _ in items])
    targets = targets or {}
    out = np.empty((len(items), g.n))
    for k, (s, limit) in enumerate(items):
        mine = np.unique(np.asarray(targets.get(s, ()), dtype=np.int64))
        if len(mine) and (mine[0] < 0 or mine[-1] >= g.n):
            raise ValueError("target out of range")
        lens = _chord_lens(g, s, limit, mine)
        out[k] = _csgraph_dijkstra(g.to_csr() if lens is None else lens, directed=True,
                                   indices=s, limit=limit)
    return out


def _checked_sources(g: NeighborhoodGraph, sources) -> list:
    """(source, limit) of each search that a list of sources (no limit)
    or a mapping {source: limit} asks for.  A source must be an integer
    in [0, n), as for :func:`dijkstra`, and a limit >= 0, or ValueError:
    scipy reads -1 as node n - 1, 1.5 as node 1 and a nan limit as a
    search that reaches nothing, and the engine would start elsewhere.
    """
    items = sources.items() if isinstance(sources, Mapping) else ((s, math.inf) for s in sources)
    checked = []
    for s, limit in items:
        if not (isinstance(s, (int, np.integer)) and 0 <= s < g.n):
            raise ValueError("source out of range")
        if not limit >= 0.0:
            raise ValueError("limit must be >= 0")
        checked.append((int(s), limit))
    return checked


def _chord_lens(g: NeighborhoodGraph, source: int, limit: float, targets) -> csr_matrix | None:
    """g's CSR with the rows of the nodes outside the chord lens of
    ``source`` and ``targets`` (distinct, sorted, checked) emptied, or
    None when the search takes no lens: no targets, an infinite limit,
    or no chord ratio rho to trust (:attr:`NeighborhoodGraph.chord_ratio`
    is 0).

    **The lens.**  A walk is never shorter than the chord between its
    ends (Bernstein, de Silva, Langford and Tenenbaum 2000), so a walk of
    length at most L from source s to a target t visits only nodes x
    with rho * (|s - x| + |x - t|) <= L.  With key(x) = |s - x| + the
    least |x - t| over the targets, each chord computed by
    :func:`_chords`, the lens holds the nodes where ``rho * key <= L *
    tol`` is not false, for ``tol = 1 + (m + D + 8) * 2**-51``, m the
    graph's slots and D its coordinates.  A chord or key that overflows
    bounds nothing, so it is set to NaN, which the test keeps inside.

    **Why tol suffices** (u = 2**-53).  Take a walk whose float length,
    the search's sum, is C <= L, and a node x on it.

    - The least float sum to a node is reached on a simple path, and a
      node on a tight walk to t (as :func:`shortest_path_turns` reads
      them) joins a simple path from s with one to t: the walk has
      h <= m edges, as a component of k nodes has at least 2 (k - 1)
      slots.
    - The float sum C of h nonnegative weights is at least (1 - u)**h
      times their exact sum S.
    - A computed length, of a slot or a key's chord, lies within a
      factor (1 +- u)**a of the exact Euclidean length, a = D / 2 + 2
      (the differences, the squares, D - 1 additions and the root).
      rho is at most every slot's weight over its computed length, so
      rho times the exact chords, which the triangle inequality bounds
      by the slots' exact lengths, is at most (1 - u)**-a * S.
    - The key adds two chords and one rounding.  So ``rho * key`` is at
      most (1 + u)**(a + 1) * (1 - u)**-(a + m) * L, below
      ``(1 + 1.01 (m + D + 5) u) * L`` and so below ``L * tol``, and
      rounding is monotone, so the float test keeps x.  tol itself is
      exact: (m + D + 8) * 2**-51 is a multiple of 2**-52 below 1.
    - Underflow stays far inside the slack.  Every slot that rho reads
      is at least 2**-400 long, so its squares move it by a factor
      below 1 + D * 2**-275.  A key's squares move it by at most
      2 sqrt(D) * 2**-537, while rho * key is held against L, which is
      at least the lightest weight, so at least rho * 2**-400 (a walk
      with no edge has key 0).

    **The slice.**  The lens rows are sliced from g's CSR with g's node
    numbering and columns; every other row is empty.  Emptying rows
    keeps the search exact on the lens: the walks above expand only
    nodes inside it.
    """
    if len(targets) == 0 or not math.isfinite(limit):
        return None
    rho = g.chord_ratio
    if not 0.0 < rho < math.inf:
        return None
    cols = np.ascontiguousarray(g.points.T)
    with np.errstate(over="ignore"):
        near = _chords(cols, targets[0])
        for t in targets[1:]:
            np.minimum(near, _chords(cols, t), out=near)
        key = _chords(cols, source)
        key += near
        key[np.isinf(key)] = np.nan
        tol = 1.0 + (len(g.indices) + len(cols) + 8) * 2.0**-51
        inside = ~(rho * key > limit * tol)
    rows = np.flatnonzero(inside)
    counts = np.diff(g.indptr)[rows]
    indptr = np.zeros(g.n + 1, dtype=np.int32)
    indptr[rows + 1] = counts
    np.cumsum(indptr, out=indptr)
    # Lens row k's slots of g: its offset in g minus its offset in the
    # slice, plus the running position (int32, like g's own slot ids,
    # and added in place, to keep a large lens's scratch small).
    slots = np.repeat(g.indptr[rows] - indptr[rows], counts)
    slots += np.arange(indptr[-1], dtype=np.int32)
    return csr_matrix((g.weights[slots], g.indices[slots], indptr), shape=(g.n, g.n))


def _chords(cols, i: int) -> np.ndarray:
    """The Euclidean distance from point i to every point, from the
    coordinate columns ``cols``: differences, squares, their sum and the
    root, a column at a time.  These are the operations of
    :func:`graph._lengths`, but not its results bit for bit (its einsum
    sums the squares in another order); the lens needs only their error
    bound."""
    sq = None
    for col in cols:
        d = col - col[i]
        d *= d
        sq = d if sq is None else np.add(sq, d, out=sq)
    return np.sqrt(sq, out=sq)


class EdgeStateEngine:
    """Curvature-constrained distances in bulk over one fixed graph.

    A state is a directed edge u -> v.  It is numbered by the CSR slot of
    its reverse v -> u, so the states that end at v fill v's row slice
    ``indptr[v]:indptr[v+1]``: state s has head ``rows[s]``, tail
    ``indices[s]`` and weight ``weights[s]``.  A transition
    (u -> v, v -> w) is a turn; only turns of finite curvature count,
    since acute turns, backtracks and repeated points are infinite and
    no finite cap keeps them.

    Between searches the engine keeps only the reverse slots (4 bytes
    per state).  One blockwise pass turns the graph into the finite
    turns in state order: the sign of a.b first (acute turns are
    infinite), then the curvature of the obtuse candidates.  The pass
    lays out its per-slot geometry when it starts (each slot's offset
    vector, its squared norm and norm, the points' lexicographic rank
    and coordinates, and the blocks of about ENGINE_BLOCK candidate
    turns: 40 bytes per state and 32 per node in 3-D) and frees it when
    it ends.  A query at a finite kappa lays out the state CSR of that
    cap from the pass, keeping the turns of curvature <= kappa, plus one
    virtual start row per graph node (leading to the node's outgoing
    states), and runs the compiled Dijkstra.  The CSR of the last cap is
    kept, so the searches of a source up the reach ladder at one cap lay
    it out once; it is dropped before another cap is laid out.

    :meth:`distinct_curvatures` is the one method that keeps every
    finite turn: it keeps the blocks of its pass as the turn table, and
    every later pass replays them, so a search over many caps computes
    each curvature once, and the geometry is never laid out again.  A
    block (s0, s1, ptr, to, curv) holds the turns of states s0..s1-1:
    ``ptr`` their row pointers, ``to`` the target states as int32 and
    ``curv`` the curvatures, 12 bytes per turn and 8 per state.

    The distance to node t is the smallest distance of a state that
    ends at t, so a search stopped at a limit still answers every node
    within it exactly.  kappa = inf is answered by
    :func:`shortest_distances`, which the module docstring shows to be
    exact.  Results match :func:`constrained_shortest` exactly.
    """

    def __init__(self, g: NeighborhoodGraph):
        self.g = g
        # The state of out-edge slot e = (v, w) is the slot of (w, v): in
        # a symmetric CSR, a stable sort by column lists exactly those.
        self._out_state = np.argsort(g.indices, kind="stable").astype(np.int32)
        self._table = None  # the kept blocks of the turn pass
        self._transitions = None
        self._cap = self._mat = None

    @property
    def states(self) -> int:
        """Directed edges of the graph."""
        return len(self.g.indices)

    @property
    def transitions(self) -> int | None:
        """Finite-curvature transitions, counted by the first pass over
        them, or None before any pass: a search at kappa = inf makes
        none."""
        return self._transitions

    def distinct_curvatures(self) -> np.ndarray:
        """Sorted distinct finite turn curvatures, the finite caps at
        which distances can change.

        The first call keeps the turn table for every later search; the
        sorted values are computed per call, never kept.
        """
        if self._table is None:
            self._table = list(self._turns())
        # np.unique, without its extra copies: one joined copy, sorted in
        # place, and a mask.  The empty seed answers a graph with no turn.
        curv = np.concatenate([np.zeros(0), *(block[4] for block in self._table)])
        curv.sort()
        first = np.ones(len(curv), dtype=bool)
        np.not_equal(curv[1:], curv[:-1], out=first[1:])
        return curv[first]

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
        # One search per source, each reduced at once to its node minima
        # (the distance to node t is the smallest distance of a state
        # that ends at t): no (sources, states) matrix is ever built.
        has_in = np.diff(g.indptr) > 0
        starts = g.indptr[:-1][has_in]
        out = np.full((len(sources), g.n), np.inf)
        for k, (s, dist) in enumerate(self._state_rows(kappa, sources)):
            if has_in.any():
                out[k, has_in] = np.minimum.reduceat(dist, starts)
            out[k, s] = 0.0
        return out

    def _state_rows(self, kappa: float, sources):
        """(source, row) of one search per source at the finite cap
        kappa, from the source's start row, the row holding the distance
        of every state: up to its limit for a mapping {source: limit},
        unbounded for a list of sources."""
        items = _checked_sources(self.g, sources)
        if kappa != self._cap:
            self._cap = self._mat = None  # never two caps' layouts at once
            self._mat = self._state_csr(kappa)
            self._cap = kappa
        m = self.states
        for s, limit in items:
            dist = _csgraph_dijkstra(self._mat, directed=True, indices=m + s, limit=limit)
            yield s, dist[:m]

    def _geometry(self) -> tuple:
        """The per-slot geometry of one turn pass: (rank, cols, off, sq,
        norm, blocks), the points' lexicographic rank and coordinate
        columns, each slot's offset vector, its squared norm and norm,
        and the (s0, s1) blocks of about ENGINE_BLOCK candidate turns."""
        g = self.g
        indptr, tails = g.indptr, g.indices
        heads = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr))
        # Slot s points from its row's point to its column's.  For a
        # candidate (state s, out-slot e) the offsets of s and e are the
        # formula's a and b (which is which, the endpoint order decides),
        # so their squares and norms are computed once per slot.
        cols = np.ascontiguousarray(g.points.T)
        off = cols[:, tails] - cols[:, heads]
        sq = _dot(off, off)
        # State s = (u -> v) has one candidate per out-edge slot of v.
        ends = np.zeros(len(tails) + 1, dtype=np.int64)
        np.cumsum(np.diff(indptr)[heads], out=ends[1:])
        blocks = []
        s0 = 0
        while s0 < len(tails):
            s1 = int(np.searchsorted(ends, ends[s0] + ENGINE_BLOCK, "right")) - 1
            blocks.append((s0, max(s1, s0 + 1)))
            s0 = blocks[-1][1]
        return lexicographic_rank(g.points), cols, off, sq, np.sqrt(sq), blocks

    def _candidates(self, off, s0: int, s1: int) -> tuple:
        """(state, out-slot, a.b) of every candidate turn of states
        s0..s1-1, in state order, from the slot offsets ``off``."""
        indptr = self.g.indptr
        heads = np.searchsorted(indptr, np.arange(s0, s1), "right") - 1
        first = indptr[heads]
        cand = indptr[heads + 1] - first
        ends = np.cumsum(cand)
        state = np.repeat(np.arange(s0, s1), cand)
        slot = np.arange(ends[-1]) + np.repeat(first - (ends - cand), cand)
        # _dot's sum, gathering one coordinate at a time.
        dot = off[0][state] * off[0][slot]
        for o in off[1:]:
            dot += o[state] * o[slot]
        return state, slot, dot

    def _turns(self):
        """The finite turns in state order, as blocks (s0, s1, ptr, to,
        curv): the turns of states s0..s1-1, with ``ptr`` their row
        pointers into ``to`` (target states) and ``curv`` (curvatures).

        Replayed from the turn table once there is one; computed
        otherwise from the geometry, which lives for this pass alone: it
        is laid out when the pass starts and freed with the generator
        when the pass ends.
        """
        if self._table is not None:
            yield from self._table
            return
        tails = self.g.indices
        rank, cols, off, sq, norm, blocks = self._geometry()
        count = 0
        for s0, s1 in blocks:
            state, slot, dot = self._candidates(off, s0, s1)
            # Acute turns first: the formula sends a positive a.b to inf,
            # and the dot product does not depend on the endpoint order.
            # (Taking by index beats a boolean mask that is true at random.)
            obtuse = np.flatnonzero(dot <= 0.0)
            state, slot, dot = state[obtuse], slot[obtuse], dot[obtuse]
            # Fancy indexing by int32 converts the index on every use, so
            # the endpoints, which index several arrays, are cast once.
            u, w = tails[state].astype(np.int64), tails[slot].astype(np.int64)
            swap = rank[u] > rank[w]
            # The slots whose offsets are a and b, and the endpoints x, z.
            sa = np.where(swap, slot, state)
            sb = np.where(swap, state, slot)
            x = np.where(swap, w, u)
            z = np.where(swap, u, w)
            a = [o[sa] for o in off]
            b = [o[sb] for o in off]
            c = [col[z] - col[x] for col in cols]
            curv = _curvature_columns(a, b, c, sq[sa], norm[sb], dot)
            finite = np.isfinite(curv)
            ptr = np.zeros(s1 - s0 + 1, dtype=np.int64)
            np.cumsum(np.bincount(state[finite] - s0, minlength=s1 - s0), out=ptr[1:])
            count += int(ptr[-1])
            yield s0, s1, ptr, self._out_state[slot[finite]], curv[finite]
        self._transitions = count

    def _state_csr(self, kappa: float) -> csr_matrix:
        """The state graph at cap kappa: the turns of curvature <= kappa
        in state order, then one start row per graph node."""
        g, m = self.g, self.states
        # Row lengths, summed in place into row pointers: the kept turns
        # of each state (counted in int32, not over an int64 copy of the
        # mask), then the out-degrees of the start rows.
        indptr = np.zeros(m + g.n + 1, dtype=np.int64)

        def kept():
            for s0, _, ptr, to, curv in self._turns():
                keep = curv <= kappa
                rows = np.flatnonzero(np.diff(ptr))
                if len(rows):
                    indptr[s0 + 1 + rows] = np.add.reduceat(
                        keep.view(np.int8), ptr[rows], dtype=np.int32
                    )
                yield np.compress(keep, to)

        indices = np.concatenate([*kept(), self._out_state])
        indptr[m + 1:] = np.diff(g.indptr)
        np.cumsum(indptr, out=indptr)
        size = m + g.n
        return csr_matrix((g.weights[indices], indices, indptr), shape=(size, size))


# ---------------------------------------------------------------------------
# Single-pair queries: the compiled searches, answering as the references.

def query_shortest(g: NeighborhoodGraph, source: int, target: int) -> PathResult:
    """The shortest path from source to target that :func:`dijkstra`
    and :func:`path_from_predecessors` give, from one compiled row.

    The row is :func:`shortest_distances` from source, the distances
    :func:`dijkstra` computes (both are the least float sum over the
    walks to each node).  The walk back from target steps to the
    smallest in-neighbour u with ``dist[u] + w(u, v) == dist[v]``.  That
    is :func:`dijkstra`'s predecessor of v whenever every such u is
    strictly closer than v: each is then settled before v, and its tie
    rule keeps the smallest.  An increment that rounds to zero breaks
    this, so a graph where one can occur (see :func:`_sums_grow`)
    is answered by :func:`dijkstra` itself.  ``max_interior_curvature``
    comes from :func:`path_max_curvature`.
    """
    _check_endpoints(g, source, target)
    dist = shortest_distances(g, [source])[0]
    if math.isinf(dist[target]):
        return PathResult([], math.inf, 0.0, False)
    if _sums_grow(g, dist[target]):
        nodes = [target]
        while nodes[-1] != source:
            nbrs, wts = g.neighbors(nodes[-1])
            tight = dist[nbrs] + wts == dist[nodes[-1]]
            nodes.append(int(nbrs[np.argmax(tight)]))  # rows are sorted: the smallest
        nodes.reverse()
    else:
        nodes = path_from_predecessors(dijkstra(g, source).predecessor, source, target)
    return PathResult(nodes, float(dist[target]), path_max_curvature(g.points[nodes]), True)


def query_constrained(
    g: NeighborhoodGraph, kappa: float, source: int, target: int
) -> PathResult:
    """The walk :func:`constrained_shortest` returns, found by
    :class:`EdgeStateEngine` on the pair's distance lens.

    **The lens.**  With d_s and d_t the unconstrained rows from source
    and target (one :func:`shortest_distances` call), the lens of a
    reach L holds the nodes x with ``d_s[x] + d_t[x] <= L * tol``,
    where ``tol = 1 + (m + 1) * 2**-51`` for the graph's m states.  No
    node of a walk whose float length C (the engine's sum, weight by
    weight from source) is at most L lies outside the lens, if the walk
    repeats no state:

    - d_s is at most the float prefix sum P of the walk up to x: by
      induction along the walk, since ``d_s[v] <= fl(d_s[u] + w)`` for
      every edge and float addition is monotone.  Likewise d_t is at
      most the float sum Q of the walk's rest, added from target.
    - A float sum of h nonnegative terms lies within a factor
      (1 +- u)**h of the exact sum (u = 2**-53, Higham's bound), and h
      is at most m.  So ``fl(d_s[x] + d_t[x]) <= (1 + u)(P + Q) <=
      ((1 + u) / (1 - u))**(m + 1) * C``, which is below
      ``1 + 2.03 (m + 1) u`` times L for every graph that csgraph
      indexes (m < 2**31).  Rounding ``tol`` and ``L * tol`` costs
      under 2u, and the slack of tol is 4 (m + 1) u.

    **The search.**  The lens's induced subgraph is sliced from g's
    layout (:func:`_induced`) with the weights as given, its nodes in
    increasing order, so "smaller index" means what it means in g.  The
    engine searches it at kappa from the source's start row.  The final
    state is the least (cost, tail) of the states that end at target,
    the first that :func:`constrained_shortest` pops; the walk back takes
    the predecessor state of least tail whose turn is within kappa and
    whose cost is tight, the parent its tie rule keeps.

    **Widening.**  L starts at SEARCH_REACH[-1] times d_s[target].  A walk
    of length C <= L is the whole graph's answer: the answer, and every
    walk through a tight predecessor state (its costs strictly increase,
    so it repeats no state), costs at most C, lies in the lens and keeps
    its costs there.  A longer walk of length C sets L = C, so the next
    lens holds the answer and accepts it; no walk at all doubles L, at
    least up to the next node outside.  Once the lens holds every node
    reachable from both ends, its answer is the graph's, an infeasible
    one included.

    The tie rules need every increment to raise its sum: a graph where
    one can round away (see :func:`_sums_grow`), or whose weights
    could overflow a sum, is answered by :func:`constrained_shortest`,
    and so is kappa = inf, where the engine drops the acute turns the
    reference keeps.
    """
    if not (kappa > 0.0):
        raise ValueError("kappa must be positive (or math.inf)")
    _check_endpoints(g, source, target)
    if source == target:
        return PathResult([source], 0.0, 0.0, True)
    if math.isinf(kappa) or not g.weights.sum() < 2.0**1000:
        return constrained_shortest(g, kappa, source, target)
    d_s, d_t = shortest_distances(g, [source, target])
    if math.isinf(d_s[target]):
        return PathResult([], math.inf, 0.0, False)
    key = d_s + d_t
    full = key[np.isfinite(key)].max()
    tol = 1.0 + (len(g.indices) + 1) * 2.0**-51
    reach = SEARCH_REACH[-1] * d_s[target]
    while True:
        inside = key <= reach * tol
        last = reach * tol >= full
        sub, nodes = _induced(g, inside)
        s, t = (int(x) for x in np.searchsorted(nodes, [source, target]))
        [(_, dist)] = EdgeStateEngine(sub)._state_rows(kappa, [s])
        lo = sub.indptr[t]
        final = lo + int(np.argmin(dist[lo:sub.indptr[t + 1]]))
        length = float(dist[final])
        if length <= reach or (last and length < math.inf):
            break
        if last:
            return PathResult([], math.inf, 0.0, False)
        reach = length if length < math.inf else max(2.0 * reach, key[~inside].min())
    if not _sums_grow(g, length):
        return constrained_shortest(g, kappa, source, target)
    coords = sub.points.tolist()
    walk, k = [t], final
    while walk[-1] != s:
        # State k is (u -> v); its predecessors (x -> u) fill u's row.
        u, v = int(sub.indices[k]), walk[-1]
        walk.append(u)
        lo = sub.indptr[u]
        for p in lo + np.flatnonzero(dist[lo:sub.indptr[u + 1]] + sub.weights[k] == dist[k]):
            x = int(sub.indices[p])
            if x != v and turn_curvature(coords[x], coords[u], coords[v]) <= kappa:
                k = p
                break
    walk.reverse()
    return PathResult(
        [int(nodes[x]) for x in walk], length, _max_turn([coords[x] for x in walk]), True
    )


def _check_endpoints(g: NeighborhoodGraph, source: int, target: int):
    if not (0 <= source < g.n and 0 <= target < g.n):
        raise ValueError("endpoint out of range")


def _sums_grow(g: NeighborhoodGraph, length: float) -> bool:
    """True when adding any weight w of g to a float sum d <= length
    raises it: w * 2**53 > length, so w exceeds half the gap above a
    normal d, and a subnormal d grows by at least 2**-1074 anyway."""
    return len(g.weights) == 0 or bool(g.weights.min() * 2.0**53 > length)


def _induced(g: NeighborhoodGraph, inside) -> tuple:
    """(subgraph, nodes): the subgraph that the nodes where ``inside``
    is true induce, and those nodes in increasing order (subgraph node
    k is ``nodes[k]``).

    It is sliced from g's CSR: the rows of the nodes inside, keeping the
    slots whose column is inside, relabelled by the running count of
    nodes inside.  The labels grow with the node, so rows stay sorted,
    and a subgraph of a checked graph needs none of the edge checks of
    :func:`graph_from_edges` again.
    """
    nodes = np.flatnonzero(inside)
    label = (np.cumsum(inside) - 1).astype(np.int32)
    starts = g.indptr[nodes].astype(np.int64)
    counts = g.indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    # The lens rows' slots of g, row after row: each row's offset in g
    # minus its offset in the concatenation, plus the running position.
    slots = np.arange(counts.sum()) + np.repeat(starts - ends + counts, counts)
    keep = inside[g.indices[slots]]
    slots = slots[keep]
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    indptr = kept_before[np.concatenate([[0], ends])]
    sub = NeighborhoodGraph(g.points[nodes], g.kind, g.r, g.alpha, indptr.astype(np.int32),
                            label[g.indices[slots]], g.weights[slots])
    return sub, nodes


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
