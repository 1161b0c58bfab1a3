"""Neighborhood graphs over point samples.

Two kinds: the r-ball graph joins points within Euclidean distance r,
the (r, alpha)-annulus graph additionally drops edges shorter than
alpha*r.  Both use non-strict inequalities, so distances landing exactly
on a boundary are kept.  Edge weights are the Euclidean distances,
stored as computed in double precision.

Candidate pairs come from a KD-tree radius query; each candidate is then
re-measured and filtered exactly, so the tree's own rounding never
decides an edge.  The builder hands on only the kept pairs: the layout
measures each stored slot again with the same arithmetic, so a built
graph never holds its edge list and its weights at once.  A brute-force
all-pairs builder is retained for small inputs as the testing oracle.
"""

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csgraph, csr_matrix
from scipy.spatial import cKDTree

from .surfaces import INDEX_LIMIT, SampleSet, _csv_text, _fmt, _loadtxt_rows
from .twin import csv_key, read_twin, write_csv, write_twin

BRUTE_FORCE_LIMIT = 2000

# The builder measures candidate pairs, and the layout and
# NeighborhoodGraph.chord_ratio measure slots, in blocks of this many, so
# their scratch stays small next to the edge list or layout.
EDGE_BLOCK = 1 << 16

# One edge-list row of a graph file.
EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])

# A graph twin's format tag and arrays: weights, indptr, indices.
GRAPH_TWIN = b"geoknot graph twin 1\n"
GRAPH_DTYPES = ("<f8", "<i4", "<i4")


@dataclass(frozen=True)
class NeighborhoodGraph:
    """Undirected weighted graph over a point sample, in compressed
    sparse row layout.

    Node i is ``points[i]``, so the graph has ``len(points)`` nodes and
    curvature-aware searches can look at triples of them.
    ``indices[indptr[i]:indptr[i+1]]`` are the neighbors of node i in
    increasing order, ``weights`` the matching edge lengths.  Make one
    with :func:`graph_from_edges`, which checks its parameters and edges.

    ``indptr`` and ``indices`` are int32 and ``weights`` float64: 12
    bytes per directed edge, 24 per undirected one, plus 4 per node.
    These are the arrays csgraph searches, so :meth:`to_csr` shares
    them rather than copying.  int32 limits a graph to fewer than 2**31
    nodes and 2**31 directed edges; :func:`graph_from_edges` rejects
    larger ones.
    """

    points: np.ndarray
    kind: str  # "ball" | "annulus"
    r: float
    alpha: float | None
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.points)

    def neighbors(self, i: int):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edge_count(self) -> int:
        return int(len(self.indices)) // 2

    def edge_list(self):
        """The edges i < j as arrays (ii, jj, ww), in row order: the
        input :func:`graph_from_edges` takes."""
        rows = np.repeat(np.arange(self.n, dtype=np.int32), self.degrees())
        keep = self.indices > rows
        return rows[keep], self.indices[keep], self.weights[keep]

    def to_csr(self) -> csr_matrix:
        return csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(self.n, self.n)
        )

    @functools.cached_property
    def chord_ratio(self) -> float:
        """rho, a lower bound on every slot's weight over its Euclidean
        length, or 0 when there is none to trust; the chord lens of
        ``paths.shortest_distances`` reads it.

        Each slot is measured by :func:`_lengths`, the arithmetic that
        weighs a built graph.  The least float quotient, stepped down one
        ulp, is at most every exact quotient; when no weight is below its
        length, 1 is at most every quotient too, and the larger of the
        two is kept.  So a built graph has rho = 1 exactly, and a
        perturbed one about 1/(1 + p).  A slot whose length overflows
        gives a quotient of 0; a slot shorter than 2**-400, whose squares
        may have underflowed, or a graph with no slot gives 0 as well.

        It is computed once per graph object (a perturbed graph is a new
        one), EDGE_BLOCK slots at a time, so no slot-long array is made.
        """
        least, shortest, short = math.inf, math.inf, False
        for s, e, rows in _slot_blocks(self.indptr, self.indices):
            lengths = _lengths(self.points, rows, self.indices[s:e])
            weights = self.weights[s:e]
            with np.errstate(over="ignore", under="ignore", divide="ignore"):
                least = min(least, float((weights / lengths).min()))
            shortest = min(shortest, float(lengths.min()))
            short = short or bool((weights < lengths).any())
        if not (shortest >= 2.0**-400 and 0.0 < least < math.inf):
            return 0.0
        rho = math.nextafter(least, 0.0)
        return rho if short else max(rho, 1.0)


def _points_of(sample) -> np.ndarray:
    """The points of a graph's sample as an (n, D) float64 array: at
    least one coordinate, at least 2 and fewer than 2**31 points, every
    coordinate finite.  The counts go first, so an oversized input
    fails before any coordinate is read."""
    pts = sample.points if isinstance(sample, SampleSet) else np.asarray(sample, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError("points must be an (n, D) array with D >= 1")
    n = len(pts)
    if n < 2:
        raise ValueError("need at least 2 points to build a graph")
    if n >= INDEX_LIMIT:
        raise ValueError(f"a graph holds fewer than 2**31 nodes, got {n}")
    if not np.isfinite(pts).all():
        raise ValueError("points must have finite coordinates")
    return pts


def _lengths(pts, rows, cols) -> np.ndarray:
    """|pts[rows] - pts[cols]| per entry.  The builder's filter and the
    layout's weights both come from here, so they agree bit for bit;
    swapping rows and cols negates every difference exactly, so both
    directions of an edge get the same length."""
    diff = pts.take(rows, 0)
    diff -= pts.take(cols, 0)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _pair_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _edge_mask(d: np.ndarray, r: float, alpha: float | None) -> np.ndarray:
    mask = (d <= r) & (d > 0.0)
    if alpha is not None:
        mask &= d >= alpha * r
    return mask


def _kdtree_edges(pts, r, alpha):
    """The edges i < j as int32 (ii, jj) without weights: the layout
    weighs each edge by the length this filter measured (:func:`_lengths`).

    The tree's own distance test is widened so that it never drops a
    pair the exact mask would keep.  Candidates are measured a block at
    a time, and the kept ones move to the front of the arrays that
    already hold them, so nothing edge-long is copied.
    """
    pairs = cKDTree(pts).query_pairs(r * (1.0 + 1e-9), output_type="ndarray")
    ii, jj = (np.array(col, dtype=np.int32) for col in pairs.T)
    del pairs
    kept = 0
    for k in range(0, len(ii), EDGE_BLOCK):
        bi, bj = ii[k:k + EDGE_BLOCK], jj[k:k + EDGE_BLOCK]
        keep = _edge_mask(_lengths(pts, bi, bj), r, alpha)
        m = kept + int(np.count_nonzero(keep))
        ii[kept:m], jj[kept:m] = bi[keep], bj[keep]
        kept = m
    return ii[:kept], jj[:kept]


def _brute_edges(pts, r, alpha):
    if len(pts) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force construction is limited to n <= {BRUTE_FORCE_LIMIT}")
    d = _pair_distance_matrix(pts, pts)
    mask = np.triu(_edge_mask(d, r, alpha), k=1)
    ii, jj = np.nonzero(mask)
    return ii, jj, d[ii, jj]


def _first_coincident(pts, ii, jj) -> int | None:
    """The first row whose two endpoints are the same point, or None.
    Rows are compared a block at a time, and only those that tie on
    column 0 are compared further."""
    for k in range(0, len(ii), EDGE_BLOCK):
        bi, bj = ii[k:k + EDGE_BLOCK], jj[k:k + EDGE_BLOCK]
        bad = np.flatnonzero(pts[bi, 0] == pts[bj, 0])
        for c in range(1, pts.shape[1]):
            bad = bad[pts[bi[bad], c] == pts[bj[bad], c]]
        if len(bad):
            return k + int(bad[0])
    return None


class EdgeError(ValueError):
    """An edge list that breaks a rule of :func:`graph_from_edges`:
    ``row`` is the position of the first bad row, ``what`` the rule, and
    ``first`` the position of the earlier listing of a duplicate edge."""

    def __init__(self, what: str, row: int, first: int | None = None):
        self.what, self.row, self.first = what, row, first
        again = "" if first is None else f" (first in row {first})"
        super().__init__(f"row {row}: {what}{again}")


def check_graph_params(kind: str, r: float, alpha: float | None):
    """Raise ValueError unless r is positive and finite and alpha suits
    the kind: none for a ball graph, 0 <= alpha < 1 for an annulus graph."""
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError("r must be positive and finite")
    if kind == "ball":
        if alpha is not None:
            raise ValueError("ball graphs take no alpha")
    elif kind == "annulus":
        if alpha is None or not (0.0 <= alpha < 1.0):
            raise ValueError("annulus graphs need 0 <= alpha < 1")
    else:
        raise ValueError(f"unknown graph kind {kind!r}")


def graph_from_edges(sample, kind: str, r: float, alpha: float | None, edges) -> NeighborhoodGraph:
    """The graph of kind ``kind`` over the points of ``sample``, with the
    edges that ``edges(points, r, alpha)`` returns as integer arrays
    (ii, jj) or (ii, jj, ww), one entry per undirected edge with i < j.
    An edge listed without a weight is weighted by its Euclidean length,
    as the builder's filter measured it (:func:`_lengths`); that filter
    keeps only lengths in (0, r], so such weights are finite and positive.

    Every graph's edges are laid out here, built or read from a file.
    Three graphs keep a checked graph's layout instead: a perturbed graph
    divides only the weights, a query's lens slices the rows of the
    nodes inside it (``paths._induced``), and a graph file's twin holds
    the layout made here for the graph it was written from
    (:func:`_graph_twin`).  The points and parameters
    are checked first, so a bad r never reaches a neighbour search:
    :func:`_points_of`, then :func:`check_graph_params`.  An edge list
    of 2**30 rows or more is rejected before any row is read, and so
    are indices of a non-integer dtype.  Then every edge must have 0 <= i < j < n, a
    finite positive weight and two endpoints at different points, and
    no edge may be listed twice.  A violation raises ValueError; a bad
    edge raises :class:`EdgeError` with the position of its row.

    The layout never doubles the edge list: the upper triangle goes to
    CSR on its own, and the symmetric graph is that triangle plus its
    transpose.  An edge list without weights carries one byte per entry
    through that sum, and the weights are filled afterwards, a block of
    slots at a time, so the build peaks at about what the graph stores.
    """
    pts = _points_of(sample)
    n = len(pts)
    check_graph_params(kind, r, alpha)
    ii, jj, *ww = edges(pts, r, alpha)
    if 2 * len(ii) >= INDEX_LIMIT:
        raise ValueError(f"a graph holds fewer than 2**30 edges, got {len(ii)}")
    ii, jj = np.asarray(ii), np.asarray(jj)
    for dtype in (ii.dtype, jj.dtype):
        if len(ii) and dtype.kind not in "iu":
            raise ValueError(f"node indices must be integers, got dtype {dtype}")
    ww = np.asarray(ww[0], dtype=np.float64) if ww else None
    for bad, what in (
        ((ii < 0) | (jj >= n), f"node index outside [0, {n})"),
        (ii >= jj, "edge must have i < j"),
        (None if ww is None else ~(np.isfinite(ww) & (ww > 0.0)),
         "weight must be finite and positive"),
    ):
        if bad is not None and bad.any():
            raise EdgeError(what, int(np.argmax(bad)))
    # Every index is now in [0, n), so int32 holds it exactly.
    ii = ii.astype(np.int32, copy=False)
    jj = jj.astype(np.int32, copy=False)
    # A path through such an edge repeats a point, which no path
    # curvature is defined for.
    coincident = _first_coincident(pts, ii, jj)
    if coincident is not None:
        raise EdgeError("edge joins coincident points", coincident)
    # The upper triangle in CSR layout; tocsr() sums the listings of a
    # repeated edge into one entry, so only a short layout needs the
    # search.
    data = np.ones(len(ii), dtype=np.uint8) if ww is None else ww
    up = coo_matrix((data, (ii, jj)), shape=(n, n)).tocsr()
    if up.nnz != len(ii):
        first = {}
        for k, key in enumerate(zip(ii.tolist(), jj.tolist())):
            if first.setdefault(key, k) != k:
                raise EdgeError(f"duplicate edge {key[0]},{key[1]}", k, first[key])
    # Upper and lower triangles share no entry, so the sum only merges
    # each row's two sorted runs: the symmetric layout, rows sorted.
    # The edge list goes only after the sum: freed with the triangles,
    # its memory joins theirs in one free region that the weights below
    # reuse.  Freed before the sum, it leaves heap fragments too small
    # for the weights, and the process's peak RSS grows by the weights.
    mat = up + up.T.tocsr()
    del ii, jj, data, up
    mat.sort_indices()
    indptr = mat.indptr.astype(np.int32, copy=False)
    indices = mat.indices.astype(np.int32, copy=False)
    return NeighborhoodGraph(
        pts, kind, float(r), None if alpha is None else float(alpha), indptr, indices,
        mat.data if ww is not None else _slot_lengths(pts, indptr, indices),
    )


def _slot_lengths(pts, indptr, indices) -> np.ndarray:
    """The Euclidean length of every slot of a CSR layout, a block of
    slots at a time, so no edge-long row array is made."""
    out = np.empty(len(indices))
    for s, e, rows in _slot_blocks(indptr, indices):
        out[s:e] = _lengths(pts, rows, indices[s:e])
    return out


def _slot_blocks(indptr, indices):
    """(s, e, rows) for each run of at most EDGE_BLOCK slots of a CSR
    layout: slots s..e-1 and the row that owns each of them."""
    for s in range(0, len(indices), EDGE_BLOCK):
        e = min(s + EDGE_BLOCK, len(indices))
        # The rows a..b-1 own slots s..e-1; clipping their bounds to the
        # block counts each row's slots in it.
        a = int(np.searchsorted(indptr, s, "right")) - 1
        b = int(np.searchsorted(indptr, e, "left"))
        yield s, e, np.repeat(np.arange(a, b, dtype=np.int32), np.diff(indptr[a:b + 1].clip(s, e)))


def build_graph(
    sample,
    kind: str = "ball",
    r: float = 1.0,
    alpha: float | None = None,
    method: str = "index",
) -> NeighborhoodGraph:
    """Build the r-ball or (r, alpha)-annulus graph over a sample.

    ``method="index"`` enumerates candidate pairs with a KD-tree;
    ``method="brute"`` compares every pair directly and is limited to
    small inputs; it exists as the oracle the index is tested against.
    Both lay out the same sorted adjacency, so the output does not
    depend on the order in which pairs are found.
    """
    edges = {"index": _kdtree_edges, "brute": _brute_edges}.get(method)
    if edges is None:
        raise ValueError(f"unknown construction method {method!r}")
    return graph_from_edges(sample, kind, r, alpha, edges)


@dataclass(frozen=True)
class GraphStats:
    n: int
    edge_count: int
    min_degree: int
    max_degree: int
    mean_degree: float
    components: int


def graph_stats(g: NeighborhoodGraph) -> GraphStats:
    deg = g.degrees()
    return GraphStats(
        n=g.n,
        edge_count=g.edge_count,
        min_degree=int(deg.min()),
        max_degree=int(deg.max()),
        mean_degree=float(deg.mean()),
        # The CSR is symmetric, so its strong components are the undirected
        # ones, found without the transpose that directed=False builds.
        components=int(csgraph.connected_components(g.to_csr(), connection="strong",
                                                    return_labels=False)),
    )


# ---------------------------------------------------------------------------
# Graph file format: one `# kind=ball r=<r>` or `# kind=annulus r=<r>
# alpha=<a>` header on the first non-blank line, then one `i,j,weight`
# row per undirected edge with i < j.

def write_graph_csv(path: str, g: NeighborhoodGraph):
    """Write ``g`` to ``path`` as a graph file and, beside it, its binary
    twin: g's arrays, which :func:`read_graph_csv` returns for the file
    just written and g's points.  Every weight is written with 17
    significant digits, which read back to the same double."""
    if g.kind == "ball":
        head = f"# kind=ball r={_fmt(g.r)}\n"
    else:
        head = f"# kind=annulus r={_fmt(g.r)} alpha={_fmt(g.alpha)}\n"
    rows = (f"{i},{j},{_fmt(w)}\n" for i, j, w in zip(*(a.tolist() for a in g.edge_list())))
    key = csv_key(GRAPH_TWIN, g.points)
    write_csv(path, itertools.chain([head], rows), key)
    write_twin(path, key.digest(), (g.weights, g.indptr, g.indices), GRAPH_DTYPES)


def read_graph_csv(path: str, points) -> NeighborhoodGraph:
    """Read an edge list back as a graph over ``points``, the (n, D)
    sample array the file was built on; the graph has n nodes.

    The first non-blank line is the one header comment: ``kind`` and
    ``r``, and ``alpha`` for an annulus graph, each once and no other
    key.  No other line may start with ``#``.  Every row is
    ``i,j,weight``.  The header and the rows must pass
    :func:`graph_from_edges`'s checks, the same that every graph
    passes.  A violation raises ValueError naming the file, and the line
    for a bad row, a misplaced ``#`` line or a byte that is not UTF-8
    text.

    A file that :func:`write_graph_csv` wrote is loaded from its twin
    (:func:`_graph_twin`), if the twin is bound to the file's exact bytes
    and to ``points``.  Otherwise a plain file (the header on the first
    line, no other ``#``, rows that ``np.loadtxt`` parses and that pass
    every check) is read in one numpy pass; any other file goes through
    the line loop, which returns the same graph or raises the message.
    """
    points = _points_of(points)
    g = _graph_twin(path, points)
    if g is not None:
        return g
    with open(path, "rb") as fh:
        data = fh.read()
    text = _csv_text(path, data)
    del data  # the text holds it now
    head, _, body = text.partition("\n")
    head = head.strip()
    if head.startswith("#") and "#" not in body:
        rows = _loadtxt_rows(body, EDGE_ROW, 1)
        if rows is not None:
            # Row positions are not line numbers: a failed check only
            # sends the file to the loop, which reports it.
            with contextlib.suppress(ValueError):
                return graph_from_edges(
                    points, *_header(path, head),
                    lambda *_: (rows["i"], rows["j"], rows["w"]),
                )
    return _graph_by_line(path, text, points)


def _graph_twin(path, points) -> NeighborhoodGraph | None:
    """The graph that ``path``'s twin holds, or None if there is no twin
    that :func:`read_graph_csv` may use for the file and ``points``.

    The twin holds a layout that :func:`graph_from_edges` made, bound to
    the file's bytes and the points, so its edges passed every rule;
    kind, r and alpha come from the file's header.  Only the layout's
    structure is checked again, in O(n + E): the dtypes, ``indptr`` from
    0, non-decreasing, to ``len(indices) == len(weights)``, every index
    in [0, n) and every weight finite and positive.  A twin that fails
    is ignored, so a forged one cannot make a search read out of bounds.
    """
    found = read_twin(path, GRAPH_TWIN, GRAPH_DTYPES, points)
    if found is None:
        return None
    head, (weights, indptr, indices) = found
    try:
        if not head.endswith(b"\n"):
            raise ValueError("no header line")
        kind, r, alpha = _header(path, head.decode("utf-8").strip())
        check_graph_params(kind, r, alpha)
    except ValueError:
        return None
    n = len(points)
    # min() and max() make no edge-long temporaries; a nan weight fails both.
    if not (len(indptr) == n + 1 and indptr[0] == 0 and indptr[-1] == len(indices) == len(weights)
            and (indptr[1:] >= indptr[:-1]).all()
            and (len(indices) == 0 or (0 <= indices.min() <= indices.max() < n
                                       and 0.0 < weights.min() <= weights.max() < math.inf))):
        return None
    return NeighborhoodGraph(points, kind, r, alpha, indptr, indices, weights)


def _graph_by_line(path, text, points) -> NeighborhoodGraph:
    """:func:`read_graph_csv` one line at a time, the error reporter."""
    stripped = enumerate((line.strip() for line in text.split("\n")), 1)
    numbered = [(k, line) for k, line in stripped if line]
    kind, r, alpha = _header(path, numbered[0][1] if numbered else "")
    ii, jj, ww, lines = [], [], [], []
    for lineno, line in numbered[1:]:
        if line.startswith("#"):
            raise ValueError(f"{path}:{lineno}: '#' line after the header, the first non-blank line")
        try:
            a, b, w = line.split(",")
            # An index beyond int64 overflows like a malformed token.
            ii.append(np.int64(int(a)))
            jj.append(np.int64(int(b)))
            ww.append(float(w))
        except (ValueError, OverflowError):
            raise ValueError(f"{path}:{lineno}: expected i,j,weight, got {line!r}") from None
        lines.append(lineno)
    try:
        return graph_from_edges(points, kind, r, alpha, lambda *_: (ii, jj, ww))
    except EdgeError as exc:
        again = "" if exc.first is None else f" (first on line {lines[exc.first]})"
        raise ValueError(f"{path}:{lines[exc.row]}: {exc.what}{again}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _header(path, line):
    """kind, r and alpha of the header comment ``line``; alpha may be
    missing, kind and r may not."""
    fields = {}
    for token in line[1:].split() if line.startswith("#") else ():
        key, eq, value = token.partition("=")
        if not eq or key not in ("kind", "r", "alpha") or key in fields:
            raise ValueError(
                f"{path}: bad header token {token!r}: kind, r and alpha go once each, as key=value"
            )
        fields[key] = value
    try:
        r, alpha = (float(fields[k]) if k in fields else None for k in ("r", "alpha"))
    except ValueError:
        raise ValueError(f"{path}: header r and alpha must be numbers, got {line!r}") from None
    if "kind" not in fields or r is None:
        raise ValueError(f"{path} is missing the kind/r header comment")
    return fields["kind"], r, alpha
