"""Neighborhood graphs over point samples.

Two kinds: the r-ball graph joins points within Euclidean distance r,
the (r, alpha)-annulus graph additionally drops edges shorter than
alpha*r.  Both use non-strict inequalities, so distances landing exactly
on a boundary are kept.  Edge weights are the Euclidean distances,
stored as computed in double precision.

Candidate pairs come from a KD-tree radius query; each candidate is then
re-measured and filtered exactly, so the tree's own rounding never
decides an edge.  A brute-force all-pairs builder is retained for small
inputs as the testing oracle.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csgraph, csr_matrix
from scipy.spatial import cKDTree

from .surfaces import SampleSet

BRUTE_FORCE_LIMIT = 2000


@dataclass(frozen=True)
class NeighborhoodGraph:
    """Undirected weighted graph in compressed sparse row layout.

    ``indices[indptr[i]:indptr[i+1]]`` are the neighbors of node i in
    increasing order, ``weights`` the matching edge lengths.  ``points``
    carries the sample coordinates so curvature-aware searches can look
    at triples of nodes.
    """

    n: int
    kind: str  # "ball" | "annulus"
    r: float
    alpha: float | None
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    points: np.ndarray | None = None

    def neighbors(self, i: int):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edge_count(self) -> int:
        return int(len(self.indices)) // 2

    def to_csr(self) -> csr_matrix:
        return csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(self.n, self.n)
        )


def _points_of(sample) -> np.ndarray:
    if isinstance(sample, SampleSet):
        return sample.points
    pts = np.asarray(sample, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be an (n, D) array")
    return pts


def _pair_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _edge_mask(d: np.ndarray, r: float, alpha: float | None) -> np.ndarray:
    mask = (d <= r) & (d > 0.0)
    if alpha is not None:
        mask &= d >= alpha * r
    return mask


def _kdtree_edges(pts, r, alpha):
    # The tree's own distance test is padded so that it never drops a
    # pair the exact mask below would keep.
    pairs = cKDTree(pts).query_pairs(r * (1.0 + 1e-9), output_type="ndarray")
    ii, jj = pairs.astype(np.int64, copy=False).T
    diff = pts[ii] - pts[jj]
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    keep = _edge_mask(d, r, alpha)
    return ii[keep], jj[keep], d[keep]


def _csr_from_edges(ii, jj, ww, n):
    """Symmetric CSR arrays (indptr, indices, weights) from the edges
    i < j, each row's neighbors in increasing order."""
    mat = coo_matrix(
        (np.concatenate([ww, ww]), (np.concatenate([ii, jj]), np.concatenate([jj, ii]))),
        shape=(n, n),
    ).tocsr()
    mat.sort_indices()
    return mat.indptr.astype(np.int64), mat.indices.astype(np.int64), mat.data


def _brute_edges(pts, r, alpha):
    d = _pair_distance_matrix(pts, pts)
    mask = np.triu(_edge_mask(d, r, alpha), k=1)
    ii, jj = np.nonzero(mask)
    return ii.astype(np.int64), jj.astype(np.int64), d[ii, jj]


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
    pts = _points_of(sample)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least 2 points to build a graph")
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

    if method == "brute":
        if n > BRUTE_FORCE_LIMIT:
            raise ValueError(f"brute-force construction is limited to n <= {BRUTE_FORCE_LIMIT}")
        ii, jj, ww = _brute_edges(pts, r, alpha)
    elif method == "index":
        ii, jj, ww = _kdtree_edges(pts, r, alpha)
    else:
        raise ValueError(f"unknown construction method {method!r}")

    indptr, indices, weights = _csr_from_edges(ii, jj, ww, n)
    return NeighborhoodGraph(
        n=n,
        kind=kind,
        r=float(r),
        alpha=None if alpha is None else float(alpha),
        indptr=indptr,
        indices=indices,
        weights=weights,
        points=pts,
    )


@dataclass(frozen=True)
class GraphStats:
    n: int
    edge_count: int
    min_degree: int
    max_degree: int
    mean_degree: float
    components: int


def connected_components(g: NeighborhoodGraph) -> np.ndarray:
    """Component label per node; components are numbered in the order of
    their smallest node index."""
    _, labels = csgraph.connected_components(g.to_csr(), directed=False)
    return labels.astype(np.int64)


def graph_stats(g: NeighborhoodGraph) -> GraphStats:
    deg = g.degrees()
    return GraphStats(
        n=g.n,
        edge_count=g.edge_count,
        min_degree=int(deg.min()) if g.n else 0,
        max_degree=int(deg.max()) if g.n else 0,
        mean_degree=float(deg.mean()) if g.n else 0.0,
        components=int(connected_components(g).max()) + 1 if g.n else 0,
    )


# ---------------------------------------------------------------------------
# Graph file format: `# kind=ball r=<r>` or `# kind=annulus r=<r> alpha=<a>`
# comment, then one `i,j,weight` row per undirected edge with i < j.

def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_graph_csv(path: str, g: NeighborhoodGraph):
    with open(path, "w", encoding="utf-8") as fh:
        if g.kind == "ball":
            fh.write(f"# kind=ball r={_fmt(g.r)}\n")
        else:
            fh.write(f"# kind=annulus r={_fmt(g.r)} alpha={_fmt(g.alpha)}\n")
        for i in range(g.n):
            nbrs, wts = g.neighbors(i)
            keep = nbrs > i
            for j, w in zip(nbrs[keep], wts[keep]):
                fh.write(f"{i},{j},{_fmt(w)}\n")


def read_graph_csv(path: str, points: np.ndarray | None = None, n: int | None = None) -> NeighborhoodGraph:
    """Read an edge list back; node count comes from ``points``, ``n``,
    or the largest index seen, in that order of preference.

    Every row must be ``i,j,weight`` with 0 <= i < j < n, a finite
    positive weight, and an edge not listed before; with ``points``,
    its two endpoints must also differ.  A violation raises ValueError
    naming the file and line.
    """
    kind = None
    r = None
    alpha = None
    ii, jj, ww, lines = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = dict(
                    part.split("=", 1) for part in line[1:].split() if "=" in part
                )
                kind = fields.get("kind", kind)
                if "r" in fields:
                    r = float(fields["r"])
                if "alpha" in fields:
                    alpha = float(fields["alpha"])
                continue
            try:
                a, b, w = line.split(",")
                ii.append(int(a))
                jj.append(int(b))
                ww.append(float(w))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected i,j,weight, got {line!r}") from None
            lines.append(lineno)
    if kind is None or r is None:
        raise ValueError(f"{path} is missing the kind/r header comment")
    if kind == "annulus" and alpha is None:
        raise ValueError("annulus graph file is missing alpha")
    if points is not None:
        n = len(points)
    elif n is None:
        n = max(max(ii, default=-1), max(jj, default=-1)) + 1
    if n < 2:
        raise ValueError("graph needs at least 2 nodes")
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    ww = np.asarray(ww, dtype=np.float64)
    _check_edges(path, lines, ii, jj, ww, n, points)
    indptr, indices, weights = _csr_from_edges(ii, jj, ww, n)
    return NeighborhoodGraph(
        n=int(n), kind=kind, r=r, alpha=alpha,
        indptr=indptr, indices=indices, weights=weights, points=points,
    )


def _check_edges(path, lines, ii, jj, ww, n, points):
    """Reject the first row of a bad edge list, by file line."""
    for bad, what in (
        ((ii < 0) | (jj >= n), f"node index outside [0, {n})"),
        (ii >= jj, "edge must have i < j"),
        (~(np.isfinite(ww) & (ww > 0.0)), "weight must be finite and positive"),
    ):
        if bad.any():
            raise ValueError(f"{path}:{lines[int(np.argmax(bad))]}: {what}")
    if points is not None:
        # A path through such an edge repeats a point, which no path
        # curvature is defined for; build_graph never makes one.
        bad = np.all(points[ii] == points[jj], axis=1)
        if bad.any():
            raise ValueError(
                f"{path}:{lines[int(np.argmax(bad))]}: edge joins coincident points"
            )
    keys = ii * n + jj
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        first = {}
        for k, key in enumerate(keys.tolist()):
            if key in first:
                raise ValueError(
                    f"{path}:{lines[k]}: duplicate edge {ii[k]},{jj[k]}"
                    f" (first on line {lines[first[key]]})"
                )
            first[key] = k
