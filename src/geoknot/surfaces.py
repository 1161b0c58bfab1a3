"""Test surfaces with analytic geodesic oracles.

Four surface families are supported, each simple enough that geodesic
distances have closed forms: spheres, flat disks, cylinders, and circles.
Samplers produce deterministic grids or seeded uniform-random draws
(listed in Z-order), and ``covering_radius`` measures how densely a
sample covers its surface: the exact largest distance from a surface
point to the sample, found from the sample's own Voronoi geometry.
"""

import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from .twin import csv_key, read_twin, write_csv, write_twin

SURFACE_KINDS = ("sphere", "disk", "cylinder", "circle")
MODES = ("grid", "uniform-random")

# Residual tolerance for "is this point on the surface" checks in oracles.
ON_SURFACE_TOL = 1e-9

# Relative slack on float comparisons and on the covering radius.
FLOAT_SLACK = 1e-12

# The keys of a surface dict, as surface_to_json writes them.
SURFACE_KEYS = ("kind", "radius", "height")

# csgraph indexes points and directed edges in int32: the bound of both.
INDEX_LIMIT = 2**31

# A points twin's format tag and arrays: the shape (n, D), then the
# coordinates in row order.
POINTS_TWIN = b"geoknot points twin 1\n"
POINTS_DTYPES = ("<i8", "<f8")


@dataclass(frozen=True)
class SurfaceSpec:
    """One of the supported analytic surfaces.

    ``radius`` is the sphere/cylinder/circle radius or the disk radius;
    ``height`` applies to cylinders only.
    """

    kind: str
    radius: float
    height: float | None = None

    def __post_init__(self):
        if self.kind not in SURFACE_KINDS:
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if self.kind == "cylinder":
            if self.height is None or not (self.height > 0.0 and math.isfinite(self.height)):
                raise ValueError("cylinder needs a positive finite height")
        elif self.height is not None:
            raise ValueError(f"{self.kind} takes no height")

    @property
    def ambient_dim(self) -> int:
        """The dimension the points live in: 2 for the disk and the
        circle, 3 for the sphere and the cylinder."""
        return 2 if self.kind in ("disk", "circle") else 3


def sphere(radius: float = 1.0) -> SurfaceSpec:
    return SurfaceSpec("sphere", radius)


def disk(radius: float = 1.0) -> SurfaceSpec:
    return SurfaceSpec("disk", radius)


def cylinder(radius: float = 1.0, height: float = 4.0) -> SurfaceSpec:
    return SurfaceSpec("cylinder", radius, height=height)


def circle(radius: float = 1.0) -> SurfaceSpec:
    return SurfaceSpec("circle", radius)


def curvature_bound(spec: SurfaceSpec) -> float:
    """Largest curvature a geodesic of the surface can have."""
    if spec.kind == "disk":
        return 0.0
    return 1.0 / spec.radius


def intrinsic_diameter(spec: SurfaceSpec) -> float:
    """Largest geodesic distance between two surface points."""
    if spec.kind == "sphere":
        return math.pi * spec.radius
    if spec.kind == "disk":
        return 2.0 * spec.radius
    if spec.kind == "circle":
        return math.pi * spec.radius
    return math.hypot(spec.height, math.pi * spec.radius)


def surface_residual(spec: SurfaceSpec, points) -> np.ndarray:
    """Distance of each point from satisfying the defining equations.

    For region-like surfaces (disk, cylinder) out-of-range coordinates
    count toward the residual as well.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if spec.kind == "sphere" or spec.kind == "circle":
        return np.abs(np.linalg.norm(pts, axis=1) - spec.radius)
    if spec.kind == "disk":
        return np.maximum(np.linalg.norm(pts, axis=1) - spec.radius, 0.0)
    rho = np.linalg.norm(pts[:, :2], axis=1)
    res = np.abs(rho - spec.radius)
    res = np.maximum(res, np.maximum(-pts[:, 2], 0.0))
    res = np.maximum(res, np.maximum(pts[:, 2] - spec.height, 0.0))
    return res


@dataclass(frozen=True)
class SampleSet:
    """An ordered point sample of a surface.

    Index i refers to the same point for the whole pipeline: graphs,
    path queries, and reports all use SampleSet positions.
    """

    points: np.ndarray
    surface: SurfaceSpec
    mode: str
    seed: int | None = None

    @property
    def n(self) -> int:
        return int(self.points.shape[0])


def _frozen(points: np.ndarray) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    pts.setflags(write=False)
    return pts


def _octahedron_grid(level: int) -> np.ndarray:
    """Unit octahedron subdivided ``level`` times, projected to the sphere.

    Vertex counts follow 2 + 4**(level+1): 6, 18, 66, 258, 1026, ...
    Old vertices are kept at every refinement, so grids are nested.
    """
    verts = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=np.float64,
    )
    faces = np.array(
        [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
         [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]],
        dtype=np.int64,
    )
    for _ in range(level):
        nf = len(faces)
        edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        edges.sort(axis=1)
        # Unique edges through the 1-D key a*len(verts) + b: the same
        # lexicographic order as unique(axis=0), at a fraction of the cost.
        keys, inverse = np.unique(
            edges[:, 0] * len(verts) + edges[:, 1], return_inverse=True
        )
        mids = verts[keys // len(verts)] + verts[keys % len(verts)]
        mids /= np.linalg.norm(mids, axis=1, keepdims=True)
        base = len(verts)
        verts = np.concatenate([verts, mids])
        ab = base + inverse[:nf]
        bc = base + inverse[nf:2 * nf]
        ca = base + inverse[2 * nf:]
        faces = np.concatenate([
            np.stack([faces[:, 0], ab, ca], axis=1),
            np.stack([faces[:, 1], bc, ab], axis=1),
            np.stack([faces[:, 2], ca, bc], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ])
    return verts


def _check_count(count: int, what: str):
    """Refuse a sample no graph could hold, before any array is made."""
    if count >= INDEX_LIMIT:
        raise ValueError(f"{what} has {count} points; a sample must have fewer than 2**31")


def _grid(spec: SurfaceSpec, n: int) -> np.ndarray:
    """The deterministic grid for n points.

    Sphere, cylinder, and circle grids contain at least n points (the
    smallest constructible grid of that size); the disk grid is the
    ceil(sqrt(n)) x ceil(sqrt(n)) lattice over the bounding square
    intersected with the disk, so its count lands below n.  Each count
    (the disk's whole lattice) is checked before it is laid out.
    """
    if spec.kind == "sphere":
        level = 0
        while 2 + 4 ** (level + 1) < n:
            level += 1
        _check_count(2 + 4 ** (level + 1), f"the sphere grid for n = {n}")
        return spec.radius * _octahedron_grid(level)
    if spec.kind == "disk":
        side = max(2, math.isqrt(n - 1) + 1)
        _check_count(side * side, f"the disk grid's lattice for n = {n}")
        axis = np.linspace(-spec.radius, spec.radius, side)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        return pts[np.linalg.norm(pts, axis=1) <= spec.radius]
    if spec.kind == "circle":
        _check_count(n, f"the circle grid for n = {n}")
        theta = 2.0 * math.pi * np.arange(n) / n
        return spec.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # Cylinder: balance angular and vertical spacing, then bump the row
    # count until the lattice reaches n points.
    n_theta = max(3, round(math.sqrt(n * (2.0 * math.pi * spec.radius) / spec.height)))
    n_z = max(2, math.ceil(n / n_theta))
    while n_theta * n_z < n:
        n_z += 1
    _check_count(n_theta * n_z, f"the cylinder grid for n = {n}")
    ring, zs = _grid(circle(spec.radius), n_theta), np.linspace(0.0, spec.height, n_z)
    return np.column_stack([ring.repeat(n_z, axis=0), np.tile(zs, n_theta)])


def _random_points(spec: SurfaceSpec, n: int, seed: int) -> np.ndarray:
    """Seeded draw, uniform with respect to surface area."""
    rng = np.random.default_rng(seed)
    if spec.kind == "sphere":
        g = rng.standard_normal((n, 3))
        return spec.radius * g / np.linalg.norm(g, axis=1, keepdims=True)
    if spec.kind == "disk":
        radii = spec.radius * np.sqrt(rng.random(n))
        theta = 2.0 * math.pi * rng.random(n)
        return np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
    if spec.kind == "circle":
        theta = 2.0 * math.pi * rng.random(n)
        return spec.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    theta = 2.0 * math.pi * rng.random(n)
    zs = spec.height * rng.random(n)
    return np.stack(
        [spec.radius * np.cos(theta), spec.radius * np.sin(theta), zs], axis=1
    )


def _z_order(pts: np.ndarray) -> np.ndarray:
    """The stable permutation that lists ``pts`` in Morton (Z-order).

    Each axis is quantized over the bounding box to ``63 // D`` bits,
    and the bits are interleaved into one uint64 key, one column at a
    time: each shift-and-mask step halves the bit groups and moves the
    upper half of each group up by ``shift * (D - 1)``.  Ties keep their
    order.
    """
    n, dim = pts.shape
    bits = 63 // dim
    # After the step of shift s, bit b of a value sits at (b // s) * s * D + b % s.
    spread = [(np.uint64(s * (dim - 1)),
               np.uint64(sum(1 << (b // s * s * dim + b % s) for b in range(bits))))
              for s in (1 << k for k in reversed(range((bits - 1).bit_length())))]
    key = np.zeros(n, dtype=np.uint64)
    for axis in range(dim):
        lo, span = pts[:, axis].min(), np.ptp(pts[:, axis])
        scale = (2**bits - 1) / span if span > 0.0 else 0.0
        v = ((pts[:, axis] - lo) * scale).astype(np.uint64)
        for shift, mask in spread:
            v = (v | v << shift) & mask
        key |= v << np.uint64(dim - 1 - axis)
    return np.argsort(key, kind="stable")


def sample_surface(spec: SurfaceSpec, mode: str, n: int, seed: int | None = None) -> SampleSet:
    """Sample n points from the surface.

    Grid mode is fully deterministic and ignores the seed; its actual
    point count follows the grid construction (see ``_grid``).
    Random mode draws exactly n points, uniform in surface area,
    reproducible from the 64-bit seed, and lists them in Z-order
    (``_z_order``): points near each other get nearby indices, so a
    graph on them reads its rows from nearby memory.  Relabelling
    changes no edge, weight or distance.  A sample of fewer than 2
    points (a disk grid for n <= 4 has none) or of 2**31 or more raises
    ValueError, the latter before any array is made.
    """
    if n < 2:
        raise ValueError("need at least 2 sample points")
    if mode not in MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
    if mode == "grid":
        pts, seed = _grid(spec, n), None
    else:
        _check_count(n, "the uniform-random sample")
        seed = 0 if seed is None else seed
        pts = _random_points(spec, n, seed)
        pts = pts[_z_order(pts)]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 sample points; the {spec.kind} grid "
                         f"for n = {n} has {len(pts)}")
    return SampleSet(_frozen(pts), spec, mode, seed)


def _require_on_surface(spec: SurfaceSpec, pts: np.ndarray):
    res = surface_residual(spec, pts)
    worst = float(np.max(res))
    if worst > ON_SURFACE_TOL:
        raise ValueError(f"point off the surface by {worst:.3g}")


def geodesic_oracle(spec: SurfaceSpec, x, y) -> float:
    """Exact intrinsic distance between two on-surface points."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (spec.ambient_dim,) or y.shape != (spec.ambient_dim,):
        raise ValueError("point dimension does not match the surface")
    _require_on_surface(spec, np.stack([x, y]))
    if spec.kind == "sphere" or spec.kind == "circle":
        c = float(np.dot(x, y)) / spec.radius**2
        return spec.radius * math.acos(min(1.0, max(-1.0, c)))
    if spec.kind == "disk":
        return float(np.linalg.norm(x - y))
    # Cylinder: unroll.  After math.remainder |dtheta| <= pi, so no other
    # winding (dtheta + 2*pi*k, k != 0) is shorter.
    t1 = math.atan2(x[1], x[0])
    t2 = math.atan2(y[1], y[0])
    dz = float(y[2] - x[2])
    dtheta = math.remainder(t2 - t1, 2.0 * math.pi)
    return math.hypot(dz, spec.radius * dtheta)


@dataclass(frozen=True)
class CoveringEstimate:
    """A covering radius and its count of candidates (0: the diameter)."""

    radius: float
    reference_size: int


def covering_radius(sample: SampleSet) -> CoveringEstimate:
    """The largest intrinsic distance from a surface point to the
    sample, raised by the relative FLOAT_SLACK so that rounding never
    puts it below the true value.

    The farthest point is a Voronoi vertex of the sample, a point where
    a Voronoi edge leaves the surface, or on the disk's rim the point
    opposite a site.  Each kind lists such candidates (a superset is
    harmless, as all lie on the surface): the sphere and the circle
    from the convex hull, the disk and the cylinder from the Delaunay
    triangles of the plane or the unrolled strip.  One KD-tree query
    measures them.  A sample Qhull cannot triangulate (too few points,
    or all on one plane or line) gets the diameter, an upper bound;
    none, inf.
    """
    if sample.n == 0:
        return CoveringEstimate(math.inf, 0)
    try:
        dist = _DISTANCES[sample.surface.kind](sample.surface, sample.points)
    except QhullError:
        return CoveringEstimate(intrinsic_diameter(sample.surface), 0)
    return CoveringEstimate(float(np.max(dist)) * (1.0 + FLOAT_SLACK), len(dist))


def _round_distances(spec: SurfaceSpec, pts: np.ndarray) -> np.ndarray:
    """Sphere or circle: the convex hull's facet normals are the Voronoi
    vertices (on the circle, the gap midpoints).  A sample inside an
    open hemisphere can also peak at -(p + q) for a hull edge pq."""
    hull = ConvexHull(pts)
    ends = np.stack([hull.simplices, np.roll(hull.simplices, 1, axis=1)], axis=2).reshape(-1, 2)
    cands = np.concatenate([hull.equations[:, :-1], -pts[ends[:, 0]] - pts[ends[:, 1]]])
    cands = cands[np.linalg.norm(cands, axis=1) > 0.0]
    cands *= spec.radius / np.linalg.norm(cands, axis=1, keepdims=True)
    chord = cKDTree(pts).query(cands)[0]
    return 2.0 * spec.radius * np.arcsin(np.minimum(chord / (2.0 * spec.radius), 1.0))


def _plane_candidates(sites, crossings) -> np.ndarray:
    """The Voronoi vertices of planar ``sites`` and the points
    ``crossings(m, u)`` where the bisector m + t u of each ridge meets
    the region's boundary; the caller moves them onto the surface.

    Both come from the Delaunay triangles: the vertices are the
    circumcentres of the triangles that are not flat, and the ridges
    are the Delaunay edges, each taken once.  Where four or more sites
    are cocircular, the triangulation splits their facet: each piece
    has the facet's circumcentre (a flat piece has none, and drops out
    as not finite), and the diagonals add crossings of a ridge of
    length zero, extra points on the boundary that do no harm.  The
    repeats stay: they leave eps unchanged, only planar grids have
    them (no workload samples one), and dropping them would need a sort
    of the candidates.
    """
    tri = Delaunay(sites).simplices
    a = sites[tri[:, 0]]
    b, c = sites[tri[:, 1]] - a, sites[tri[:, 2]] - a
    bb, cc = (b * b).sum(axis=1), (c * c).sum(axis=1)
    n = len(sites)
    pairs = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
    key = np.unique(pairs[:, 0].astype(np.int64) * n + pairs[:, 1])
    p, q = sites[key // n], sites[key % n]
    with np.errstate(divide="ignore", invalid="ignore"):
        # The circumcentre a + (|b|^2 c - |c|^2 b) x e3 / (2 b x c) of
        # the triangle a, a + b, a + c; b x c = 0 for a flat one.
        den = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        centres = a + np.stack(
            [c[:, 1] * bb - b[:, 1] * cc, b[:, 0] * cc - c[:, 0] * bb], axis=1
        ) / den[:, None]
        hits = crossings(0.5 * (p + q), np.stack([p[:, 1] - q[:, 1], q[:, 0] - p[:, 0]], axis=1))
    cands = np.concatenate([centres, hits])
    return cands[np.isfinite(cands).all(axis=1)]


def _disk_distances(spec: SurfaceSpec, pts: np.ndarray) -> np.ndarray:
    """Voronoi vertices moved onto the rim if outside, bisector crossings
    of the rim, and the rim point opposite each site off the centre,
    where the distance to that site along the rim peaks."""
    rho = spec.radius

    def rim(m, u):  # |m + t u| = rho has real roots t, as m lies in the disk
        mu, uu = (m * u).sum(axis=1), (u * u).sum(axis=1)
        root = np.sqrt(np.maximum(mu**2 - uu * ((m * m).sum(axis=1) - rho**2), 0.0))
        return np.concatenate([m + ((s * root - mu) / uu)[:, None] * u for s in (-1.0, 1.0)])

    norm = np.linalg.norm(pts, axis=1, keepdims=True)
    cands = np.concatenate([_plane_candidates(pts, rim), -rho * pts / np.maximum(norm, 1e-300)])
    cands /= np.maximum(np.linalg.norm(cands, axis=1, keepdims=True) / rho, 1.0)
    return cKDTree(pts).query(cands)[0]


def _cylinder_distances(spec: SurfaceSpec, pts: np.ndarray) -> np.ndarray:
    """Unrolled to the strip [0, L] x [0, h], L = 2 pi R, beside the
    sites at u < 0.6 L shifted by +L and those at u > 0.4 L by -L: within
    0.1 L of the strip, the plane distance to the nearest site is the
    intrinsic one.  Voronoi vertices and bisector crossings of z = 0 and
    z = h, clipped to the strip, are the candidates."""
    L, h = 2.0 * math.pi * spec.radius, spec.height
    u = spec.radius * np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
    flat = np.stack([u, pts[:, 2]], axis=1)
    sites = np.concatenate([flat, flat[u < 0.6 * L] + [L, 0.0], flat[u > 0.4 * L] - [L, 0.0]])

    def rims(m, d):
        return np.concatenate([m + ((c - m[:, 1]) / d[:, 1])[:, None] * d for c in (0.0, h)])

    return cKDTree(sites).query(np.clip(_plane_candidates(sites, rims), 0.0, [L, h]))[0]


_DISTANCES = {"sphere": _round_distances, "circle": _round_distances,
              "disk": _disk_distances, "cylinder": _cylinder_distances}


# ---------------------------------------------------------------------------
# Points file format: CSV with one point per row and an optional
# `x0,x1,...` header; a JSON sidecar at <path>.json records the sample
# metadata.  Floats are written with 17 significant digits so that
# parsing returns bit-identical values.  ``_fmt`` also writes the floats
# of the graph and report CSVs, ``_jsonable`` the report and path JSON.

def _fmt(x: float) -> str:
    return format(x, ".17g")


def _jsonable(value):
    """``value`` ready for json.dump: numpy scalars as Python numbers,
    infinities spelt "inf" and "-inf"."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return value


def surface_to_json(spec: SurfaceSpec) -> dict:
    out = {"kind": spec.kind, "radius": spec.radius}
    if spec.height is not None:
        out["height"] = spec.height
    return out


def surface_from_json(data: dict) -> SurfaceSpec:
    """The spec of a surface dict; a missing kind or radius, a key other
    than SURFACE_KEYS, or a field of the wrong type raises ValueError
    naming it.  No boolean counts as a number, and a null height is no
    height."""
    unknown = set(data) - set(SURFACE_KEYS)
    if unknown:
        raise ValueError(
            f"unknown surface keys: {sorted(unknown)}; a surface takes kind, radius and height"
        )
    height = data.get("height")
    return SurfaceSpec(
        kind=_surface_field(data, "kind", str),
        radius=float(_surface_field(data, "radius", (int, float))),
        height=None if height is None else float(_surface_field(data, "height", (int, float))),
    )


def _surface_field(data: dict, name: str, kind):
    if name not in data:
        raise ValueError(f"missing surface key {name!r}; a surface takes kind, radius and height")
    value = data[name]
    if not _is_a(value, kind):
        raise ValueError(f"surface field {name!r} has the wrong type: {value!r}")
    return value


def _is_a(value, kind) -> bool:
    """isinstance, with no boolean counted as a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def sidecar_path(points_path: str) -> str:
    return points_path + ".json"


def write_points_csv(path: str, sample: SampleSet):
    """Write the sample's points to ``path`` (a header row, then one row
    of coordinates per point), its JSON sidecar and its binary twin: the
    array :func:`read_points_csv` returns for the file just written."""
    pts = sample.points
    header = ",".join(f"x{k}" for k in range(pts.shape[1])) + "\n"
    rows = (",".join(_fmt(v) for v in row) + "\n" for row in pts.tolist())
    key = csv_key(POINTS_TWIN)
    write_csv(path, itertools.chain([header], rows), key)
    write_twin(path, key.digest(), (pts.shape, pts), POINTS_DTYPES)
    meta = {
        "surface": surface_to_json(sample.surface),
        "mode": sample.mode,
        "n": sample.n,
        "seed": sample.seed,
        "D": int(pts.shape[1]),
    }
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def read_points_csv(path: str) -> np.ndarray:
    """Read the bare point array.

    Blank lines and ``#`` comments are ignored, and a leading row with
    no numeric field is the header.  Every other row must hold as many
    finite coordinates as the first point; a violation raises ValueError
    naming the file and line, and so does a byte that is not UTF-8 text.

    A file that :func:`write_points_csv` wrote is loaded from its twin,
    if the twin is bound to the file's exact bytes (``geoknot.twin``) and
    holds at least one point of at least one coordinate, all finite.
    Otherwise a plain file (no ``#``, an optional header on the first
    line, rows that ``np.loadtxt`` parses, all finite) is read in one
    numpy pass, and any other file goes through the line loop, which
    returns the same array or raises the message.
    """
    pts = _points_twin(path)
    if pts is not None:
        return pts
    with open(path, "rb") as fh:
        data = fh.read()
    text = _csv_text(path, data)
    del data  # the text holds it now
    if "#" not in text:
        head, _, body = text.partition("\n")
        pts = _loadtxt_rows(body if _is_header(head.split(",")) else text, np.float64, 2)
    if pts is None or not np.isfinite(pts).all():
        pts = _points_by_line(path, text)
    return _frozen(pts)


def _points_twin(path: str):
    """The points of ``path``'s twin, or None if there is no twin that
    :func:`read_points_csv` may use for the file."""
    found = read_twin(path, POINTS_TWIN, POINTS_DTYPES)
    if found is None:
        return None
    shape, flat = found[1]
    if len(shape) != 2 or min(shape) < 1 or int(shape[0]) * int(shape[1]) != len(flat):
        return None
    if not np.isfinite(flat).all():
        return None
    return _frozen(flat.reshape(shape))


def _csv_text(path: str, data: bytes) -> str:
    """The UTF-8 text of an input file's bytes, its line ends read as
    ``open()`` reads them (CRLF and CR as LF).  A byte that is not UTF-8
    text raises ValueError naming the file and its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _csv_text(path, data[:exc.start]).count("\n") + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _points_by_line(path: str, text: str) -> np.ndarray:
    """:func:`read_points_csv` one line at a time, the error reporter."""
    rows, lines = [], []
    header_allowed = True
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            row = [float(v) for v in fields]
        except ValueError:
            if not (header_allowed and _is_header(fields)):
                raise ValueError(
                    f"{path}:{lineno}: expected numeric coordinates, got {line!r}"
                ) from None
            header_allowed = False
            continue
        header_allowed = False
        if rows and len(row) != len(rows[0]):
            raise ValueError(
                f"{path}:{lineno}: expected {len(rows[0])} coordinates, got {len(row)}"
            )
        rows.append(row)
        lines.append(lineno)
    if not rows:
        raise ValueError(f"no points in {path}")
    pts = np.array(rows, dtype=np.float64)
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise ValueError(
            f"{path}:{lines[int(np.argmax(bad))]}: coordinate is not finite"
        )
    return pts


def _loadtxt_rows(text: str, dtype, ndmin: int):
    """The comma-separated rows of ``text`` in one ``np.loadtxt`` pass,
    or None if there are none or one does not parse.

    Where it parses a field, numpy reads the same value as Python's
    ``int``/``float``; it rejects some tokens they accept (``1_0``,
    whitespace-only lines), which the readers' line loops then read.
    """
    if not text.strip():
        return None
    try:
        return np.loadtxt(
            io.StringIO(text), delimiter=",", comments=None, dtype=dtype, ndmin=ndmin
        )
    except ValueError:
        return None


def _is_header(fields) -> bool:
    """A header row has no field that reads as a number."""
    for v in fields:
        try:
            float(v)
        except ValueError:
            continue
        return False
    return True

