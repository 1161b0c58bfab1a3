"""Test surfaces with analytic geodesic oracles.

Four surface families are supported, each simple enough that geodesic
distances have closed forms: spheres, flat disks, cylinders, and circles.
Samplers produce deterministic grids or seeded uniform-random draws, and
``covering_radius`` estimates how densely a sample covers its surface.
"""

import dataclasses
import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

SURFACE_KINDS = ("sphere", "disk", "cylinder", "circle")
MODES = ("grid", "uniform-random")

# Residual tolerance for "is this point on the surface" checks in oracles.
ON_SURFACE_TOL = 1e-9


@dataclass(frozen=True)
class SurfaceSpec:
    """One of the supported analytic surfaces.

    ``radius`` is the sphere/cylinder/circle radius or the disk radius;
    ``height`` applies to cylinders only.  ``ambient_dim`` is the
    dimension the points live in (disks may be embedded in the z=0 plane
    of R^3).
    """

    kind: str
    radius: float
    height: float | None = None
    ambient_dim: int = 3

    def __post_init__(self):
        if self.kind not in SURFACE_KINDS:
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if self.kind == "cylinder":
            if self.height is None or not (self.height > 0.0):
                raise ValueError("cylinder needs a positive height")
        elif self.height is not None:
            raise ValueError(f"{self.kind} takes no height")
        expected = {"sphere": (3,), "disk": (2, 3), "cylinder": (3,), "circle": (2,)}
        if self.ambient_dim not in expected[self.kind]:
            raise ValueError(
                f"{self.kind} supports ambient_dim {expected[self.kind]}, got {self.ambient_dim}"
            )


def sphere(radius: float = 1.0) -> SurfaceSpec:
    return SurfaceSpec("sphere", radius, ambient_dim=3)


def disk(radius: float = 1.0, ambient_dim: int = 2) -> SurfaceSpec:
    return SurfaceSpec("disk", radius, ambient_dim=ambient_dim)


def cylinder(radius: float = 1.0, height: float = 4.0) -> SurfaceSpec:
    return SurfaceSpec("cylinder", radius, height=height, ambient_dim=3)


def circle(radius: float = 1.0) -> SurfaceSpec:
    return SurfaceSpec("circle", radius, ambient_dim=2)


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
        planar = np.linalg.norm(pts[:, :2], axis=1)
        res = np.maximum(planar - spec.radius, 0.0)
        if spec.ambient_dim == 3:
            res = np.maximum(res, np.abs(pts[:, 2]))
        return res
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


def _grid_shape(spec: SurfaceSpec, n: int):
    """Construction parameters of the grid for n points; grids of equal
    shape are equal.

    Sphere, cylinder, and circle grids contain at least n points (the
    smallest constructible grid of that size); the disk grid is the
    ceil(sqrt(n)) x ceil(sqrt(n)) lattice over the bounding square
    intersected with the disk, so its count lands below n.
    """
    if spec.kind == "sphere":
        level = 0
        while 2 + 4 ** (level + 1) < n:
            level += 1
        return level
    if spec.kind == "disk":
        return max(2, math.isqrt(n - 1) + 1)  # ceil(sqrt(n))
    if spec.kind == "circle":
        return n
    # Cylinder: balance angular and vertical spacing, then bump the row
    # count until the lattice reaches n points.
    circ = 2.0 * math.pi * spec.radius
    n_theta = max(3, round(math.sqrt(n * circ / spec.height)))
    n_z = max(2, math.ceil(n / n_theta))
    while n_theta * n_z < n:
        n_z += 1
    return n_theta, n_z


def _grid_points(spec: SurfaceSpec, n: int) -> np.ndarray:
    """Deterministic grid on the surface (see ``_grid_shape``)."""
    return _grid_of_shape(spec, _grid_shape(spec, n))


def _grid_of_shape(spec: SurfaceSpec, shape) -> np.ndarray:
    if spec.kind == "sphere":
        return spec.radius * _octahedron_grid(shape)
    if spec.kind == "disk":
        axis = np.linspace(-spec.radius, spec.radius, shape)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= spec.radius]
        if spec.ambient_dim == 3:
            pts = np.concatenate([pts, np.zeros((len(pts), 1))], axis=1)
        return pts
    if spec.kind == "circle":
        theta = 2.0 * math.pi * np.arange(shape) / shape
        return spec.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    n_theta, n_z = shape
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    zs = np.linspace(0.0, spec.height, n_z)
    tt, zz = np.meshgrid(theta, zs, indexing="ij")
    return np.stack(
        [spec.radius * np.cos(tt.ravel()), spec.radius * np.sin(tt.ravel()), zz.ravel()],
        axis=1,
    )


def _random_points(spec: SurfaceSpec, n: int, seed: int) -> np.ndarray:
    """Seeded draw, uniform with respect to surface area."""
    rng = np.random.default_rng(seed)
    if spec.kind == "sphere":
        g = rng.standard_normal((n, 3))
        return spec.radius * g / np.linalg.norm(g, axis=1, keepdims=True)
    if spec.kind == "disk":
        radii = spec.radius * np.sqrt(rng.random(n))
        theta = 2.0 * math.pi * rng.random(n)
        pts = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
        if spec.ambient_dim == 3:
            pts = np.concatenate([pts, np.zeros((n, 1))], axis=1)
        return pts
    if spec.kind == "circle":
        theta = 2.0 * math.pi * rng.random(n)
        return spec.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    theta = 2.0 * math.pi * rng.random(n)
    zs = spec.height * rng.random(n)
    return np.stack(
        [spec.radius * np.cos(theta), spec.radius * np.sin(theta), zs], axis=1
    )


def sample_surface(spec: SurfaceSpec, mode: str, n: int, seed: int | None = None) -> SampleSet:
    """Sample n points from the surface.

    Grid mode is fully deterministic and ignores the seed; its actual
    point count follows the grid construction (see ``_grid_points``).
    Random mode draws exactly n points, uniform in surface area,
    reproducible from the 64-bit seed.
    """
    if n < 2:
        raise ValueError("need at least 2 sample points")
    if mode not in MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
    if mode == "grid":
        pts = _grid_points(spec, n)
        return SampleSet(_frozen(pts), spec, mode, None)
    pts = _random_points(spec, n, 0 if seed is None else seed)
    return SampleSet(_frozen(pts), spec, mode, 0 if seed is None else seed)


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
    # Cylinder: unroll and take the best winding; |k| <= 2 is enough for
    # the heights and pair separations used here.
    t1 = math.atan2(x[1], x[0])
    t2 = math.atan2(y[1], y[0])
    dz = float(y[2] - x[2])
    dtheta = math.remainder(t2 - t1, 2.0 * math.pi)
    return min(
        math.hypot(dz, spec.radius * (dtheta + 2.0 * math.pi * k))
        for k in range(-2, 3)
    )


def constrained_oracle(spec: SurfaceSpec, kappa: float, x, y) -> float | None:
    """Intrinsic distance under a curvature budget of kappa.

    For kappa at or above the surface's own curvature bound the
    constraint is inactive and the unconstrained geodesic answers.
    Below the bound no closed form is available and None is returned;
    callers must treat that as "oracle unavailable", not as infinity.
    """
    if kappa < curvature_bound(spec):
        return None
    return geodesic_oracle(spec, x, y)


@dataclass(frozen=True)
class CoveringEstimate:
    """One-sided Hausdorff estimate of sample density.

    ``radius`` is measured against a finite reference grid and therefore
    underestimates the true covering radius, converging from below as
    the reference grows.  ``padded`` adds the reference grid's own
    spacing, giving a practical upper bound for gate checks.
    """

    radius: float
    reference_size: int
    reference_spacing: float

    @property
    def padded(self) -> float:
        return self.radius + self.reference_spacing


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


@functools.lru_cache(maxsize=8)
def _reference(spec: SurfaceSpec, shape) -> tuple:
    """Reference grid (read-only) and its nearest-neighbour spacing.

    Keyed by the grid's shape, not the requested count, so every count
    that builds the same grid shares one entry.
    """
    ref = _frozen(_grid_of_shape(spec, shape))
    spacing_d, _ = cKDTree(ref).query(ref, k=2)
    return ref, float(np.max(spacing_d[:, 1]))


def covering_radius(sample: SampleSet, reference_n: int) -> CoveringEstimate:
    """Estimate how far surface points can be from the sample.

    Evaluates the nearest-sample distance over a dense deterministic
    reference grid of the same surface.  The reference must outnumber
    the sample at least tenfold so that the grid, not the sample,
    limits the resolution.  Each distinct grid and its spacing are
    computed once per process.
    """
    n = sample.n
    if n > 0 and reference_n < 10 * n:
        raise ValueError("reference_n must be at least 10x the sample size")
    ref, spacing = _reference(
        sample.surface, _grid_shape(sample.surface, reference_n)
    )
    if n == 0:
        return CoveringEstimate(math.inf, len(ref), spacing)
    eps = directed_hausdorff(ref, sample.points)
    return CoveringEstimate(eps, len(ref), spacing)


# ---------------------------------------------------------------------------
# Points file format: CSV with one point per row and an optional
# `x0,x1,...` header; a JSON sidecar at <path>.json records the sample
# metadata.  Floats are written with 17 significant digits so that
# parsing returns bit-identical values.

def _fmt(x: float) -> str:
    return format(x, ".17g")


def surface_to_json(spec: SurfaceSpec) -> dict:
    out = {"kind": spec.kind, "radius": spec.radius, "ambient_dim": spec.ambient_dim}
    if spec.height is not None:
        out["height"] = spec.height
    return out


def surface_from_json(data: dict) -> SurfaceSpec:
    kind = data["kind"]
    default_dim = 2 if kind in ("disk", "circle") else 3
    return SurfaceSpec(
        kind=kind,
        radius=float(data["radius"]),
        height=float(data["height"]) if data.get("height") is not None else None,
        ambient_dim=int(data.get("ambient_dim", default_dim)),
    )


def sidecar_path(points_path: str) -> str:
    return points_path + ".json"


def write_points_csv(path: str, sample: SampleSet, header: bool = True):
    pts = sample.points
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(f"x{k}" for k in range(pts.shape[1])) + "\n")
        for row in pts:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
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
    naming the file and line.
    """
    rows, lines = [], []
    header_allowed = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
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
    return _frozen(pts)


def _is_header(fields) -> bool:
    """A header row has no field that reads as a number."""
    for v in fields:
        try:
            float(v)
        except ValueError:
            continue
        return False
    return True


def load_sample(path: str) -> SampleSet:
    """Read points plus the JSON sidecar back into a SampleSet."""
    pts = read_points_csv(path)
    with open(sidecar_path(path), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    spec = surface_from_json(meta["surface"])
    return SampleSet(pts, spec, meta["mode"], meta.get("seed"))
