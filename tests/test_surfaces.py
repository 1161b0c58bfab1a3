import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geoknot import (
    SampleSet,
    build_graph,
    circle,
    covering_radius,
    curvature_bound,
    cylinder,
    disk,
    geodesic_oracle,
    intrinsic_diameter,
    read_points_csv,
    sample_surface,
    shortest_distances,
    sphere,
    write_points_csv,
)
from geoknot import surfaces
from geoknot.surfaces import (
    _grid,
    _octahedron_grid,
    sidecar_path,
    surface_from_json,
    surface_residual,
    surface_to_json,
)
from conftest import (
    directed_hausdorff,
    graph_edge_set,
    grid_covering_bracket,
    intrinsic_nearest,
    voronoi_covering_radius,
)


def octahedron_grid_2d_unique(level):
    """The refinement as first written, deduplicating edges with
    unique(axis=0); kept to pin the grid bit for bit."""
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
        uniq, inverse = np.unique(edges, axis=0, return_inverse=True)
        mids = verts[uniq[:, 0]] + verts[uniq[:, 1]]
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


class TestSpecs:
    def test_factories(self):
        assert sphere(2.0).radius == 2.0
        assert disk().ambient_dim == 2
        assert cylinder(1.0, 3.0).height == 3.0
        assert circle().ambient_dim == 2
        assert sphere().ambient_dim == cylinder().ambient_dim == 3

    def test_cylinder_needs_height(self):
        for height in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite height"):
                cylinder(1.0, height)

    def test_curvature_bounds(self):
        assert curvature_bound(sphere(2.0)) == 0.5
        assert curvature_bound(disk(3.0)) == 0.0
        assert curvature_bound(cylinder(0.5, 1.0)) == 2.0
        assert curvature_bound(circle(4.0)) == 0.25

    def test_intrinsic_diameters(self):
        assert intrinsic_diameter(sphere(1.0)) == pytest.approx(math.pi)
        assert intrinsic_diameter(disk(1.0)) == pytest.approx(2.0)
        assert intrinsic_diameter(circle(1.0)) == pytest.approx(math.pi)
        assert intrinsic_diameter(cylinder(1.0, 2.0)) == pytest.approx(
            math.hypot(2.0, math.pi)
        )

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            sphere(0.0)


class TestSampling:
    def test_sphere_grid_smallest_is_octahedron(self):
        pts = sample_surface(sphere(1.0), "grid", 6).points
        expected = {
            (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
            (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
        }
        assert {tuple(p) for p in pts.tolist()} == expected

    @pytest.mark.parametrize("level", range(7))
    def test_octahedron_grid_matches_2d_unique(self, level):
        assert np.array_equal(_octahedron_grid(level), octahedron_grid_2d_unique(level))

    def test_sphere_grid_counts(self):
        for n, expect in [(7, 18), (20, 66), (100, 258), (1000, 1026)]:
            assert sample_surface(sphere(1.0), "grid", n).n == expect

    def test_disk_grid_is_lattice_cap(self):
        pts = sample_surface(disk(1.0), "grid", 9).points
        # 3x3 lattice on [-1,1]^2 minus the four corners outside the disk.
        expected = {
            (-1.0, 0.0), (0.0, -1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
        }
        assert {tuple(p) for p in pts.tolist()} == expected

    def test_circle_grid_equal_angles(self):
        pts = sample_surface(circle(2.0), "grid", 4).points
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0)
        angles = np.sort(np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi))
        assert np.allclose(np.diff(angles), math.pi / 2)

    def test_all_samples_lie_on_surface(self):
        for spec in (sphere(1.5), disk(2.0), cylinder(1.0, 3.0), circle(1.0)):
            for mode in ("grid", "uniform-random"):
                pts = sample_surface(spec, mode, 40, seed=3).points
                assert float(np.max(surface_residual(spec, pts))) <= 1e-9

    def test_random_mode_is_seeded(self):
        a = sample_surface(sphere(1.0), "uniform-random", 50, seed=9).points
        b = sample_surface(sphere(1.0), "uniform-random", 50, seed=9).points
        c = sample_surface(sphere(1.0), "uniform-random", 50, seed=10).points
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_minimum_count(self):
        with pytest.raises(ValueError):
            sample_surface(sphere(1.0), "grid", 1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sample_surface(sphere(1.0), "stratified", 10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_empty_disk_grid_rejected(self, n):
        # The 2 x 2 lattice has no point inside the disk.
        with pytest.raises(ValueError, match=f"the disk grid for n = {n} has 0"):
            sample_surface(disk(1.0), "grid", n)
        assert sample_surface(disk(1.0), "grid", 5).n == 5

    @pytest.mark.parametrize("spec, mode, n, count", [
        (sphere(1.0), "uniform-random", 3 * 10**9, 3 * 10**9),
        (sphere(1.0), "uniform-random", 2**31, 2**31),
        (sphere(1.0), "grid", 2**31 - 1, 2 + 4**16),
        (sphere(1.0), "grid", 2**30 + 3, 2 + 4**16),  # rounded up past the limit
        (disk(1.0), "grid", 2**31 - 1, 46341**2),
        (circle(1.0), "grid", 2**31, 2**31),
        (cylinder(1.0, 4.0), "grid", 2**31, None),
    ])
    def test_oversized_sample_rejected_before_any_array(self, monkeypatch, spec, mode, n, count):
        def refuse(*args, **kwargs):
            raise AssertionError("an oversized sample was laid out")
        monkeypatch.setattr(surfaces, "_random_points", refuse)
        monkeypatch.setattr(surfaces, "_octahedron_grid", refuse)
        for name in ("linspace", "arange", "meshgrid"):
            monkeypatch.setattr(surfaces.np, name, refuse)
        with pytest.raises(ValueError, match="a sample must have fewer than 2\\*\\*31") as err:
            sample_surface(spec, mode, n, seed=1)
        if count is not None:
            assert f"has {count} points" in str(err.value)

    def test_points_are_immutable(self):
        pts = sample_surface(sphere(1.0), "grid", 6).points
        with pytest.raises(ValueError):
            pts[0, 0] = 7.0


SPECS = {"sphere": sphere(1.0), "disk": disk(1.0), "cylinder": cylinder(1.0, 4.0),
         "circle": circle(1.0)}


def bitwise_morton_order(pts):
    """The slow twin of ``_z_order``: each point's Morton key built one
    bit at a time, the highest axis bit first, then a stable sort."""
    n, dim = pts.shape
    bits = 63 // dim
    keys = [0] * n
    for axis in range(dim):
        lo, span = pts[:, axis].min(), np.ptp(pts[:, axis])
        scale = (2**bits - 1) / span if span > 0.0 else 0.0
        q = ((pts[:, axis] - lo) * scale).astype(np.uint64).tolist()
        for i in range(n):
            keys[i] |= sum(((q[i] >> b) & 1) << (b * dim + dim - 1 - axis) for b in range(bits))
    assert max(keys) < 2**63
    return sorted(range(n), key=keys.__getitem__)


class TestZOrder:
    """Uniform-random samples come in Z-order: the same points as the
    draw, relabelled, so every graph and distance is the same under the
    permutation."""

    @pytest.mark.parametrize("kind", ["sphere", "disk"])
    def test_key_matches_the_bit_loop(self, kind):
        pts = surfaces._random_points(SPECS[kind], 300, 5)
        assert surfaces._z_order(pts).tolist() == bitwise_morton_order(pts)

    def test_ties_keep_the_draw_order(self):
        # Keys rise from (0, 0) to (0.5, 1) to (1, 0); equal keys keep
        # their order over more rows than a small-array sort sees.
        pts = np.tile([[1.0, 0.0], [0.0, 0.0], [0.5, 1.0]], (20, 1))
        want = [i for rest in (1, 2, 0) for i in range(60) if i % 3 == rest]
        assert surfaces._z_order(pts).tolist() == want

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(kind=st.sampled_from(sorted(SPECS)), n=st.integers(2, 600),
           seed=st.integers(0, 2**64 - 1), r=st.floats(0.05, 0.6))
    def test_relabels_the_draw(self, kind, n, seed, r):
        spec = SPECS[kind]
        drawn = surfaces._random_points(spec, n, seed)
        got = sample_surface(spec, "uniform-random", n, seed).points
        # The permutation that matches rows, found by sorting both sides.
        perm = np.empty(n, dtype=np.int64)
        perm[np.lexsort(got.T)] = np.lexsort(drawn.T)
        assert sorted(perm.tolist()) == list(range(n))
        assert np.array_equal(got, drawn[perm])
        g_drawn, g_got = (build_graph(p, kind="ball", r=r) for p in (drawn, got))
        moved = {tuple(sorted((int(perm[i]), int(perm[j])))): w
                 for (i, j), w in graph_edge_set(g_got).items()}
        assert moved == graph_edge_set(g_drawn)
        sources = sorted({0, n // 2, n - 1})
        rows_got = shortest_distances(g_got, sources)
        rows_drawn = shortest_distances(g_drawn, perm[sources].tolist())
        assert rows_got.tobytes() == rows_drawn[:, perm].tobytes()

    def test_neighbours_get_nearby_indices(self):
        # In draw order the median |i - j| over the slots reads 5,868.
        sample = sample_surface(sphere(1.0), "uniform-random", 20000, 1)
        g = build_graph(sample, kind="ball", r=0.05)
        rows = np.repeat(np.arange(g.n), g.degrees())
        assert np.median(np.abs(rows - g.indices)) <= g.n / 100

    @pytest.mark.parametrize("kind, n", [("sphere", 300), ("disk", 200), ("cylinder", 300),
                                         ("circle", 50)])
    def test_grid_keeps_its_construction_order(self, kind, n):
        got = sample_surface(SPECS[kind], "grid", n).points
        want = _grid(SPECS[kind], n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestGeodesicOracle:
    def test_sphere_quarter(self):
        got = geodesic_oracle(sphere(1.0), [1, 0, 0], [0, 1, 0])
        assert got == pytest.approx(math.pi / 2, rel=1e-15)

    def test_sphere_antipodal(self):
        got = geodesic_oracle(sphere(1.0), [0, 0, 1], [0, 0, -1])
        assert got == pytest.approx(math.pi, rel=1e-15)

    def test_sphere_scaled(self):
        got = geodesic_oracle(sphere(2.0), [2, 0, 0], [0, 2, 0])
        assert got == pytest.approx(math.pi, rel=1e-15)

    def test_disk_straight_line(self):
        assert geodesic_oracle(disk(1.0), [0.0, 0.0], [1.0, 0.0]) == 1.0

    def test_cylinder_half_wrap(self):
        got = geodesic_oracle(cylinder(1.0, 4.0), [1, 0, 0], [-1, 0, 0])
        assert got == pytest.approx(math.pi, rel=1e-12)

    def test_cylinder_takes_short_way_around(self):
        a = [1.0, 0.0, 0.0]
        b = [math.cos(3 * math.pi / 2), math.sin(3 * math.pi / 2), 0.0]
        got = geodesic_oracle(cylinder(1.0, 4.0), a, b)
        assert got == pytest.approx(math.pi / 2, rel=1e-12)

    def test_cylinder_mixes_height_and_angle(self):
        a = [1.0, 0.0, 0.0]
        b = [-1.0, 0.0, 1.0]
        got = geodesic_oracle(cylinder(1.0, 4.0), a, b)
        assert got == pytest.approx(math.hypot(1.0, math.pi), rel=1e-12)

    def test_circle_arc(self):
        got = geodesic_oracle(circle(1.0), [1, 0], [0, 1])
        assert got == pytest.approx(math.pi / 2, rel=1e-15)

    def test_off_surface_rejected(self):
        with pytest.raises(ValueError):
            geodesic_oracle(sphere(1.0), [1.1, 0, 0], [0, 1, 0])

    def test_symmetry(self):
        spec = cylinder(1.0, 4.0)
        a = [math.cos(0.3), math.sin(0.3), 0.7]
        b = [math.cos(2.1), math.sin(2.1), 1.9]
        assert geodesic_oracle(spec, a, b) == geodesic_oracle(spec, b, a)


class TestCoveringRadius:
    def test_two_antipodal_points(self):
        # Two points have no convex hull, so the radius falls back to
        # the diameter bound, above the true value pi/2 (the equator).
        samp = SampleSet(
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
            sphere(1.0), "grid", None,
        )
        est = covering_radius(samp)
        assert est.radius == intrinsic_diameter(sphere(1.0)) == math.pi
        assert est.reference_size == 0

    def test_single_point_circle(self):
        # The far side of the circle, half its circumference away: the
        # diameter bound is exact here.
        samp = SampleSet(np.array([[0.5, 0.0]]), circle(0.5), "grid", None)
        assert covering_radius(samp).radius == 0.5 * math.pi

    def test_empty_sample_is_uncovered(self):
        samp = SampleSet(np.empty((0, 2)), circle(1.0), "grid", None)
        assert covering_radius(samp).radius == math.inf

    def test_identical_sets_have_zero_gap(self):
        pts = sample_surface(sphere(1.0), "grid", 66).points
        assert directed_hausdorff(pts, pts) == 0.0

    def test_denser_sample_is_tighter(self):
        coarse = covering_radius(sample_surface(sphere(1.0), "grid", 66))
        fine = covering_radius(sample_surface(sphere(1.0), "grid", 258))
        assert fine.radius < coarse.radius

    @pytest.mark.parametrize("spec", [sphere(1.0), disk(1.5), cylinder(1.0, 2.0), circle(0.5)])
    @pytest.mark.parametrize("mode, n", [("grid", 30), ("grid", 70), ("uniform-random", 40),
                                         ("grid", 600), ("uniform-random", 600)])
    def test_within_the_grid_twin_bracket(self, spec, mode, n):
        samp = sample_surface(spec, mode, n, seed=11)
        low, high = grid_covering_bracket(samp)
        est = covering_radius(samp)
        assert est.reference_size > 0
        assert low <= est.radius <= high

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(kind=st.sampled_from(["sphere", "disk", "cylinder", "circle"]),
           mode=st.sampled_from(["grid", "uniform-random"]),
           n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
    def test_at_least_every_surface_points_gap(self, kind, mode, n, seed):
        # No surface point lies farther from the sample than the radius.
        spec = {"sphere": sphere(1.3), "disk": disk(0.7), "cylinder": cylinder(0.6, 2.5),
                "circle": circle(2.0)}[kind]
        samp = sample_surface(spec, mode, n, seed)
        probe = sample_surface(spec, "uniform-random", 3000, seed + 1).points
        assert intrinsic_nearest(spec, samp.points, probe).max() <= covering_radius(samp).radius

    @pytest.mark.parametrize("spec", [sphere(1.0), disk(1.5), cylinder(1.0, 2.0), circle(0.5)])
    def test_coincident_points_change_nothing(self, spec):
        samp = sample_surface(spec, "uniform-random", 50, seed=3)
        doubled = SampleSet(np.concatenate([samp.points, samp.points[:10]]), spec,
                            samp.mode, samp.seed)
        assert covering_radius(doubled).radius == covering_radius(samp).radius

    def test_one_hemisphere_sample(self):
        # The hull misses the centre, so the farthest point is the far
        # midpoint -(p + q)/|p + q| of a hull edge, not a facet normal.
        pts = sample_surface(sphere(1.0), "uniform-random", 400, seed=7).points
        cap = SampleSet(pts[pts[:, 2] > 0.1], sphere(1.0), "uniform-random", 7)
        est = covering_radius(cap)
        probe = sample_surface(sphere(1.0), "uniform-random", 200000, seed=8).points
        dense = intrinsic_nearest(sphere(1.0), cap.points, probe).max()
        assert est.reference_size > 0
        assert dense <= est.radius <= dense + 0.01

    def test_disk_rim_opposite_a_site(self):
        # The farthest point is the rim point opposite the site near the
        # centre, far from every Voronoi vertex and bisector crossing.
        pts = np.array([[0.1, 0.0], [0.95, 0.3], [0.95, -0.3]])
        est = covering_radius(SampleSet(pts, disk(1.0), "uniform-random", 0))
        assert est.radius == pytest.approx(1.1, rel=2e-12)
        assert est.radius >= 1.1

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(kind=st.sampled_from(["disk", "cylinder"]),
           shape=st.sampled_from(["grid", "uniform-random", "duplicated", "collinear"]),
           n=st.integers(3, 600), seed=st.integers(0, 2**32 - 1))
    @example(kind="disk", shape="collinear", n=3, seed=0)
    @example(kind="cylinder", shape="collinear", n=40, seed=1)
    @example(kind="disk", shape="grid", n=600, seed=0)
    def test_matches_the_voronoi_twin(self, kind, shape, n, seed):
        # The Delaunay candidates give the Voronoi twin's radius, up to
        # the rounding of the circumcentres, and fall back together.
        spec = {"disk": disk(0.7), "cylinder": cylinder(0.6, 2.5)}[kind]
        if shape == "grid":
            # Laid out directly: sample_surface refuses the empty disk
            # grids of n <= 4, which the covering radius reads as uncovered.
            samp = SampleSet(_grid(spec, n), spec, "grid", None)
        else:
            samp = sample_surface(spec, "uniform-random", n, seed)
        pts = samp.points
        if shape == "duplicated":
            pts = np.concatenate([pts, pts[: n // 2]])
        elif shape == "collinear":  # a diameter of the disk, a ring of the cylinder
            pts = pts.copy()
            if kind == "disk":
                pts[:, 0], pts[:, 1] = np.linalg.norm(pts, axis=1), 0.0
            else:
                pts[:, 2] = 1.0
        samp = SampleSet(pts, spec, samp.mode, samp.seed)
        got, want = covering_radius(samp), voronoi_covering_radius(samp)
        assert got.radius == want.radius or (
            abs(got.radius - want.radius) <= 4 * np.spacing(max(got.radius, want.radius))
        )
        assert (got.reference_size == 0) == (want.reference_size == 0)
        if got.reference_size == 0 and samp.n:  # an empty sample is uncovered
            assert got.radius == intrinsic_diameter(spec)

    def test_covering_memory(self):
        # The tracemalloc peak of the 8000-point uniform cylinder (17.6k
        # unrolled sites): 14.6 MB from the Delaunay triangles, 23.6 MB
        # from a Voronoi object, whose Python lists tracemalloc sees.
        samp = sample_surface(cylinder(1.0, 4.0), "uniform-random", 8000, 5)
        tracemalloc.start()
        try:
            est = covering_radius(samp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.reference_size > 0
        assert peak <= 19e6

    def test_directed_hausdorff_empty_target(self):
        assert directed_hausdorff(np.ones((3, 2)), np.empty((0, 2))) == math.inf

    def test_directed_hausdorff_is_one_sided(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.0, 0.0], [5.0, 0.0]])
        assert directed_hausdorff(a, b) == 0.0
        assert directed_hausdorff(b, a) == 5.0


class TestSurfaceDicts:
    @pytest.mark.parametrize("spec", [sphere(2.0), disk(1.5), cylinder(1.0, 3.0), circle(0.5)])
    def test_round_trip(self, spec):
        data = surface_to_json(spec)
        assert set(data) <= {"kind", "radius", "height"}
        assert surface_from_json(data) == spec
        assert surface_from_json(json.loads(json.dumps(data))) == spec

    @pytest.mark.parametrize("key", ["hieght", "ambient_dim"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ValueError) as exc:
            surface_from_json({"kind": "cylinder", "radius": 1.0, "height": 4.0, key: 3})
        assert str(exc.value) == (
            f"unknown surface keys: [{key!r}]; a surface takes kind, radius and height"
        )


class TestPointsIO:
    def test_round_trip_bit_exact(self, tmp_path):
        samp = sample_surface(sphere(1.0), "uniform-random", 37, seed=5)
        path = str(tmp_path / "pts.csv")
        write_points_csv(path, samp)
        back = read_points_csv(path)
        assert np.array_equal(back, samp.points)

    def test_sidecar_restores_surface(self, tmp_path):
        samp = sample_surface(cylinder(1.5, 2.0), "grid", 30)
        path = str(tmp_path / "pts.csv")
        write_points_csv(path, samp)
        with open(sidecar_path(path), encoding="utf-8") as fh:
            meta = json.load(fh)
        assert meta["surface"] == {"kind": "cylinder", "radius": 1.5, "height": 2.0}
        assert surface_from_json(meta["surface"]) == samp.surface
        assert (meta["mode"], meta["n"], meta["seed"], meta["D"]) == ("grid", samp.n, samp.seed, 3)
        assert np.array_equal(read_points_csv(path), samp.points)

    @pytest.mark.parametrize("text, message", [
        ("0,0\n1x,0\n1,0\n2,0\n", ":2: expected numeric coordinates, got '1x,0'"),
        ("x0,x1\n0,0\nx0,x1\n", ":3: expected numeric coordinates"),
        ("1x,0\n1,0\n", ":1: expected numeric coordinates"),
        ("x0,x1\n0,0\n1,0,2\n", ":3: expected 2 coordinates, got 3"),
        ("x0,x1\n0,0\n\n1,nan\n", ":4: coordinate is not finite"),
        ("0,0\ninf,1\n", ":2: coordinate is not finite"),
    ])
    def test_bad_row_rejected_with_line(self, tmp_path, text, message):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_points_csv(str(path))
        assert str(exc.value).startswith(f"{path}{message}")

    def test_header_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# sample\n\nx0,x1\n0,0\n\n1,0.5\n")
        assert read_points_csv(str(path)).tolist() == [[0.0, 0.0], [1.0, 0.5]]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x0,x1\n")
        with pytest.raises(ValueError, match="no points"):
            read_points_csv(str(path))
