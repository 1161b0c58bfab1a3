import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from geoknot import (
    SampleSet,
    circle,
    constrained_oracle,
    covering_radius,
    curvature_bound,
    cylinder,
    directed_hausdorff,
    disk,
    geodesic_oracle,
    intrinsic_diameter,
    load_sample,
    read_points_csv,
    sample_surface,
    sphere,
    write_points_csv,
)
from geoknot.surfaces import (
    _grid_points,
    _octahedron_grid,
    _reference,
    surface_residual,
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

    def test_cylinder_needs_height(self):
        with pytest.raises(ValueError):
            cylinder(1.0, -1.0)

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

    def test_points_are_immutable(self):
        pts = sample_surface(sphere(1.0), "grid", 6).points
        with pytest.raises(ValueError):
            pts[0, 0] = 7.0


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


class TestConstrainedOracle:
    def test_above_bound_matches_geodesic(self):
        spec = sphere(1.0)
        x, y = [1, 0, 0], [0, 0, 1]
        assert constrained_oracle(spec, 1.0, x, y) == geodesic_oracle(spec, x, y)
        assert constrained_oracle(spec, 2.5, x, y) == geodesic_oracle(spec, x, y)

    def test_below_bound_unavailable(self):
        assert constrained_oracle(sphere(1.0), 0.5, [1, 0, 0], [0, 0, 1]) is None

    def test_flat_surface_always_available(self):
        got = constrained_oracle(disk(1.0), 0.01, [0.0, 0.0], [0.5, 0.0])
        assert got == 0.5


class TestCoveringRadius:
    def test_reference_must_dominate(self):
        samp = sample_surface(sphere(1.0), "grid", 66)
        with pytest.raises(ValueError):
            covering_radius(samp, 100)

    def test_two_antipodal_points(self):
        samp = SampleSet(
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
            sphere(1.0), "grid", None,
        )
        est = covering_radius(samp, 66)
        # Worst gap is the equator, a chord of sqrt(2); the reference
        # grid contains exact equator points.
        assert est.radius == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert est.padded > est.radius

    def test_single_point_circle(self):
        samp = SampleSet(np.array([[1.0, 0.0]]), circle(1.0), "grid", None)
        est = covering_radius(samp, 10)
        assert est.radius == pytest.approx(2.0, rel=1e-12)

    def test_empty_sample_is_uncovered(self):
        samp = SampleSet(np.empty((0, 2)), circle(1.0), "grid", None)
        assert covering_radius(samp, 10).radius == math.inf

    def test_identical_sets_have_zero_gap(self):
        pts = sample_surface(sphere(1.0), "grid", 66).points
        assert directed_hausdorff(pts, pts) == 0.0

    def test_denser_sample_is_tighter(self):
        coarse = covering_radius(sample_surface(sphere(1.0), "grid", 66), 1000)
        fine = covering_radius(sample_surface(sphere(1.0), "grid", 258), 10000)
        assert fine.radius < coarse.radius

    def test_reference_grid_built_once_per_shape(self):
        # 2580 and 2500 requested points build the same 4098-point grid.
        _reference.cache_clear()
        grid = sample_surface(sphere(1.0), "grid", 258)
        random = sample_surface(sphere(1.0), "uniform-random", 250, 3)
        ests = [covering_radius(grid, 2580), covering_radius(random, 2500)]
        info = _reference.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        ref, spacing = _reference(sphere(1.0), 5)
        assert not ref.flags.writeable
        # Bit for bit what an uncached estimate computes.
        fresh = _grid_points(sphere(1.0), 2580)
        assert np.array_equal(ref, fresh)
        assert spacing == float(np.max(cKDTree(fresh).query(fresh, k=2)[0][:, 1]))
        for est, samp in zip(ests, (grid, random)):
            assert est.reference_size == 4098
            assert est.reference_spacing == spacing
            assert est.radius == directed_hausdorff(fresh, samp.points)

    def test_directed_hausdorff_empty_target(self):
        assert directed_hausdorff(np.ones((3, 2)), np.empty((0, 2))) == math.inf

    def test_directed_hausdorff_is_one_sided(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.0, 0.0], [5.0, 0.0]])
        assert directed_hausdorff(a, b) == 0.0
        assert directed_hausdorff(b, a) == 5.0


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
        loaded = load_sample(path)
        assert loaded.surface == samp.surface
        assert loaded.mode == "grid"
        assert np.array_equal(loaded.points, samp.points)

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
