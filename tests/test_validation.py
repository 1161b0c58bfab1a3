import csv
import io
import json
import math

import numpy as np
import pytest

from geoknot import validation
from geoknot import (
    COMPARISON_CONSTANT,
    BoundReport,
    EdgeStateEngine,
    GateError,
    PairCheck,
    REPORT_HEADER,
    build_graph,
    covering_radius,
    disk,
    geodesic_oracle,
    perturb_graph_weights,
    sample_surface,
    select_pairs,
    shortest_distances,
    sphere,
    summary_payload,
    surface_label,
    verify_chord_bound,
    verify_constrained_lower,
    verify_constrained_upper,
    verify_curvature_consistency,
    verify_unconstrained_lower,
    verify_unconstrained_upper,
    write_report_csv,
    write_summary_json,
)


class TestUnconstrainedUpper:
    def test_disk_default_radius(self):
        # r defaults to 4x the density estimate, which makes the bound
        # factor exactly 2.
        rep = verify_unconstrained_upper(disk(1.0), 2500, pairs=25)
        assert rep.experiment == "unconstrained-upper"
        assert rep.violations == 0
        assert rep.summary["fitted_constants"]["bound_factor"] == 2.0
        assert rep.r == pytest.approx(4.0 * rep.epsilon)
        assert rep.summary["pairs"] == 25
        for row in rep.rows:
            assert row.ratio == pytest.approx(
                row.graph_delta / row.oracle_delta
            )

    def test_direct_edges_never_exceed_bound(self):
        # On the flat disk every graph path is a polyline, so the graph
        # distance can never undercut the straight-line oracle.
        rep = verify_unconstrained_upper(disk(1.0), 2500, pairs=25)
        for row in rep.rows:
            assert row.graph_delta >= row.oracle_delta * (1 - 1e-12)

    def test_density_gate(self):
        with pytest.raises(GateError, match="eps <= r/4"):
            verify_unconstrained_upper(disk(1.0), 200, r=0.05, pairs=5)

    def test_perturbation_breaks_bound(self):
        # Inflating weights by 2.5x pushes every ratio past the factor
        # of 2; the self-test must report every pair as a violation.
        rep = verify_unconstrained_upper(
            disk(1.0), 2500, pairs=15, perturb_weights=-0.6
        )
        assert rep.violations == 15


class TestUnconstrainedLower:
    def test_sphere_factor_value(self):
        rep = verify_unconstrained_lower(sphere(1.0), 200, r=0.3, pairs=20)
        want = 1.0 + COMPARISON_CONSTANT * 0.09
        assert rep.summary["fitted_constants"]["bound_factor"] == pytest.approx(
            want, rel=0, abs=0
        )
        assert want == pytest.approx(1.0177652879219607, abs=1e-15)
        assert rep.violations == 0
        assert rep.summary["factor_form"].startswith("1 + C*(kappa_S*r)^2")

    def test_disk_factor_is_one(self):
        # Zero surface curvature: the lower bound holds with factor
        # exactly 1, i.e. graph distance >= straight-line distance.
        rep = verify_unconstrained_lower(disk(1.0), 900, r=0.25, pairs=20)
        assert rep.summary["fitted_constants"]["bound_factor"] == 1.0
        assert rep.violations == 0

    def test_curvature_gate_fires_before_sampling(self):
        # kappa_S * r = 0.4 trips the gate; with n this large the call
        # only returns quickly because no sample is ever drawn.
        with pytest.raises(GateError, match="kappa_S"):
            verify_unconstrained_lower(sphere(1.0), 10**6, r=0.4, pairs=5)

    def test_perturbation_breaks_bound(self):
        rep = verify_unconstrained_lower(
            disk(1.0), 900, r=0.25, pairs=15, perturb_weights=0.5
        )
        assert rep.violations == 15


class TestConstrainedUpper:
    def test_bisection_finds_finite_cap(self, monkeypatch):
        caps = []

        class CapSpy(EdgeStateEngine):
            def distances(self, kappa, sources):
                if isinstance(sources, dict):
                    caps.append(kappa)
                return super().distances(kappa, sources)

        monkeypatch.setattr(validation, "EdgeStateEngine", CapSpy)
        rep = verify_constrained_upper(
            sphere(1.0), 200, r=0.4, alpha=0.25, kappa=2.0, pairs=8
        )
        assert rep.violations == 0
        assert math.isfinite(rep.kappa_prime)
        assert rep.kappa_prime > rep.kappa
        fc = rep.summary["fitted_constants"]
        assert fc["kappa_prime_min"] == rep.kappa_prime
        assert fc["C_emp"] is not None and fc["C_emp"] > 0.0
        assert rep.summary["evaluations"] >= 2
        g = build_graph(sample_surface(sphere(1.0), "grid", 200),
                        kind="annulus", r=0.4, alpha=0.25)
        engine = EdgeStateEngine(g)
        # A source is re-searched at a cap when one of its targets lies
        # beyond SEARCH_REACH times its farthest pair's oracle.
        reach = {}
        for row in rep.rows:
            reach[row.pair_i] = max(reach.get(row.pair_i, 0.0), row.oracle_delta)
        sources = sorted(reach)
        missed = 0
        for cap in caps:
            dist = engine.distances(cap, sources)
            missed += len({
                row.pair_i for row in rep.rows
                if dist[sources.index(row.pair_i), row.pair_j]
                > validation.SEARCH_REACH * reach[row.pair_i]
            })
        assert len(caps) == rep.summary["evaluations"]
        assert missed > 0
        assert rep.summary["sizes"] == {
            "states": 2 * g.edge_count, "transitions": engine.transitions,
            "searched_sources": len(caps) * len(sources),
            "re_searched_sources": missed,
        }
        assert 0 < engine.transitions < int(np.dot(g.degrees(), g.degrees()))

    def test_fixed_infinite_cap(self):
        rep = verify_constrained_upper(
            sphere(1.0), 200, r=0.4, alpha=0.25, kappa=2.0,
            kappa_prime=math.inf, pairs=8,
        )
        assert rep.kappa_prime == math.inf
        assert rep.violations == 0
        assert rep.summary["evaluations"] == 1
        assert rep.summary["fitted_constants"]["kappa_prime_min"] is None

    def test_gates(self):
        with pytest.raises(GateError, match="alpha"):
            verify_constrained_upper(sphere(1.0), 100, r=0.4, alpha=0.3)
        with pytest.raises(GateError, match="curvature bound"):
            verify_constrained_upper(sphere(1.0), 100, r=0.4, kappa=0.5)


class TestConstrainedLower:
    def test_report_per_density(self):
        reports = verify_constrained_lower(
            sphere(1.0), [900, 2000], r=0.3, alpha=0.25, kappa=1.0, pairs=10
        )
        assert len(reports) == 2
        assert [rep.n for rep in reports] == [1026, 4098]
        for rep in reports:
            assert rep.experiment == "constrained-lower"
            assert rep.violations == 0
            assert rep.summary["max_path_curvature"] > 0.0
            assert math.isfinite(rep.summary["max_path_curvature"])
            fc = rep.summary["fitted_constants"]
            assert "q_hat" in fc and "C_emp" in fc
            assert isinstance(rep.summary["certified_regime"], bool)

    def test_gates(self):
        with pytest.raises(GateError, match="alpha"):
            verify_constrained_lower(sphere(1.0), [100], r=0.3, alpha=0.5)
        with pytest.raises(GateError, match="kappa_S"):
            verify_constrained_lower(sphere(1.0), [100], r=0.5)
        with pytest.raises(GateError, match="kappa"):
            verify_constrained_lower(sphere(1.0), [100], r=0.3, kappa=math.inf)


    def test_certified_regime_reads_padded_eps(self):
        # A threshold between the raw estimate and the padded one: only
        # the raw underestimate would claim the certified regime.
        sample = sample_surface(sphere(1.0), "grid", 900)
        cov = covering_radius(sample, 10 * sample.n)
        scale = 0.25 * 1.0 * 0.3**2  # alpha * kappa * r^2

        def run(threshold):
            (rep,) = verify_constrained_lower(
                sphere(1.0), [900], r=0.3, alpha=0.25, kappa=1.0, pairs=10,
                c_gate=scale / threshold,
            )
            return rep

        assert cov.radius < cov.padded
        rep = run(0.5 * (cov.radius + cov.padded))
        assert rep.summary["certified_regime"] is False
        assert rep.epsilon == cov.radius
        rep = run(cov.padded * (1.0 + 1e-9))
        assert rep.summary["certified_regime"] is True
        assert rep.epsilon == cov.radius


class TestBoundedSearches:
    """The runners search each source only up to SEARCH_REACH times its
    farthest pair's oracle, then re-search the sources that missed a
    target.  Reports must equal unbounded searches bit for bit."""

    def test_no_re_search_on_criterion_one_input(self):
        rep = verify_unconstrained_upper(sphere(1.0), 2000, pairs=200, seed=0)
        assert rep.summary["sizes"] == {
            "searched_sources": len({row.pair_i for row in rep.rows}),
            "re_searched_sources": 0,
        }

    @pytest.mark.parametrize("perturb", [0.0, -0.5])
    @pytest.mark.parametrize("runner, kwargs", [
        (verify_unconstrained_upper, {}),
        (verify_unconstrained_lower, {"r": 0.3}),
    ])
    def test_unconstrained_rows_equal_unbounded_search(self, runner, kwargs, perturb):
        rep = runner(sphere(1.0), 500, pairs=30, seed=3,
                     perturb_weights=perturb, **kwargs)
        g = perturb_graph_weights(
            build_graph(sample_surface(sphere(1.0), "grid", 500),
                        kind="ball", r=rep.r),
            perturb,
        )
        sources = sorted({row.pair_i for row in rep.rows})
        dist = shortest_distances(g, sources)
        for row in rep.rows:
            assert row.graph_delta == dist[sources.index(row.pair_i), row.pair_j]
        sizes = rep.summary["sizes"]
        assert sizes["searched_sources"] == len(sources)
        # Doubled weights put every target beyond 1.25x its oracle.
        missed = len(sources) if perturb else 0
        assert sizes["re_searched_sources"] == missed

    @pytest.mark.parametrize("perturb", [0.0, -0.5])
    @pytest.mark.parametrize("kappa_prime", [None, math.inf])
    def test_constrained_rows_equal_unbounded_search(self, kappa_prime, perturb):
        rep = verify_constrained_upper(
            sphere(1.0), 200, r=0.4, alpha=0.25, kappa=2.0, pairs=8,
            kappa_prime=kappa_prime, perturb_weights=perturb,
        )
        g = perturb_graph_weights(
            build_graph(sample_surface(sphere(1.0), "grid", 200),
                        kind="annulus", r=0.4, alpha=0.25),
            perturb,
        )
        sources = sorted({row.pair_i for row in rep.rows})
        dist = EdgeStateEngine(g).distances(rep.kappa_prime, sources)
        for row in rep.rows:
            assert row.graph_delta == dist[sources.index(row.pair_i), row.pair_j]
        sizes = rep.summary["sizes"]
        searched = rep.summary["evaluations"] * len(sources)
        assert sizes["searched_sources"] == searched
        if perturb:
            assert sizes["re_searched_sources"] == searched
        elif kappa_prime == math.inf:
            assert sizes["re_searched_sources"] == 0


class TestChordBound:
    def test_circle_rows_are_equalities(self):
        rep = verify_chord_bound(kappa=2.0, arc_count=10)
        circle_rows = [row for row in rep.rows if row.pair_j == 0]
        sphere_rows = [row for row in rep.rows if row.pair_j == 1]
        assert len(circle_rows) == 10 and len(sphere_rows) == 10
        assert rep.violations == 0
        for row in circle_rows:
            assert abs(row.oracle_delta - row.graph_delta) <= 1e-12
        for row in sphere_rows:
            assert row.oracle_delta >= row.graph_delta - 1e-12
        assert set(rep.summary["row_groups"]) == {"0", "1"}

    def test_arclength_gate(self):
        with pytest.raises(GateError, match="arclength"):
            verify_chord_bound(kappa=1.0, arclengths=[4.0])
        with pytest.raises(GateError, match="arclength"):
            verify_chord_bound(kappa=1.0, arclengths=[-0.1])
        with pytest.raises(GateError, match="kappa"):
            verify_chord_bound(kappa=math.inf)


class TestCurvatureConsistency:
    def test_circle(self):
        rep = verify_curvature_consistency("circle")
        assert rep.kappa == 1.0
        assert rep.violations == 0
        assert len(rep.summary["errors"]) == 3
        assert rep.summary["errors"][-1] <= 1e-3

    def test_line_is_exact(self):
        rep = verify_curvature_consistency("line")
        assert rep.kappa == 0.0
        assert rep.summary["errors"] == [0.0, 0.0, 0.0]
        assert rep.summary["convergence_order"] is None
        assert rep.violations == 0

    def test_helix_second_order(self):
        rep = verify_curvature_consistency("helix")
        assert rep.kappa == pytest.approx(0.8)
        assert rep.violations == 0
        errors = rep.summary["errors"]
        assert errors[0] > errors[1] > errors[2] > 0.0
        assert rep.summary["convergence_order"] == pytest.approx(2.0, abs=0.3)

    def test_gates(self):
        with pytest.raises(GateError, match="decreasing"):
            verify_curvature_consistency("circle", h_sequence=(1e-2, 1e-1))
        with pytest.raises(GateError, match="curve"):
            verify_curvature_consistency("parabola")


class TestHelpers:
    def test_perturb_identity_and_gate(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        g = build_graph(pts, kind="ball", r=1.0)
        assert perturb_graph_weights(g, 0.0) is g
        g2 = perturb_graph_weights(g, 1.0)
        assert np.allclose(g2.weights, g.weights / 2.0)
        assert g.weights[0] == 1.0  # original untouched
        with pytest.raises(ValueError):
            perturb_graph_weights(g, -1.0)

    def test_select_pairs_window_and_determinism(self):
        spec = sphere(1.0)
        samp = sample_surface(spec, "grid", 200)
        r = 0.3
        a = select_pairs(spec, samp, r, 20, np.random.default_rng(7))
        b = select_pairs(spec, samp, r, 20, np.random.default_rng(7))
        assert a == b
        lo, hi = 3 * r, math.pi / 2
        for i, j, delta in a:
            assert i < j
            assert lo <= delta <= hi
            assert delta == pytest.approx(
                geodesic_oracle(spec, samp.points[i], samp.points[j])
            )

    def test_select_pairs_disk_margin(self):
        spec = disk(1.0)
        samp = sample_surface(spec, "grid", 900)
        r = 0.25
        for i, j, _ in select_pairs(spec, samp, r, 20, np.random.default_rng(3)):
            assert np.linalg.norm(samp.points[i]) <= 1.0 - r + 1e-12
            assert np.linalg.norm(samp.points[j]) <= 1.0 - r + 1e-12

    def test_select_pairs_empty_window(self):
        spec = sphere(1.0)
        samp = sample_surface(spec, "grid", 200)
        with pytest.raises(GateError, match="window"):
            select_pairs(spec, samp, 0.6, 5, np.random.default_rng(0))

    def test_surface_labels_comma_free(self):
        from geoknot import circle, cylinder

        for spec in (sphere(2.0), disk(1.0), cylinder(1.0, 3.0), circle(1.0)):
            label = surface_label(spec)
            assert "," not in label
        assert surface_label(disk(1.0)) == "disk(rho=1;d=2)"

    def test_repeated_run_is_deterministic(self):
        a = verify_unconstrained_lower(disk(1.0), 400, r=0.2, pairs=10)
        b = verify_unconstrained_lower(disk(1.0), 400, r=0.2, pairs=10)
        assert a.rows == b.rows


class TestSerialization:
    def make_report(self):
        rep = BoundReport(
            experiment="unconstrained-lower",
            surface="disk(rho=1;d=2)",
            n=5,
            r=0.25,
            alpha=None,
            kappa=None,
            kappa_prime=None,
            epsilon=0.125,
        )
        rep.rows.append(PairCheck(0, 1, 1.0, 1.0625, 1.0625, 1.5, True))
        rep.rows.append(
            PairCheck(2, 3, 1.0, math.inf, math.inf, 1.5, None)
        )
        rep.rows.append(PairCheck(1, 4, 2.0, 1.0, 0.5, 1.5, False))
        rep.summary.update(pairs=3, violations=1, skipped=1)
        return rep

    def test_csv_header_and_cells(self, tmp_path):
        path = tmp_path / "rep.csv"
        write_report_csv(str(path), self.make_report())
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == REPORT_HEADER
        assert text.endswith("\n")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert rows[0]["pass"] == "true"
        assert rows[1]["pass"] == "skip"
        assert rows[1]["graph"] == "inf"
        assert rows[2]["pass"] == "false"
        assert rows[0]["alpha"] == ""
        assert float(rows[0]["r"]) == 0.25

    def test_csv_float_round_trip(self, tmp_path):
        rep = verify_chord_bound(kappa=1.0, arc_count=5)
        path = tmp_path / "rep.csv"
        write_report_csv(str(path), rep)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == len(rep.rows)
        for parsed, row in zip(rows, rep.rows):
            assert float(parsed["oracle"]) == row.oracle_delta
            assert float(parsed["graph"]) == row.graph_delta

    def test_csv_multiple_reports(self, tmp_path):
        reports = [self.make_report(), self.make_report()]
        path = tmp_path / "rep.csv"
        write_report_csv(str(path), reports)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 6

    def test_summary_json(self, tmp_path):
        rep = self.make_report()
        path = tmp_path / "summary.json"
        write_summary_json(str(path), [rep, rep])
        with path.open() as fh:
            data = json.load(fh)
        assert len(data["reports"]) == 2
        entry = data["reports"][0]
        assert entry["experiment"] == "unconstrained-lower"
        assert entry["alpha"] is None
        assert entry["summary"]["violations"] == 1

    def test_summary_json_spells_inf(self):
        rep = self.make_report()
        rep.kappa_prime = math.inf
        payload = summary_payload(rep)
        assert payload["reports"][0]["kappa_prime"] == "inf"
