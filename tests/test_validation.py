import csv
import io
import json
import math
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoknot import validation
from geoknot import (
    COMPARISON_CONSTANT,
    BoundReport,
    EdgeStateEngine,
    GateError,
    PairCheck,
    REPORT_HEADER,
    build_graph,
    constrained_shortest,
    covering_radius,
    dijkstra,
    disk,
    geodesic_oracle,
    graph_from_edges,
    path_max_curvature,
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
from geoknot.paths import SEARCH_REACH, shortest_path_turns
from conftest import finite_turn_curvatures, relaid_perturbation, split_graphs


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

    def test_default_radius_window_before_the_build(self, monkeypatch):
        # With r omitted, r = 4 eps is set from the sample; its window is
        # checked before any graph is built.
        def refuse(*args, **kwargs):
            raise AssertionError("the runner built a graph before checking its pair window")
        monkeypatch.setattr(validation, "build_graph", refuse)
        eps = covering_radius(sample_surface(disk(1.0), "grid", 10)).radius
        with pytest.raises(GateError) as exc:
            verify_unconstrained_upper(disk(1.0), 10, pairs=5)
        assert str(exc.value) == (
            f"pair window empty: 3r = {12.0 * eps:.6g} exceeds half diameter 1"
        )

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
                # One cap per evaluation: an evaluation searches its
                # sources one call at a time, all at its cap.
                if isinstance(sources, dict) and caps[-1:] != [kappa]:
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

    def test_never_passing_run_reports_the_top_cap(self):
        # Weights five times too long fail the bound factor of 4.4 at
        # every cap: one evaluation, at the largest stored curvature, and
        # no minimum or fitted constant.
        rep = verify_constrained_upper(
            sphere(1.0), 200, r=0.4, alpha=0.25, kappa=2.0, pairs=8,
            perturb_weights=-0.8,
        )
        g = build_graph(sample_surface(sphere(1.0), "grid", 200),
                        kind="annulus", r=0.4, alpha=0.25)
        assert rep.violations == 8
        assert rep.summary["evaluations"] == 1
        assert rep.kappa_prime == EdgeStateEngine(g).distinct_curvatures()[-1]
        fc = rep.summary["fitted_constants"]
        assert fc["kappa_prime_min"] is None and fc["C_emp"] is None

    def test_fixed_infinite_cap(self):
        rep = verify_constrained_upper(
            sphere(1.0), 200, r=0.4, alpha=0.25, kappa=2.0,
            kappa_prime=math.inf, pairs=8,
        )
        assert rep.kappa_prime == math.inf
        assert rep.violations == 0
        assert rep.summary["evaluations"] == 1
        assert rep.summary["fitted_constants"]["kappa_prime_min"] is None

    def test_infinite_cap_makes_no_turn_pass(self, monkeypatch):
        # kappa' = inf is answered by plain Dijkstra, so no turn is ever
        # computed, and the report counts none: transitions is null.
        calls = []
        geometry = EdgeStateEngine._geometry

        def spy(engine):
            calls.append(engine)
            return geometry(engine)

        monkeypatch.setattr(EdgeStateEngine, "_geometry", spy)
        rep = verify_constrained_upper(
            sphere(1.0), 200, r=0.4, alpha=0.25, kappa=2.0,
            kappa_prime=math.inf, pairs=8,
        )
        assert calls == []
        sizes = summary_payload(rep)["reports"][0]["summary"]["sizes"]
        assert sizes["transitions"] is None
        assert sizes["states"] == len(build_graph(
            sample_surface(sphere(1.0), "grid", 200), kind="annulus", r=0.4, alpha=0.25
        ).indices)

    def test_gates(self):
        with pytest.raises(GateError, match="alpha"):
            verify_constrained_upper(sphere(1.0), 100, r=0.4, alpha=0.3)
        with pytest.raises(GateError, match="curvature bound"):
            verify_constrained_upper(sphere(1.0), 100, r=0.4, kappa=0.5)

    @pytest.mark.parametrize("kappa_prime", [0.5, math.nan])
    def test_fixed_cap_below_kappa_is_a_gate(self, kappa_prime):
        # The bound holds for kappa' >= kappa only; a lower cap's misses
        # are no violations of it.
        with pytest.raises(GateError, match="kappa_prime must be at least kappa = 2"):
            verify_constrained_upper(sphere(1.0), 200, r=0.4, kappa=2.0,
                                     kappa_prime=kappa_prime, pairs=8)

    def test_infinite_kappa_runs(self):
        # The kappa > 0 gate lets inf, no constraint, through.
        rep = verify_constrained_upper(sphere(1.0), 200, r=0.4, kappa=math.inf, pairs=5)
        assert rep.kappa == rep.kappa_prime == math.inf


class TestChecksBeforeSampling:
    """Each graph runner makes the checks of its graph build, weight
    perturbation and pair selection before it samples, with the same
    exception and message."""

    RUNNERS = {
        "unconstrained-upper": lambda **kw: verify_unconstrained_upper(
            sphere(1.0), 200000, **{"r": 0.05, **kw}),
        "unconstrained-lower": lambda **kw: verify_unconstrained_lower(
            sphere(1.0), 200000, **{"r": 0.05, **kw}),
        "constrained-upper": lambda **kw: verify_constrained_upper(
            sphere(1.0), 200000, **{"r": 0.05, **kw}),
        "constrained-lower": lambda **kw: verify_constrained_lower(
            sphere(1.0), [200000], **{"r": 0.05, **kw}),
    }

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the runner sampled before checking its parameters")
        monkeypatch.setattr(validation, "sample_surface", refuse)

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(pairs=0), GateError, "pairs must be at least 1, got 0"),
        (dict(perturb_weights=math.nan), ValueError,
         "weight perturbation must satisfy -1 < p < inf, got nan"),
        (dict(r=math.nan), ValueError, "r must be positive and finite"),
    ])
    def test_rejected_before_sampling(self, runner, kwargs, error, message):
        with pytest.raises(error) as exc:
            self.RUNNERS[runner](**kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_empty_pair_window_before_sampling(self, runner):
        # On the unit disk, 3r = 1.2 exceeds half the diameter, and the
        # curvature gates pass: kappa_S = 0.
        run = {
            "unconstrained-upper": verify_unconstrained_upper,
            "unconstrained-lower": verify_unconstrained_lower,
            "constrained-upper": verify_constrained_upper,
            "constrained-lower": lambda spec, n, **kw: verify_constrained_lower(spec, [n], **kw),
        }[runner]
        with pytest.raises(GateError) as exc:
            run(disk(1.0), 200000, r=0.4, pairs=5)
        assert str(exc.value) == "pair window empty: 3r = 1.2 exceeds half diameter 1"

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_upper_radius_checked_before_the_density_gate(self, r):
        # r is checked before the sample, so before the density gate.
        with pytest.raises(ValueError) as exc:
            self.RUNNERS["unconstrained-upper"](r=r)
        assert not isinstance(exc.value, GateError)
        assert str(exc.value) == "r must be positive and finite"

    @pytest.mark.parametrize("spec, kappa", [(sphere(1.0), math.nan), (disk(1.0), 0.0)])
    def test_constrained_upper_kappa_must_be_positive(self, spec, kappa):
        with pytest.raises(GateError) as exc:
            verify_constrained_upper(spec, 3096, r=0.1, kappa=kappa, pairs=30)
        assert str(exc.value) == f"kappa must be positive, got {kappa:.6g}"


class TestExactCap:
    """kappa_prime_min against a pure-Python twin: the candidate caps
    from every triple of the graph, and each pair's critical cap from
    ``constrained_shortest``."""

    @pytest.fixture(scope="class")
    def graph(self):
        return build_graph(sample_surface(sphere(1.0), "grid", 200),
                           kind="annulus", r=0.4, alpha=0.25)

    @pytest.fixture(scope="class")
    def stored(self, graph):
        stored = finite_turn_curvatures(graph)
        assert stored == EdgeStateEngine(graph).distinct_curvatures().tolist()
        return stored

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_twin(self, graph, stored, seed):
        rep = verify_constrained_upper(
            sphere(1.0), 200, r=0.4, alpha=0.25, kappa=2.0, pairs=8, seed=seed
        )
        caps = [rep.kappa] + [c for c in stored if c > rep.kappa]
        factor = rep.summary["fitted_constants"]["bound_factor"]

        def passes(cap, row):
            length = constrained_shortest(graph, cap, row.pair_i, row.pair_j).length
            return validation._holds(length, factor * row.oracle_delta)

        def critical(row):
            lo, hi = -1, len(caps) - 1
            assert passes(caps[hi], row)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if passes(caps[mid], row):
                    hi = mid
                else:
                    lo = mid
            return hi

        k = max(critical(row) for row in rep.rows)
        fc = rep.summary["fitted_constants"]
        assert rep.kappa_prime == fc["kappa_prime_min"] == caps[k]
        assert fc["C_emp"] > 0.0
        # One-sided: the reported cap passes, the next lower one fails.
        assert all(passes(caps[k], row) for row in rep.rows)
        assert k > 0 and not all(passes(caps[k - 1], row) for row in rep.rows)
        for row in rep.rows:
            assert row.graph_delta == constrained_shortest(
                graph, rep.kappa_prime, row.pair_i, row.pair_j
            ).length


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

    def test_worst_turn_matches_dijkstra_rows(self, monkeypatch):
        # Criterion 8's N=1026 input, where csgraph and the hand-written
        # dijkstra record different tied paths for some pairs: the
        # runner's worst turn per pair is the one dijkstra's rows give.
        seen = {}  # (source, target) -> turns; the source is the row's 0

        def recording(g, dist, target, turns_of=validation.shortest_path_turns):
            source = int(np.flatnonzero(dist == 0.0)[0])
            seen[source, target] = g, turns_of(g, dist, target)
            return seen[source, target][1]

        monkeypatch.setattr(validation, "shortest_path_turns", recording)
        (rep,) = verify_constrained_lower(
            sphere(1.0), [1000], r=0.25, alpha=0.25, kappa=1.0, pairs=50, seed=0,
        )
        assert rep.n == 1026 and len(seen) == len(rep.rows) == 50
        g = next(iter(seen.values()))[0]

        def worst(turns):
            return max((path_max_curvature(g.points[list(t)]) for t in turns),
                       default=0.0)

        worsts = []
        for row in rep.rows:
            _, turns = seen[row.pair_i, row.pair_j]
            slow = shortest_path_turns(g, dijkstra(g, row.pair_i).dist, row.pair_j)
            assert worst(turns) == worst(slow)
            worsts.append(worst(turns))
        assert max(worsts) == rep.summary["max_path_curvature"]
        assert rep.summary["sizes"]["searched_sources"] == len(
            {row.pair_i for row in rep.rows}
        )


    def test_certified_regime_reads_eps(self):
        # Thresholds just below and just above the exact eps.
        sample = sample_surface(sphere(1.0), "grid", 900)
        eps = covering_radius(sample).radius
        scale = 0.25 * 1.0 * 0.3**2  # alpha * kappa * r^2

        def run(threshold):
            with mock.patch.object(validation, "C_GATE", scale / threshold):
                (rep,) = verify_constrained_lower(
                    sphere(1.0), [900], r=0.3, alpha=0.25, kappa=1.0, pairs=10,
                )
            return rep

        rep = run(eps * (1.0 - 1e-9))
        assert rep.summary["certified_regime"] is False
        assert rep.epsilon == eps
        rep = run(eps * (1.0 + 1e-9))
        assert rep.summary["certified_regime"] is True
        assert rep.epsilon == eps


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


class TestSearchPerSource:
    @pytest.mark.parametrize("perturb", [0.0, -0.5])
    def test_every_search_gets_one_source(self, monkeypatch, perturb):
        """The runners hand the searches one source at a time, bounded
        and re-searched alike: one call per search they count."""
        calls = []

        def spy(g, sources, targets=None, search=validation.shortest_distances):
            calls.append(len(sources))
            return search(g, sources, targets)

        monkeypatch.setattr(validation, "shortest_distances", spy)
        rep = verify_unconstrained_upper(sphere(1.0), 1000, pairs=150, seed=2,
                                         perturb_weights=perturb)
        sizes = rep.summary["sizes"]
        assert set(calls) == {1}
        assert len(calls) == sizes["searched_sources"] + sizes["re_searched_sources"]


class TestGraphRowsTwin:
    """``_graph_rows`` against its unbounded twin: every pair read from
    one unbounded search of all sources."""

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(g=split_graphs(euclidean=True), cap=st.sampled_from([None, 0.5, 2.0, math.inf]),
           data=st.data())
    def test_reads_the_unbounded_rows(self, g, cap, data):
        if cap is None:
            def search(sources, targets=None):
                return shortest_distances(g, sources, targets)
        else:
            engine = EdgeStateEngine(g)

            def search(sources, targets=None):
                return engine.distances(cap, sources)
        whole = search(list(range(g.n)))
        pair_list = []
        for _ in range(data.draw(st.integers(1, 8))):
            i = data.draw(st.integers(0, g.n - 1))
            near = [j for j in np.flatnonzero(np.isfinite(whole[i])).tolist() if j != i]
            if near and data.draw(st.booleans()):
                j = data.draw(st.sampled_from(near))
            else:  # often a disconnected pair
                j = data.draw(st.integers(0, g.n - 1).filter(lambda j: j != i))
            d = whole[i, j]
            if math.isinf(d):
                oracle = data.draw(st.floats(0.01, 10.0))
            else:  # exact, on the reach's boundary, far inside it, beyond it
                oracle = data.draw(st.sampled_from([d, d / SEARCH_REACH, 2.0 * d, d / 3.0]))
            pair_list.append((i, j, oracle))
        counts = Counter()
        got = validation._graph_rows(search, pair_list, counts)
        assert got == [float(whole[i, j]) for i, j, _ in pair_list]
        reach = {}
        for i, _, oracle in pair_list:
            reach[i] = max(reach.get(i, 0.0), oracle)
        missed = {i for i, j, _ in pair_list if whole[i, j] > SEARCH_REACH * reach[i]}
        assert counts == {"searched_sources": len(reach), "re_searched_sources": len(missed)}


class TestChordBound:
    def test_circle_rows_are_equalities(self):
        rep = verify_chord_bound(kappa=2.0)
        circle_rows = [row for row in rep.rows if row.pair_j == 0]
        sphere_rows = [row for row in rep.rows if row.pair_j == 1]
        assert len(circle_rows) == len(sphere_rows) == validation.ARC_COUNT
        assert rep.violations == 0
        for row in circle_rows:
            assert abs(row.oracle_delta - row.graph_delta) <= 1e-12
        for row in sphere_rows:
            assert row.oracle_delta >= row.graph_delta - 1e-12
        assert set(rep.summary["row_groups"]) == {"0", "1"}

    @pytest.mark.parametrize("kappa", [1e-4, 1e-9, 1e-200, 1e-306, 1e300, 1.7e308])
    def test_circle_rows_hold_at_any_radius(self, kappa):
        # The rows are measured on the unit circle and scaled by R, with
        # no overflow on the way, and checked to 1e-12 R.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_chord_bound(kappa=kappa)
        assert rep.violations == 0
        R = 1.0 / kappa
        for row in rep.rows[:validation.ARC_COUNT]:
            assert row.pair_j == 0
            assert abs(row.oracle_delta - row.graph_delta) <= 1e-12 * R

    def test_kappa_gate(self):
        for kappa in (math.inf, 0.0, -1.0, 1e-320, 1e-307):
            with pytest.raises(GateError, match="kappa"):
                verify_chord_bound(kappa=kappa)


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

    @pytest.mark.parametrize("p", [0.5, -0.5])
    def test_perturbed_graph_keeps_layout(self, p):
        # The perturbed graph must equal a plain division of the stored
        # weights, bit for bit.
        g = build_graph(sample_surface(sphere(1.0), "grid", 200), kind="annulus", r=0.4, alpha=0.25)
        g2 = perturb_graph_weights(g, p)
        assert g2.points is g.points
        assert (g2.kind, g2.r, g2.alpha) == (g.kind, g.r, g.alpha)
        assert g2.indptr.tobytes() == g.indptr.tobytes()
        assert g2.indices.tobytes() == g.indices.tobytes()
        assert g2.weights.tobytes() == (g.weights / (1.0 + p)).tobytes()

    @settings(derandomize=True, max_examples=30)
    @given(split_graphs(), st.sampled_from([(1e300, math.nextafter(-1.0, 0.0)), (1e-300, 1e300)])
           | st.tuples(st.sampled_from([1.0, 1e-300, 1e300]),
                       st.sampled_from([-0.75, 0.5, 1.7e308]) | st.floats(-0.999, 1e6)))
    def test_matches_the_relaid_twin(self, g, scaled):
        # Scaling the heavier half of the weights up (or the lighter half
        # down) lets p near -1 overflow some (or a huge p round some to
        # 0); both must fail with the message of the relaid graph, which
        # names the first such edge.
        scale, p = scaled
        ii, jj, ww = g.edge_list()
        if len(ww):
            ww = ww * np.where((ww > np.median(ww)) == (scale > 1.0), scale, 1.0)
        g = graph_from_edges(g.points, g.kind, g.r, g.alpha, lambda *_: (ii, jj, ww))
        try:
            want = relaid_perturbation(g, p)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                perturb_graph_weights(g, p)
            assert str(got.value) == str(exc)
            return
        got = perturb_graph_weights(g, p)
        assert got.points is want.points
        assert (got.kind, got.r, got.alpha) == (want.kind, want.r, want.alpha)
        for name in ("indptr", "indices", "weights"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_select_pairs_window_and_determinism(self):
        spec = sphere(1.0)
        samp = sample_surface(spec, "grid", 200)
        r = 0.3
        a = select_pairs(samp, r, 20, np.random.default_rng(7))
        b = select_pairs(samp, r, 20, np.random.default_rng(7))
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
        for i, j, _ in select_pairs(samp, r, 20, np.random.default_rng(3)):
            assert np.linalg.norm(samp.points[i]) <= 1.0 - r + 1e-12
            assert np.linalg.norm(samp.points[j]) <= 1.0 - r + 1e-12

    def test_select_pairs_more_than_distinct_pairs(self):
        spec = sphere(1.0)
        samp = sample_surface(spec, "uniform-random", 6, seed=0)
        with pytest.raises(GateError, match="pairs must be at most 15, the "
                           "distinct pairs of 6 eligible points, got 16"):
            select_pairs(samp, 0.1, 16, np.random.default_rng(0))

    def test_select_pairs_stops_once_every_pair_is_drawn(self):
        # 6 points have 15 distinct pairs, some outside the window; once
        # all are drawn, no further draw can admit one.
        spec = sphere(1.0)
        samp = sample_surface(spec, "uniform-random", 6, seed=0)
        rng = mock.Mock(wraps=np.random.default_rng(0))
        with pytest.raises(GateError, match="found only"):
            select_pairs(samp, 0.1, 15, rng)
        assert rng.integers.call_count < 500

    def test_select_pairs_empty_window(self):
        spec = sphere(1.0)
        samp = sample_surface(spec, "grid", 200)
        with pytest.raises(GateError, match="window"):
            select_pairs(samp, 0.6, 5, np.random.default_rng(0))

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
        rep = verify_chord_bound(kappa=1.0)
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
