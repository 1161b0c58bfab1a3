"""Acceptance gate: the ten claims this package exists to certify.

Each test prints one PASS line after its assertions so a verbose run
doubles as the acceptance report.  Thresholds are the contract values,
not tuned numbers; nothing here may be loosened to make a run green.
Criteria 1, 2, 7 and 8 also check their reports, bit for bit, against
the digests pinned in ``report_digests.json`` (``pin``).
"""

import math
import time

import numpy as np
import pytest

from geoknot import (
    COMPARISON_CONSTANT,
    brute_force_constrained,
    build_graph,
    constrained_shortest,
    dijkstra,
    discrete_curvature,
    sphere,
    verify_chord_bound,
    verify_constrained_lower,
    verify_constrained_upper,
    verify_curvature_consistency,
    verify_unconstrained_lower,
    verify_unconstrained_upper,
)
from geoknot.surfaces import sample_surface
from conftest import graph_edge_set
from test_report_digests import assert_pinned


def report(num, text):
    print(f"PASS criterion {num:2d}: {text}")


@pytest.fixture
def pin(tmp_path):
    """pin(criterion, reports): the criterion's reports match the digests
    pinned for it.  ``test_report_digests.py``, run as a script, calls
    these tests with a ``pin`` that writes the digests instead."""
    return lambda criterion, reports: assert_pinned(criterion, reports, tmp_path)


def test_criterion_01_unconstrained_upper(pin):
    t0 = time.perf_counter()
    rep = verify_unconstrained_upper(sphere(1.0), 2000, pairs=200, seed=0)
    elapsed = time.perf_counter() - t0
    pin("criterion 1", [rep])
    assert rep.violations == 0
    assert rep.summary["fitted_constants"]["bound_factor"] == 2.0
    assert elapsed < 30.0
    report(
        1,
        f"unconstrained upper: N={rep.n} r={rep.r:.4f} "
        f"max ratio {rep.summary['max_ratio']:.4f} <= 2, "
        f"violations=0, {elapsed:.2f}s",
    )


def test_criterion_02_unconstrained_lower(pin):
    rep = verify_unconstrained_lower(sphere(1.0), 2000, r=0.3, pairs=200,
                                     seed=0)
    pin("criterion 2", [rep])
    factor = rep.summary["fitted_constants"]["bound_factor"]
    assert factor == 1.0 + COMPARISON_CONSTANT * 0.09
    assert rep.violations == 0
    report(
        2,
        f"unconstrained lower: N={rep.n} r=0.3 factor {factor:.10f}, "
        f"min ratio {rep.summary['min_ratio']:.6f}, violations=0",
    )


def test_criterion_03_chord_equality():
    t0 = time.perf_counter()
    rep = verify_chord_bound(kappa=1.0)
    elapsed = time.perf_counter() - t0
    circle_rows = [row for row in rep.rows if row.pair_j == 0]
    assert len(circle_rows) == 50
    worst = max(abs(r.oracle_delta - r.graph_delta) for r in circle_rows)
    assert worst <= 1e-12
    assert rep.violations == 0
    assert elapsed < 1.0
    report(
        3,
        f"chord equality on the circle: 50 arclengths, "
        f"max |chord - bound| = {worst:.2e} <= 1e-12, {elapsed:.3f}s",
    )


def test_criterion_04_curvature_consistency():
    circ = verify_curvature_consistency("circle")
    errs = circ.summary["errors"]
    # Three circle samples always reproduce the circle itself, so the
    # true error is exactly 0 at every h and the error sequence is
    # (non-strictly) decreasing from zero.  What a float run measures
    # is cancellation noise, which grows like eps/h^2; each value must
    # sit inside that envelope of an exact zero, and a genuine O(h^2)
    # error term would blow through it at h = 1e-1.
    eps = np.finfo(float).eps
    for h, err in zip(circ.summary["h_sequence"], errs):
        assert err <= 64.0 * eps / h**2
    assert errs[-1] < 1e-3
    assert circ.violations == 0
    # The helix estimator has a real O(h^2) error, so there the
    # decrease is strict and observable.
    helix = verify_curvature_consistency("helix")
    herrs = helix.summary["errors"]
    assert herrs[0] > herrs[1] > herrs[2] > 0.0
    assert herrs[-1] <= 1e-3
    assert helix.violations == 0
    report(
        4,
        f"curvature consistency: circle exact (noise {errs[-1]:.1e} "
        f"inside the eps/h^2 envelope), helix errors strictly decreasing "
        f"to {herrs[-1]:.1e} <= 1e-3",
    )


def test_criterion_05_constrained_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        pts = rng.uniform(-1.5, 1.5, (n, 2))
        g = build_graph(pts, kind="ball", r=float(rng.uniform(0.8, 1.6)))
        kappa = float(rng.uniform(0.3, 10.0))
        for t in range(1, n):
            fast = constrained_shortest(g, kappa, 0, t)
            slow = brute_force_constrained(g, kappa, 0, t)
            assert fast.feasible == math.isfinite(slow)
            if fast.feasible:
                assert fast.length == slow
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        5,
        f"edge-state search == exhaustive enumeration on 200 graphs "
        f"({checked} pairs, exact equality), {elapsed:.2f}s",
    )


def test_criterion_06_distance_ordering():
    rng = np.random.default_rng(606)
    triples = 0
    for _ in range(50):
        n = int(rng.integers(8, 26))
        dim = int(rng.integers(2, 4))
        pts = rng.uniform(-1.5, 1.5, (n, dim))
        r = float(rng.uniform(0.8, 1.5))
        alpha = float(rng.uniform(0.1, 0.6))
        kappa = float(rng.uniform(0.5, 6.0))
        ball = build_graph(pts, kind="ball", r=r)
        ann = build_graph(pts, kind="annulus", r=r, alpha=alpha)
        field = dijkstra(ball, 0)
        for t in range(1, n):
            d_plain = float(field.dist[t])
            d_kappa = constrained_shortest(ball, kappa, 0, t).length
            d_ann = constrained_shortest(ann, kappa, 0, t).length
            assert d_plain <= d_kappa <= d_ann
            triples += 1
    report(
        6,
        f"ordering unconstrained <= constrained <= annulus-constrained "
        f"holds exactly on 50 instances ({triples} triples)",
    )


def test_criterion_07_constrained_upper(pin):
    caps = []
    lines = []
    reports = []
    for n in (1000, 4000):
        rep = verify_constrained_upper(
            sphere(1.0), n, r=0.2, alpha=0.25, kappa=1.0, pairs=30, seed=0
        )
        reports.append(rep)
        assert math.isfinite(rep.kappa_prime)
        assert rep.violations == 0
        assert rep.summary["fitted_constants"]["C_emp"] is not None
        caps.append(rep.kappa_prime)
        lines.append(f"N={rep.n} kappa'={rep.kappa_prime:.3f} "
                     f"C_emp={rep.summary['fitted_constants']['C_emp']:.3f}")
    # Nonincreasing within 0.01 kappa; each cap is an exact minimum over
    # the engine's stored curvatures.
    assert caps[1] <= caps[0] + 2 * 0.005 * 1.0
    pin("criterion 7", reports)
    report(7, "constrained upper: " + "; ".join(lines) + "; violations=0")


def test_criterion_08_constrained_lower(pin):
    reports = verify_constrained_lower(
        sphere(1.0), [1000, 4000, 16000], r=0.25, alpha=0.25, kappa=1.0,
        pairs=50, seed=0,
    )
    pin("criterion 8", reports)
    q_hats = []
    for rep in reports:
        assert rep.violations == 0
        assert math.isfinite(rep.summary["max_path_curvature"])
        assert rep.summary["fitted_constants"]["C_emp"] is not None
        q_hats.append(rep.summary["fitted_constants"]["q_hat"])
    assert q_hats[0] > q_hats[1] > q_hats[2]
    report(
        8,
        "constrained lower: q_hat "
        + " -> ".join(f"{q:.3f}" for q in q_hats)
        + f" decreasing over N={[rep.n for rep in reports]}, all paths bend "
        "gently",
    )


def test_criterion_09_geodesic_arc_curvature():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1000):
        # Random great circle through an orthonormal pair (u, v); the
        # triple sits on a minimizing arc (span <= pi) with interior
        # gaps bounded away from zero.
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = rng.normal(size=3)
        v -= np.dot(v, u) * u
        v /= np.linalg.norm(v)
        t1 = float(rng.uniform(0.0, 2.0 * math.pi))
        span = float(rng.uniform(0.1, math.pi))
        t2 = t1 + span * float(rng.uniform(0.1, 0.9))
        t3 = t1 + span
        x, y, z = (
            math.cos(t) * u + math.sin(t) * v for t in (t1, t2, t3)
        )
        worst = max(worst, discrete_curvature(x, y, z))
    assert worst <= 1.0 + 1e-9
    report(
        9,
        f"triple curvature on 1000 minimizing unit-sphere arcs: "
        f"max = {worst:.12f} <= 1 + 1e-9",
    )


def test_criterion_10_spatial_index():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        n = int(rng.integers(10, 501))
        dim = int(rng.integers(2, 4))
        pts = rng.uniform(-2.0, 2.0, (n, dim)) * float(rng.uniform(0.5, 2.0))
        r = float(rng.uniform(0.1, 1.0))
        if rng.random() < 0.5:
            kw = dict(kind="ball", r=r)
        else:
            kw = dict(kind="annulus", r=r, alpha=float(rng.uniform(0.0, 0.8)))
        fast = build_graph(pts, method="index", **kw)
        slow = build_graph(pts, method="brute", **kw)
        assert graph_edge_set(fast) == graph_edge_set(slow)
    big = sample_surface(sphere(1.0), "uniform-random", 100000, seed=1)
    t0 = time.perf_counter()
    g = build_graph(big, kind="ball", r=0.05)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        10,
        f"index == all-pairs on 100 configs; 1e5-point sphere graph "
        f"({g.edge_count} edges) in {elapsed:.2f}s < 5s",
    )
