"""Empirical checks of the distance approximation bounds.

Each verify_* runner samples a surface with a known analytic geodesic
distance, builds the neighborhood graph, and asserts the proven
inequality pair by pair.  The inequalities are theorems on the
continuum, so with their preconditions satisfied any violation points
at an implementation bug; the runners exist to catch exactly that.
Empirical constants that the theory leaves unspecified are fitted and
reported, never asserted.

Comparisons carry a 1e-12 relative slack so that float roundoff on
paths that achieve an inequality exactly (collinear chains, direct
grid lines) cannot produce spurious violations.
"""

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import chord_lower_bound, discrete_curvature
from .graph import NeighborhoodGraph, build_graph
from .paths import (
    EdgeStateEngine,
    path_from_predecessors,
    path_max_curvature,
    shortest_distances,
)
from .surfaces import (
    SampleSet,
    SurfaceSpec,
    covering_radius,
    curvature_bound,
    geodesic_oracle,
    intrinsic_diameter,
    sample_surface,
    sphere,
)

# Constant in the local chord-vs-intrinsic comparison factor.
COMPARISON_CONSTANT = math.pi**2 / 50

FLOAT_SLACK = 1e-12

# The graph searches of a runner stop at SEARCH_REACH times the largest
# oracle distance among a source's pairs.  The certificates keep graph
# distance within a few percent of the geodesic (measured ratios lie in
# [0.998, 1.048] on the benchmark inputs), so the limit almost never
# cuts a pair off, while it spares the search most of the surface.  A
# pair it does cut off comes back inf and its source is searched again
# without a limit: the constant trades speed only, never the answer.
SEARCH_REACH = 1.25


class GateError(ValueError):
    """A precondition gate failed; the experiment never ran."""


class HardFailure(RuntimeError):
    """A certified-regime assertion failed during an experiment."""


@dataclass
class PairCheck:
    """One row of a report.  ``passed`` is None when the row is
    excluded from pass/fail counting (e.g. a disconnected pair)."""

    pair_i: int
    pair_j: int
    oracle_delta: float
    graph_delta: float
    ratio: float
    bound_factor: float
    passed: bool | None


@dataclass
class BoundReport:
    experiment: str
    surface: str
    n: int
    r: float | None
    alpha: float | None
    kappa: float | None
    kappa_prime: float | None
    epsilon: float | None
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return sum(1 for row in self.rows if row.passed is False)


def surface_label(spec: SurfaceSpec) -> str:
    """Short surface name; comma-free so it can sit in a CSV field."""
    R = f"{spec.radius:g}"
    if spec.kind == "sphere":
        return f"sphere(R={R})"
    if spec.kind == "disk":
        return f"disk(rho={R};d={spec.ambient_dim})"
    if spec.kind == "cylinder":
        return f"cylinder(R={R};h={spec.height:g})"
    return f"circle(R={R})"


def _ratio(graph_delta: float, oracle_delta: float) -> float:
    if math.isfinite(graph_delta) and math.isfinite(oracle_delta):
        return graph_delta / oracle_delta if oracle_delta > 0.0 else math.inf
    return math.inf


def _holds(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to the float slack."""
    if math.isinf(rhs):
        return True
    return lhs <= rhs * (1.0 + FLOAT_SLACK)


def _finish(report: BoundReport, t0: float, **extra):
    ratios = [
        row.ratio
        for row in report.rows
        if row.passed is not None and math.isfinite(row.ratio)
    ]
    report.summary.update(
        pairs=len(report.rows),
        violations=report.violations,
        skipped=sum(1 for row in report.rows if row.passed is None),
        max_ratio=max(ratios) if ratios else None,
        min_ratio=min(ratios) if ratios else None,
        runtime_s=time.perf_counter() - t0,
    )
    report.summary.update(extra)
    return report


def perturb_graph_weights(g: NeighborhoodGraph, p: float) -> NeighborhoodGraph:
    """Self-test fault injection: divide all weights by (1 + p).

    Positive p shrinks weights, which breaks lower-bound checks;
    negative p inflates them and breaks upper-bound checks.  p = 0 is
    the identity.
    """
    if p == 0.0:
        return g
    if p <= -1.0:
        raise ValueError("perturbation must keep weights positive")
    return replace(g, weights=g.weights / (1.0 + p))


def select_pairs(
    spec: SurfaceSpec, sample: SampleSet, r: float, count: int, rng
) -> list:
    """Seeded pairs with oracle distance in [3r, diameter/2].

    The lower cut keeps multi-edge paths (single-edge ratios are
    trivially 1); the upper cut stays away from cut-locus pairs where
    the oracle is attained by several equally long geodesics and ratios
    are ill-conditioned.  On the disk both endpoints keep a margin r
    from the boundary so graph paths are not clipped.
    Returns (i, j, oracle_delta) triples.
    """
    pts = sample.points
    lo, hi = 3.0 * r, intrinsic_diameter(spec) / 2.0
    if lo > hi:
        raise GateError(
            f"pair window empty: 3r = {lo:.6g} exceeds half diameter {hi:.6g}"
        )
    if spec.kind == "disk":
        eligible = np.nonzero(
            np.linalg.norm(pts, axis=1) <= spec.radius - r
        )[0]
    else:
        eligible = np.arange(len(pts))
    if len(eligible) < 2:
        raise GateError("too few interior points for pair selection")
    out = []
    seen = set()
    attempts = 0
    max_attempts = 500 * count + 1000
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        a, b = rng.integers(0, len(eligible), size=2)
        if a == b:
            continue
        i, j = int(eligible[min(a, b)]), int(eligible[max(a, b)])
        if (i, j) in seen:
            continue
        seen.add((i, j))
        delta = geodesic_oracle(spec, pts[i], pts[j])
        if lo <= delta <= hi:
            out.append((i, j, delta))
    if len(out) < count:
        raise GateError(
            f"found only {len(out)}/{count} admissible pairs "
            f"with oracle distance in [{lo:.4g}, {hi:.4g}]"
        )
    return out


def _graph_deltas(search, pair_list: list, counts: Counter) -> dict:
    """Exact graph distance for each (i, j, oracle) pair.

    ``search`` maps sources to distance rows: a list to unbounded
    searches, a mapping {source: limit} to bounded ones.  Every source
    is first searched up to SEARCH_REACH times its farthest pair's
    oracle; a source with a pair beyond that is searched again without
    a limit.  ``counts`` accumulates both search counts.
    """
    reach = {}
    for i, _, oracle in pair_list:
        reach[i] = max(reach.get(i, 0.0), oracle)
    sources = sorted(reach)
    rows = dict(zip(sources, search({s: SEARCH_REACH * reach[s] for s in sources})))
    missed = sorted({i for i, j, _ in pair_list if math.isinf(rows[i][j])})
    if missed:
        rows.update(zip(missed, search(missed)))
    counts["searched_sources"] += len(sources)
    counts["re_searched_sources"] += len(missed)
    return {(i, j): float(rows[i][j]) for i, j, _ in pair_list}


def verify_unconstrained_upper(
    surface: SurfaceSpec,
    n: int,
    r: float | None = None,
    pairs: int = 200,
    seed: int = 0,
    mode: str = "grid",
    perturb_weights: float = 0.0,
) -> BoundReport:
    """Check graph distance <= (1 + 4 eps/r) * intrinsic distance.

    Requires the density gate eps <= r/4.  With r omitted it is set to
    4x the padded density estimate, the smallest radius the gate
    certifies.  eps enters bound and gate in its padded (upper
    estimate) form so the certificate stays one-sided.
    """
    t0 = time.perf_counter()
    sample = sample_surface(surface, mode, n, seed)
    cov = covering_radius(sample, 10 * sample.n)
    eps = cov.padded
    if r is None:
        r = 4.0 * eps
    if eps > r / 4.0:
        raise GateError(
            f"gate eps <= r/4 failed: eps = {eps:.6g}, r/4 = {r / 4.0:.6g}"
        )
    g = perturb_graph_weights(
        build_graph(sample, kind="ball", r=r), perturb_weights
    )
    rng = np.random.default_rng(seed)
    pair_list = select_pairs(surface, sample, r, pairs, rng)
    searches = Counter()
    deltas = _graph_deltas(lambda s: shortest_distances(g, s), pair_list, searches)
    factor = 1.0 + 4.0 * eps / r
    report = BoundReport(
        experiment="unconstrained-upper",
        surface=surface_label(surface),
        n=sample.n,
        r=r,
        alpha=None,
        kappa=None,
        kappa_prime=None,
        epsilon=eps,
    )
    for i, j, oracle in pair_list:
        graph = deltas[(i, j)]
        report.rows.append(
            PairCheck(i, j, oracle, graph, _ratio(graph, oracle), factor,
                      _holds(graph, factor * oracle))
        )
    return _finish(
        report,
        t0,
        epsilon_raw=cov.radius,
        epsilon_padded=cov.padded,
        reference_size=cov.reference_size,
        reference_spacing=cov.reference_spacing,
        sizes=dict(searches),
        fitted_constants={"bound_factor": factor},
    )


def verify_unconstrained_lower(
    surface: SurfaceSpec,
    n: int,
    r: float,
    pairs: int = 200,
    seed: int = 0,
    mode: str = "grid",
    perturb_weights: float = 0.0,
) -> BoundReport:
    """Check intrinsic distance <= (1 + C*(kappa_S*r)^2) * graph distance.

    C is pi^2/50.  Gated on kappa_S * r <= 1/3.  Disconnected pairs
    are recorded with an infinite graph distance and excluded from
    pass/fail.  The factor is implemented in the curvature-scaled form
    1 + C*(kappa_S*r)^2, dimensionless in the product kappa_S*r; for a
    unit-curvature surface this coincides with 1 + C*r^2.
    """
    t0 = time.perf_counter()
    kappa_s = curvature_bound(surface)
    if kappa_s * r > 1.0 / 3.0:
        raise GateError(
            f"gate kappa_S*r <= 1/3 failed: {kappa_s * r:.6g}"
        )
    sample = sample_surface(surface, mode, n, seed)
    cov = covering_radius(sample, 10 * sample.n)
    g = perturb_graph_weights(
        build_graph(sample, kind="ball", r=r), perturb_weights
    )
    rng = np.random.default_rng(seed)
    pair_list = select_pairs(surface, sample, r, pairs, rng)
    searches = Counter()
    deltas = _graph_deltas(lambda s: shortest_distances(g, s), pair_list, searches)
    factor = 1.0 + COMPARISON_CONSTANT * (kappa_s * r) ** 2
    report = BoundReport(
        experiment="unconstrained-lower",
        surface=surface_label(surface),
        n=sample.n,
        r=r,
        alpha=None,
        kappa=None,
        kappa_prime=None,
        epsilon=cov.radius,
    )
    for i, j, oracle in pair_list:
        graph = deltas[(i, j)]
        if math.isinf(graph):
            report.rows.append(
                PairCheck(i, j, oracle, graph, math.inf, factor, None)
            )
            continue
        report.rows.append(
            PairCheck(i, j, oracle, graph, _ratio(graph, oracle), factor,
                      _holds(oracle, factor * graph))
        )
    return _finish(
        report,
        t0,
        factor_form="1 + C*(kappa_S*r)^2 with C = pi^2/50",
        comparison_constant=COMPARISON_CONSTANT,
        sizes=dict(searches),
        fitted_constants={"bound_factor": factor},
    )


def verify_constrained_upper(
    surface: SurfaceSpec,
    n: int,
    r: float,
    alpha: float = 0.25,
    kappa: float = 1.0,
    kappa_prime: float | None = None,
    pairs: int = 40,
    seed: int = 0,
    mode: str = "grid",
    c_emp: float = 8.0,
    bisect_tol: float = 0.005,
    perturb_weights: float = 0.0,
) -> BoundReport:
    """Check constrained graph distance <= (1 + 6 eps/r) * oracle.

    Runs on the annulus graph.  With kappa_prime given, checks at that
    cap.  Otherwise searches: starting from the slack
    c_emp * (kappa^2 r + eps/r^2) above kappa (doubling it while any
    pair fails), then bisects down to the smallest cap at which every
    pair passes, reported together with the fitted slack multiple.
    """
    t0 = time.perf_counter()
    if not 0.0 <= alpha <= 0.25:
        raise GateError(f"gate alpha <= 1/4 failed: alpha = {alpha:.6g}")
    kappa_s = curvature_bound(surface)
    if kappa < kappa_s:
        raise GateError(
            "constrained oracle unavailable: kappa "
            f"{kappa:.6g} below the surface curvature bound {kappa_s:.6g}"
        )
    sample = sample_surface(surface, mode, n, seed)
    cov = covering_radius(sample, 10 * sample.n)
    eps = cov.padded
    g = perturb_graph_weights(
        build_graph(sample, kind="annulus", r=r, alpha=alpha),
        perturb_weights,
    )
    rng = np.random.default_rng(seed)
    pair_list = select_pairs(surface, sample, r, pairs, rng)
    engine = EdgeStateEngine(g)
    factor = 1.0 + 6.0 * eps / r
    evaluations = 0
    searches = Counter()

    def deltas_at(cap: float) -> dict:
        nonlocal evaluations
        evaluations += 1
        return _graph_deltas(
            lambda s: engine.distances(cap, s), pair_list, searches
        )

    def all_pass(deltas: dict) -> bool:
        return all(
            _holds(deltas[(i, j)], factor * oracle)
            for i, j, oracle in pair_list
        )

    base_slack = kappa**2 * r + eps / r**2
    if kappa_prime is not None:
        final_cap = kappa_prime
        final = deltas_at(final_cap)
    else:
        slack = c_emp * base_slack
        hi = kappa + slack
        final = deltas_at(hi)
        doublings = 0
        while not all_pass(final) and doublings < 6:
            slack *= 2.0
            hi = kappa + slack
            final = deltas_at(hi)
            doublings += 1
        if all_pass(final):
            lo = kappa
            while hi - lo > bisect_tol * kappa:
                mid = 0.5 * (lo + hi)
                trial = deltas_at(mid)
                if all_pass(trial):
                    hi, final = mid, trial
                else:
                    lo = mid
            final_cap = hi
        else:
            final_cap = hi  # never passed; report the failure honestly
    report = BoundReport(
        experiment="constrained-upper",
        surface=surface_label(surface),
        n=sample.n,
        r=r,
        alpha=alpha,
        kappa=kappa,
        kappa_prime=final_cap,
        epsilon=eps,
    )
    for i, j, oracle in pair_list:
        graph = final[(i, j)]
        report.rows.append(
            PairCheck(i, j, oracle, graph, _ratio(graph, oracle), factor,
                      _holds(graph, factor * oracle))
        )
    fitted = None
    if math.isfinite(final_cap) and base_slack > 0.0:
        fitted = (final_cap - kappa) / base_slack
    return _finish(
        report,
        t0,
        epsilon_raw=cov.radius,
        epsilon_padded=cov.padded,
        evaluations=evaluations,
        bisect_tol=bisect_tol,
        sizes={
            "states": engine.states,
            "transitions": engine.transitions,
            **searches,
        },
        fitted_constants={
            "bound_factor": factor,
            "kappa_prime_min": final_cap if kappa_prime is None else None,
            "C_emp": fitted,
        },
    )


def verify_constrained_lower(
    surface: SurfaceSpec,
    n_sequence,
    r: float,
    alpha: float = 0.25,
    kappa: float = 1.0,
    pairs: int = 50,
    seed: int = 0,
    mode: str = "grid",
    c_gate: float = 20.0,
    perturb_weights: float = 0.0,
) -> list:
    """Check that unconstrained annulus shortest paths bend gently.

    For each density N the runner records, per pair, the shortest
    annulus-graph path and its largest interior triple curvature; the
    per-N excess q_hat = max(path curvature)/kappa - 1 should fall as
    the sample densifies, with q_hat * alpha*kappa^2*r^3 / eps
    reported as the fitted constant.  An infinite triple curvature
    (an acute interior angle) inside the certified density regime
    eps <= alpha*kappa*r^2/c_gate is a hard failure.  The regime is
    decided on the padded density estimate, the reported eps and
    fitted constant on the raw one.  Returns one report per N.
    """
    if not 0.0 <= alpha <= 0.25:
        raise GateError(f"gate alpha <= 1/4 failed: alpha = {alpha:.6g}")
    kappa_s = curvature_bound(surface)
    if kappa_s * r > 1.0 / 3.0:
        raise GateError(f"gate kappa_S*r <= 1/3 failed: {kappa_s * r:.6g}")
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise GateError("kappa must be finite and positive")
    reports = []
    for n in n_sequence:
        t0 = time.perf_counter()
        sample = sample_surface(surface, mode, n, seed)
        cov = covering_radius(sample, 10 * sample.n)
        eps = cov.radius
        g = perturb_graph_weights(
            build_graph(sample, kind="annulus", r=r, alpha=alpha),
            perturb_weights,
        )
        rng = np.random.default_rng(seed)
        pair_list = select_pairs(surface, sample, r, pairs, rng)
        sources = sorted({i for i, _, _ in pair_list})
        dist, pred = shortest_distances(g, sources, return_predecessors=True)
        row = {s: k for k, s in enumerate(sources)}
        # The padded estimate bounds eps from above, so the gate is
        # one-sided: an underestimate never claims the regime.
        certified = cov.padded <= alpha * kappa * r**2 / c_gate
        report = BoundReport(
            experiment="constrained-lower",
            surface=surface_label(surface),
            n=sample.n,
            r=r,
            alpha=alpha,
            kappa=kappa,
            kappa_prime=None,
            epsilon=eps,
        )
        worst = 0.0
        for i, j, oracle in pair_list:
            graph = float(dist[row[i], j])
            nodes = path_from_predecessors(pred[row[i]], i, j)
            if nodes is None:
                report.rows.append(
                    PairCheck(i, j, oracle, graph, math.inf, math.inf, None)
                )
                continue
            curv = path_max_curvature(sample.points[nodes])
            if math.isinf(curv) and certified:
                raise HardFailure(
                    f"acute interior angle on a shortest path at N={sample.n} "
                    f"inside the certified regime (padded eps = {cov.padded:.6g})"
                )
            worst = max(worst, curv)
            report.rows.append(
                PairCheck(i, j, oracle, graph, _ratio(graph, oracle),
                          math.inf, math.isfinite(curv))
            )
        q_hat = worst / kappa - 1.0
        fitted = q_hat * alpha * kappa**2 * r**3 / eps if eps > 0.0 else None
        reports.append(
            _finish(
                report,
                t0,
                certified_regime=certified,
                max_path_curvature=worst,
                fitted_constants={"q_hat": q_hat, "C_emp": fitted},
            )
        )
    return reports


def verify_chord_bound(
    kappa: float = 1.0,
    arclengths=None,
    arc_count: int = 50,
    seed: int = 0,
) -> BoundReport:
    """Chord of a bounded-curvature curve vs the (2/k) sin(ks/2) bound.

    On the circle of radius 1/kappa the bound is an equality; checked
    to 1e-12 absolute.  On sphere geodesic arcs the chord must sit at
    or above the bound (they are unit-circle arcs, so equality again).
    Row group 0 holds the circle equalities, group 1 the sphere arcs;
    oracle = measured chord, graph = bound value.
    """
    t0 = time.perf_counter()
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise GateError("kappa must be finite and positive")
    R = 1.0 / kappa
    if arclengths is None:
        arclengths = [
            math.pi / kappa * k / arc_count for k in range(1, arc_count + 1)
        ]
    for s in arclengths:
        if not 0.0 < s <= math.pi / kappa + 1e-15:
            raise GateError(f"arclength {s:.6g} outside (0, pi/kappa]")
    report = BoundReport(
        experiment="chord-bound",
        surface=f"circle(R={R:g})",
        n=len(arclengths),
        r=None,
        alpha=None,
        kappa=kappa,
        kappa_prime=None,
        epsilon=None,
    )
    for k, s in enumerate(arclengths):
        p = np.array([R, 0.0])
        q = np.array([R * math.cos(s / R), R * math.sin(s / R)])
        chord = float(np.linalg.norm(q - p))
        bound = chord_lower_bound(kappa, min(s, math.pi / kappa))
        report.rows.append(
            PairCheck(k, 0, chord, bound, _ratio(bound, chord), 1.0,
                      abs(chord - bound) <= 1e-12)
        )
    rng = np.random.default_rng(seed)
    unit = sphere(1.0)
    for k in range(arc_count):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        u = rng.normal(size=3)
        u -= np.dot(u, x) * x
        u /= np.linalg.norm(u)
        s = float(rng.uniform(0.05, math.pi))
        y = math.cos(s) * x + math.sin(s) * u
        chord = float(np.linalg.norm(y - x))
        bound = chord_lower_bound(curvature_bound(unit), s)
        report.rows.append(
            PairCheck(k, 1, chord, bound, _ratio(bound, chord), 1.0,
                      chord >= bound - 1e-12)
        )
    return _finish(
        report,
        t0,
        row_groups={"0": "circle equality", "1": "sphere arc lower bound"},
        fitted_constants={},
    )


# Parametric test curves for the curvature-consistency check, with
# their analytic curvature.

def _curve(curve_spec: str):
    if curve_spec == "circle":
        return (lambda t: np.array([math.cos(t), math.sin(t)])), 1.0
    if curve_spec == "line":
        d = np.array([1.0, 2.0, 2.0]) / 3.0
        return (lambda t: t * d), 0.0
    if curve_spec == "helix":
        R, pitch = 1.0, 0.5
        return (
            lambda t: np.array([R * math.cos(t), R * math.sin(t), pitch * t]),
            R / (R**2 + pitch**2),
        )
    raise GateError(f"unknown curve {curve_spec!r}")


def verify_curvature_consistency(
    curve_spec: str = "circle",
    s: float = 0.7,
    h_sequence=(1e-1, 1e-2, 1e-3),
) -> BoundReport:
    """Triple curvature of gamma(s-h), gamma(s), gamma(s+h) vs analytic.

    Reports the error per h and the empirical convergence order between
    the last two steps.  The smallest h must land within 1e-3 for the
    unit circle (it lands at float noise: three circle points always
    lie on the circle itself).  Row k corresponds to h_sequence[k];
    oracle = analytic curvature, graph = discrete value.
    """
    t0 = time.perf_counter()
    hs = list(h_sequence)
    if any(hs[k] <= hs[k + 1] for k in range(len(hs) - 1)):
        raise GateError("h_sequence must be strictly decreasing")
    gamma, true_curv = _curve(curve_spec)
    report = BoundReport(
        experiment="curvature-consistency",
        surface=curve_spec,
        n=len(hs),
        r=None,
        alpha=None,
        kappa=true_curv,
        kappa_prime=None,
        epsilon=None,
    )
    errors = []
    for k, h in enumerate(hs):
        est = discrete_curvature(gamma(s - h), gamma(s), gamma(s + h))
        err = abs(est - true_curv)
        errors.append(err)
        tol = 1e-3 if k == len(hs) - 1 else math.inf
        if est == true_curv:
            ratio = 1.0
        else:
            ratio = _ratio(est, true_curv)
        report.rows.append(
            PairCheck(k, -1, true_curv, est, ratio, 1.0, err <= tol)
        )
    order = None
    if len(errors) >= 2 and errors[-1] > 0.0 and errors[-2] > 0.0:
        order = math.log(errors[-2] / errors[-1]) / math.log(hs[-2] / hs[-1])
    return _finish(
        report,
        t0,
        errors=errors,
        h_sequence=hs,
        convergence_order=order,
        fitted_constants={},
    )


# ---------------------------------------------------------------------------
# Report serialization.  One CSV row per pair check, report-level fields
# repeated; infinities spell "inf"; absent fields stay empty.

REPORT_HEADER = (
    "experiment,surface,N,r,alpha,kappa,kappa_prime,epsilon,"
    "pair_i,pair_j,oracle,graph,ratio,bound,pass"
)


def _csv_num(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return f"{x:.17g}"


def _csv_pass(passed) -> str:
    if passed is None:
        return "skip"
    return "true" if passed else "false"


def write_report_csv(path: str, reports) -> None:
    if isinstance(reports, BoundReport):
        reports = [reports]
    lines = [REPORT_HEADER]
    for rep in reports:
        head = ",".join(
            [
                rep.experiment,
                rep.surface,
                str(rep.n),
                _csv_num(rep.r),
                _csv_num(rep.alpha),
                _csv_num(rep.kappa),
                _csv_num(rep.kappa_prime),
                _csv_num(rep.epsilon),
            ]
        )
        for row in rep.rows:
            lines.append(
                ",".join(
                    [
                        head,
                        str(row.pair_i),
                        str(row.pair_j),
                        _csv_num(row.oracle_delta),
                        _csv_num(row.graph_delta),
                        _csv_num(row.ratio),
                        _csv_num(row.bound_factor),
                        _csv_pass(row.passed),
                    ]
                )
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return value


def summary_payload(reports) -> dict:
    if isinstance(reports, BoundReport):
        reports = [reports]
    return {
        "reports": [
            _jsonable(
                {
                    "experiment": rep.experiment,
                    "surface": rep.surface,
                    "N": rep.n,
                    "r": rep.r,
                    "alpha": rep.alpha,
                    "kappa": rep.kappa,
                    "kappa_prime": rep.kappa_prime,
                    "epsilon": rep.epsilon,
                    "summary": rep.summary,
                }
            )
            for rep in reports
        ]
    }


def write_summary_json(path: str, reports) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_payload(reports), fh, indent=2)
        fh.write("\n")
