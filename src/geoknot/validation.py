"""Empirical checks of the distance approximation bounds.

Each verify_* runner samples a surface with a known analytic geodesic
distance, builds the neighborhood graph, and asserts the proven
inequality pair by pair.  The inequalities are theorems on the
continuum, so with their preconditions satisfied any violation points
at an implementation bug; the runners exist to catch exactly that.
Empirical constants that the theory leaves unspecified are fitted and
reported, never asserted.

Every bound but the unconstrained lower one is stated in eps, the
sample's exact covering radius.
Comparisons carry the relative FLOAT_SLACK so that float roundoff on
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
from .graph import EdgeError, NeighborhoodGraph, build_graph, check_graph_params
from .paths import (
    SEARCH_REACH,
    EdgeStateEngine,
    path_max_curvature,
    shortest_distances,
    shortest_path_turns,
)
from .surfaces import (
    FLOAT_SLACK,
    SampleSet,
    SurfaceSpec,
    _fmt,
    _jsonable,
    covering_radius,
    curvature_bound,
    geodesic_oracle,
    intrinsic_diameter,
    sample_surface,
    sphere,
)

# Constant in the local chord-vs-intrinsic comparison factor.
COMPARISON_CONSTANT = math.pi**2 / 50

# verify_constrained_lower's certified regime: eps <= alpha*kappa*r^2/C_GATE.
C_GATE = 20.0

# verify_chord_bound checks this many circle arcs and as many sphere arcs.
ARC_COUNT = 50

# verify_curvature_consistency samples each curve at gamma(S +- h), h in
# the decreasing H_SEQUENCE.
CONSISTENCY_S = 0.7
H_SEQUENCE = (1e-1, 1e-2, 1e-3)


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
    r: float | None = None
    alpha: float | None = None
    kappa: float | None = None
    kappa_prime: float | None = None
    epsilon: float | None = None
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


def _square(x: float) -> float:
    """x**2, or inf where it overflows: a float ``**`` raises there."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _holds(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to the float slack."""
    if math.isinf(rhs):
        return True
    return lhs <= rhs * (1.0 + FLOAT_SLACK)


def _finish(report: BoundReport, t0: float, **extra):
    if report.rows and all(row.passed is None for row in report.rows):
        # A run that checks nothing must not pass.
        raise GateError(
            f"{report.experiment} at N={report.n}: all {len(report.rows)} "
            "pairs are disconnected in the graph, nothing was checked"
        )
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


def _check_perturbation(p: float):
    if not -1.0 < p < math.inf:
        raise ValueError(f"weight perturbation must satisfy -1 < p < inf, got {p}")


def perturb_graph_weights(g: NeighborhoodGraph, p: float) -> NeighborhoodGraph:
    """Self-test fault injection: divide all weights by (1 + p), for
    -1 < p < inf.

    Positive p shrinks weights, which breaks lower-bound checks;
    negative p inflates them and breaks upper-bound checks.  p = 0 is
    the identity.

    The edges stay as they are, so the new graph shares g's points and
    index arrays and only divides its weights; both slots of an edge
    hold one value, so the division keeps them equal.  A weight that the
    division overflows or rounds to 0 raises the :class:`EdgeError` that
    :func:`graph_from_edges` gives the edge list: the row of the first
    such edge i < j in row order.
    """
    _check_perturbation(p)
    if p == 0.0:
        return g
    with np.errstate(over="ignore", under="ignore"):
        weights = g.weights / (1.0 + p)
    bad = ~(np.isfinite(weights) & (weights > 0.0))
    if bad.any():
        rows = np.repeat(np.arange(g.n), g.degrees())
        raise EdgeError("weight must be finite and positive",
                        int(np.argmax(bad[g.indices > rows])))
    return replace(g, weights=weights)


def _check_pair_count(count: int):
    if count < 1:
        raise GateError(f"pairs must be at least 1, got {count}")


def _pair_window(surface: SurfaceSpec, r: float) -> tuple:
    """The oracle distances [3r, diameter/2] that select_pairs admits;
    an empty window is a GateError."""
    lo, hi = 3.0 * r, intrinsic_diameter(surface) / 2.0
    if lo > hi:
        raise GateError(f"pair window empty: 3r = {lo:.6g} exceeds half diameter {hi:.6g}")
    return lo, hi


def select_pairs(sample: SampleSet, r: float, count: int, rng) -> list:
    """Seeded pairs with oracle distance in [3r, diameter/2].

    The lower cut keeps multi-edge paths (single-edge ratios are
    trivially 1); the upper cut stays away from cut-locus pairs where
    the oracle is attained by several equally long geodesics and ratios
    are ill-conditioned.  On the disk both endpoints keep a margin r
    from the boundary so graph paths are not clipped.
    Returns (i, j, oracle_delta) triples.
    """
    _check_pair_count(count)
    spec, pts = sample.surface, sample.points
    lo, hi = _pair_window(spec, r)
    eligible = np.arange(len(pts))
    if spec.kind == "disk":
        eligible = eligible[np.linalg.norm(pts, axis=1) <= spec.radius - r]
    if len(eligible) < 2:
        raise GateError("too few interior points for pair selection")
    most = len(eligible) * (len(eligible) - 1) // 2
    if count > most:
        raise GateError(f"pairs must be at most {most}, the distinct pairs of "
                        f"{len(eligible)} eligible points, got {count}")
    out = []
    seen = set()
    attempts = 0
    max_attempts = 500 * count + 1000
    while len(out) < count and attempts < max_attempts and len(seen) < most:
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


def _gate_alpha(alpha: float):
    if not 0.0 <= alpha <= 0.25:
        raise GateError(f"gate alpha <= 1/4 failed: alpha = {alpha:.6g}")


def _gate_curvature_radius(kappa_s: float, r: float):
    if kappa_s * r > 1.0 / 3.0:
        raise GateError(f"gate kappa_S*r <= 1/3 failed: {kappa_s * r:.6g}")


def _gate_finite_kappa(kappa: float):
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise GateError("kappa must be finite and positive")


def _check_graph_run(surface, r, pairs, perturb_weights, alpha=None):
    """The checks of a runner's graph build and pair window (unless r
    is None, set from the sample), weight perturbation and pair count,
    in that order, made before it samples so that a bad parameter
    costs no work."""
    if r is not None:
        check_graph_params("ball" if alpha is None else "annulus", r, alpha)
        _pair_window(surface, r)
    _check_perturbation(perturb_weights)
    _check_pair_count(pairs)


def _sample(surface: SurfaceSpec, n: int, seed: int, mode: str):
    """The sample of a runner that reads eps, and its covering radius."""
    sample = sample_surface(surface, mode, n, seed)
    return sample, covering_radius(sample).radius


def _graph_and_pairs(sample, r, pairs, seed, perturb_weights, alpha=None) -> tuple:
    """The runner's graph, ball for alpha None and annulus otherwise,
    with its weights perturbed, and its seeded pairs."""
    kind = "ball" if alpha is None else "annulus"
    g = perturb_graph_weights(build_graph(sample, kind=kind, r=r, alpha=alpha), perturb_weights)
    return g, select_pairs(sample, r, pairs, np.random.default_rng(seed))


def _upper_rows(pair_list: list, graph: list, factor: float) -> list:
    """One row per pair checking graph distance <= factor * oracle."""
    return [
        PairCheck(i, j, oracle, d, _ratio(d, oracle), factor, _holds(d, factor * oracle))
        for (i, j, oracle), d in zip(pair_list, graph)
    ]


def _graph_distance(row, j: int) -> float:
    return float(row[j])


def _graph_rows(search, pair_list: list, counts: Counter, read=_graph_distance) -> list:
    """``read(row, j)`` for each (i, j, oracle) pair, in pair order, from
    a distance row of i exact up to j; by default the graph distance.

    ``search(sources, targets)`` takes a one-source mapping {source:
    limit} and that source's own targets {source: [j, ...]}, and returns
    the source's (1, n) distance matrix, with the row contract of
    :func:`shortest_distances`: exact at each target within the limit
    and on every walk to it no longer than the limit, ``inf`` at a
    target beyond it.  A search may ignore the targets.  The sources
    are searched one at a time, in sorted order, up a ladder of limits:
    each rung of SEARCH_REACH times their farthest pair's oracle, then
    no limit.  A source climbs to the next rung while a target reads
    ``inf``, and all its pairs read from the first row that finds every
    target (or from the unbounded one).  Each row is read before the
    next source is searched, so one distance row is alive at a time.
    ``counts`` accumulates the sources (``searched_sources``) and every
    search of a source after its first (``re_searched_sources``).
    """
    reach, targets = {}, {}
    for i, j, oracle in pair_list:
        reach[i] = max(reach.get(i, 0.0), oracle)
        targets.setdefault(i, []).append(j)
    found = {}
    counts.update(searched_sources=len(reach), re_searched_sources=0)
    for s in sorted(reach):
        own = {s: targets[s]}
        for rung, limit in enumerate([f * reach[s] for f in SEARCH_REACH] + [math.inf]):
            row = search({s: limit}, own)[0]
            if not any(math.isinf(row[j]) for j in targets[s]):
                break
        counts["re_searched_sources"] += rung
        found[s] = iter([read(row, j) for j in targets[s]])
    # A source's targets are listed in pair order, so are its reads.
    return [next(found[i]) for i, _, _ in pair_list]


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
    4 eps, the smallest radius the gate certifies, and its pair window
    is checked before the graph is built.
    """
    t0 = time.perf_counter()
    _check_graph_run(surface, r, pairs, perturb_weights)
    sample, eps = _sample(surface, n, seed, mode)
    if r is None:
        r = 4.0 * eps
        _pair_window(surface, r)
    if eps > r / 4.0:
        raise GateError(f"gate eps <= r/4 failed: eps = {eps:.6g}, r/4 = {r / 4.0:.6g}")
    g, pair_list = _graph_and_pairs(sample, r, pairs, seed, perturb_weights)
    searches = Counter()
    graph = _graph_rows(lambda s, t: shortest_distances(g, s, t), pair_list, searches)
    factor = 1.0 + 4.0 * eps / r
    report = BoundReport(
        experiment="unconstrained-upper",
        surface=surface_label(surface),
        n=sample.n,
        r=r,
        epsilon=eps,
        rows=_upper_rows(pair_list, graph, factor),
    )
    return _finish(
        report,
        t0,
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

    No covering radius is computed (epsilon is None): the bound holds
    edge by edge for any sample, as an edge of length <= r has ends at
    most the factor times that length apart on the surface.  This is the
    lower half of Bernstein, de Silva, Langford and Tenenbaum, "Graph
    approximations to geodesics on embedded manifolds" (2000), which the
    paper extends; PAPER.md holds only the abstract, which cites it.
    """
    t0 = time.perf_counter()
    kappa_s = curvature_bound(surface)
    _gate_curvature_radius(kappa_s, r)
    _check_graph_run(surface, r, pairs, perturb_weights)
    sample = sample_surface(surface, mode, n, seed)
    g, pair_list = _graph_and_pairs(sample, r, pairs, seed, perturb_weights)
    searches = Counter()
    graph = _graph_rows(lambda s, t: shortest_distances(g, s, t), pair_list, searches)
    factor = 1.0 + COMPARISON_CONSTANT * (kappa_s * r) ** 2
    report = BoundReport(
        experiment="unconstrained-lower",
        surface=surface_label(surface),
        n=sample.n,
        r=r,
    )
    for (i, j, oracle), d in zip(pair_list, graph):
        passed = None if math.isinf(d) else _holds(oracle, factor * d)
        report.rows.append(PairCheck(i, j, oracle, d, _ratio(d, oracle), factor, passed))
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
    perturb_weights: float = 0.0,
) -> BoundReport:
    """Check constrained graph distance <= (1 + 6 eps/r) * oracle.

    Runs on the annulus graph, at kappa_prime if given.  Otherwise finds
    the smallest passing cap exactly.  A search at cap c keeps the turns
    of curvature <= c, so the candidates are kappa and the engine's
    distinct stored curvatures above it, and passing is monotone in c.
    The largest candidate keeps every finite turn: if it fails, every
    cap fails, and the report keeps its rows at that cap with
    kappa_prime_min and C_emp None.  Else a bisection on the candidate
    index ends at a cap that passes while the next lower candidate
    fails, reported with C_emp = (kappa' - kappa)/(kappa^2 r + eps/r^2),
    or None where kappa^2 r overflows or r^2 underflows.
    """
    t0 = time.perf_counter()
    _gate_alpha(alpha)
    kappa_s = curvature_bound(surface)
    if kappa < kappa_s:
        raise GateError(
            "constrained oracle unavailable: kappa "
            f"{kappa:.6g} below the surface curvature bound {kappa_s:.6g}"
        )
    if not kappa > 0.0:  # nan included; inf is no constraint
        raise GateError(f"kappa must be positive, got {kappa:.6g}")
    if kappa_prime is not None and not kappa <= kappa_prime:  # nan included
        raise GateError(f"kappa_prime must be at least kappa = {kappa:.6g}, got {kappa_prime:.6g}")
    _check_graph_run(surface, r, pairs, perturb_weights, alpha)
    sample, eps = _sample(surface, n, seed, mode)
    g, pair_list = _graph_and_pairs(sample, r, pairs, seed, perturb_weights, alpha)
    engine = EdgeStateEngine(g)
    factor = 1.0 + 6.0 * eps / r
    evaluations = 0
    searches = Counter()

    def graph_at(cap: float) -> list:
        nonlocal evaluations
        evaluations += 1
        return _graph_rows(lambda s, _: engine.distances(cap, s), pair_list, searches)

    def all_pass(graph: list) -> bool:
        return all(row.passed for row in _upper_rows(pair_list, graph, factor))

    # eps / r**2 is inf where r**2 underflows to 0 (a float ``/`` raises
    # there), as kappa**2 is where it overflows: C_emp is then None.
    r_square = r**2
    base_slack = _square(kappa) * r + (eps / r_square if r_square > 0.0 else math.inf)
    found = None  # whether a searched cap passed
    if kappa_prime is not None:
        final_cap, final = kappa_prime, graph_at(kappa_prime)
    else:
        curv = engine.distinct_curvatures()
        caps = [kappa, *curv[curv > kappa].tolist()]
        lo, hi = -1, len(caps) - 1
        final = graph_at(caps[hi])
        found = all_pass(final)
        while found and hi - lo > 1:
            mid = (lo + hi) // 2
            trial = graph_at(caps[mid])
            if all_pass(trial):
                hi, final = mid, trial
            else:
                lo = mid
        final_cap = caps[hi]
    report = BoundReport(
        experiment="constrained-upper",
        surface=surface_label(surface),
        n=sample.n,
        r=r,
        alpha=alpha,
        kappa=kappa,
        kappa_prime=final_cap,
        epsilon=eps,
        rows=_upper_rows(pair_list, final, factor),
    )
    fitted = None
    if found is not False and math.isfinite(final_cap) and 0.0 < base_slack < math.inf:
        fitted = (final_cap - kappa) / base_slack
    return _finish(
        report,
        t0,
        evaluations=evaluations,
        sizes={
            "states": engine.states,
            "transitions": engine.transitions,
            **searches,
        },
        fitted_constants={
            "bound_factor": factor,
            "kappa_prime_min": final_cap if found else None,
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
    perturb_weights: float = 0.0,
) -> list:
    """Check that unconstrained annulus shortest paths bend gently.

    For each density N the runner records, per pair, the largest
    curvature of a turn on any shortest annulus-graph path; the per-N
    excess q_hat = max(path curvature)/kappa - 1 should fall as the
    sample densifies, with q_hat * alpha*kappa^2*r^3 / eps reported
    as the fitted constant (None where kappa^2 overflows).  An
    infinite triple curvature (an acute interior angle) inside the
    certified density regime eps <= alpha*kappa*r^2/C_GATE is a hard
    failure.  Returns one report per N.
    """
    _gate_alpha(alpha)
    _gate_curvature_radius(curvature_bound(surface), r)
    _gate_finite_kappa(kappa)
    _check_graph_run(surface, r, pairs, perturb_weights, alpha)
    reports = []
    for n in n_sequence:
        t0 = time.perf_counter()
        sample, eps = _sample(surface, n, seed, mode)
        g, pair_list = _graph_and_pairs(sample, r, pairs, seed, perturb_weights, alpha)
        searches = Counter()

        def read(row, j):
            # The distance and the worst turn over every shortest path to
            # j (None if j is unreachable), read while the row is held.
            turns = shortest_path_turns(g, row, j)
            if turns is None:
                return float(row[j]), None
            curves = [path_max_curvature(sample.points[list(t)]) for t in turns]
            return float(row[j]), max(curves, default=0.0)

        found = _graph_rows(lambda s, t: shortest_distances(g, s, t), pair_list, searches, read)
        certified = eps <= alpha * kappa * r**2 / C_GATE
        report = BoundReport(
            experiment="constrained-lower",
            surface=surface_label(surface),
            n=sample.n,
            r=r,
            alpha=alpha,
            kappa=kappa,
            epsilon=eps,
        )
        worst = 0.0
        for (i, j, oracle), (graph, curv) in zip(pair_list, found):
            if curv is None:
                report.rows.append(
                    PairCheck(i, j, oracle, graph, math.inf, math.inf, None)
                )
                continue
            if math.isinf(curv) and certified:
                raise HardFailure(
                    f"acute interior angle on a shortest path at N={sample.n} "
                    f"inside the certified regime (eps = {eps:.6g})"
                )
            worst = max(worst, curv)
            report.rows.append(
                PairCheck(i, j, oracle, graph, _ratio(graph, oracle),
                          math.inf, math.isfinite(curv))
            )
        q_hat = worst / kappa - 1.0
        square = _square(kappa)
        fitted = q_hat * alpha * square * r**3 / eps if eps > 0.0 and square < math.inf else None
        reports.append(
            _finish(
                report,
                t0,
                certified_regime=certified,
                max_path_curvature=worst,
                sizes=dict(searches),
                fitted_constants={"q_hat": q_hat, "C_emp": fitted},
            )
        )
    return reports


def verify_chord_bound(
    kappa: float = 1.0,
    seed: int = 0,
) -> BoundReport:
    """Chord of a bounded-curvature curve vs the (2/k) sin(ks/2) bound.

    On the circle of radius R = 1/kappa the bound is an equality,
    checked to 1e-12 R: each circle row measures its chord on the unit
    circle, at angle theta = s/R, times R, and the chord and the bound
    2R sin(theta/2) are each a few roundings of numbers in [0, 2], times
    R, so a chord's rounding error is proportional to R (at radius R,
    the norm would square R, which overflows past 1e154).  A kappa whose
    arcs, up to pi/kappa, overflow is a GateError.  On sphere geodesic
    arcs the chord must sit at or above the bound (they are unit-circle
    arcs, so equality again).  Row group 0 holds the circle equalities,
    group 1 the sphere arcs; oracle = measured chord, graph = bound.
    """
    t0 = time.perf_counter()
    _gate_finite_kappa(kappa)
    if math.isinf(math.pi / kappa * ARC_COUNT):
        raise GateError(f"kappa {kappa:.6g} is too small: arcs up to pi/kappa overflow")
    R = 1.0 / kappa
    report = BoundReport(
        experiment="chord-bound",
        surface=f"circle(R={R:g})",
        n=ARC_COUNT,
        kappa=kappa,
    )
    for k in range(ARC_COUNT):
        s = math.pi / kappa * (k + 1) / ARC_COUNT
        p = np.array([1.0, 0.0])
        q = np.array([math.cos(s / R), math.sin(s / R)])
        chord = R * float(np.linalg.norm(q - p))
        bound = chord_lower_bound(kappa, min(s, math.pi / kappa))
        report.rows.append(
            PairCheck(k, 0, chord, bound, _ratio(bound, chord), 1.0,
                      abs(chord - bound) <= 1e-12 * R)
        )
    rng = np.random.default_rng(seed)
    unit = sphere(1.0)
    for k in range(ARC_COUNT):
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


def verify_curvature_consistency(curve_spec: str = "circle") -> BoundReport:
    """Triple curvature of gamma(S-h), gamma(S), gamma(S+h) vs analytic,
    S = CONSISTENCY_S.

    Reports the error per h and the empirical convergence order between
    the last two steps.  The smallest h must land within 1e-3 for the
    unit circle (it lands at float noise: three circle points always
    lie on the circle itself).  Row k corresponds to H_SEQUENCE[k];
    oracle = analytic curvature, graph = discrete value.
    """
    t0 = time.perf_counter()
    hs = list(H_SEQUENCE)
    s = CONSISTENCY_S
    gamma, true_curv = _curve(curve_spec)
    report = BoundReport(
        experiment="curvature-consistency",
        surface=curve_spec,
        n=len(hs),
        kappa=true_curv,
    )
    errors = []
    for k, h in enumerate(hs):
        est = discrete_curvature(gamma(s - h), gamma(s), gamma(s + h))
        err = abs(est - true_curv)
        errors.append(err)
        tol = 1e-3 if k == len(hs) - 1 else math.inf
        ratio = 1.0 if est == true_curv else _ratio(est, true_curv)
        report.rows.append(
            PairCheck(k, -1, true_curv, est, ratio, 1.0, err <= tol)
        )
    order = None
    if errors[-1] > 0.0 and errors[-2] > 0.0:
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
    return "" if x is None else _fmt(float(x))


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
