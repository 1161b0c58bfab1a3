"""Every graph runner against its slow twin, report by report.

``conftest.slow_report`` rebuilds a runner's reports from the oracles
alone: the brute-force graph, the hand-written ``dijkstra`` and
``constrained_shortest``.  The runner's own orchestration, the bounded
searches and their re-searches, the chord lens, the engine's one-cap
cache, the kappa' bisection and its top-cap fallback, must not show in
its reports: the CSV must be byte-equal, and so must the summary JSON,
apart from ``runtime_s`` and the search counts, which the twin does not
have.
"""

import math

from hypothesis import example, given, settings, strategies as st

from geoknot import (
    GateError,
    HardFailure,
    circle,
    cylinder,
    disk,
    sphere,
    summary_payload,
    verify_constrained_lower,
    verify_constrained_upper,
    verify_unconstrained_lower,
    verify_unconstrained_upper,
    write_report_csv,
)
from conftest import slow_report

RUNNERS = {
    "unconstrained-upper": verify_unconstrained_upper,
    "unconstrained-lower": verify_unconstrained_lower,
    "constrained-upper": verify_constrained_upper,
    "constrained-lower": lambda surface, n, **kw: verify_constrained_lower(surface, n, **kw),
}
# Each surface with radii that its pair window admits (3r at most half
# its diameter); the lower runners take those with kappa_S * r <= 1/3.
# The denser choices come first in each list, since Hypothesis draws
# the first ones most.
SURFACES = {
    "sphere": (sphere(1.0), [0.5, 0.33, 0.25]),
    "disk": (disk(1.0), [0.25, 0.2, 0.15]),
    "cylinder": (cylinder(1.0, 1.5), [0.5, 0.33, 0.25]),
    "circle": (circle(1.0), [0.33, 0.2, 0.1]),
}
COUNTS = ("searched_sources", "re_searched_sources")


def outcome(run, path) -> tuple:
    """The CSV bytes and the summary JSON, without ``runtime_s`` and the
    search counts, of the reports ``run()`` returns; or the type and
    message of the GateError or HardFailure it raises."""
    try:
        reports = run()
    except (GateError, HardFailure) as exc:
        return type(exc).__name__, str(exc)
    write_report_csv(str(path), reports)
    summary = summary_payload(reports)
    for rep in summary["reports"]:
        rep["summary"].pop("runtime_s")
        rep["summary"].pop("evaluations", None)
        for key in COUNTS:
            rep["summary"]["sizes"].pop(key, None)
    return path.read_bytes(), summary


@st.composite
def runs(draw):
    """(runner, keyword arguments) of one graph run: N <= 150 (a sphere
    grid rounds it up to 258), at most 6 pairs, and a radius that passes
    the runner's gates, small enough that a graph often splits.  At such
    N only the circle grid is dense enough for unconstrained-upper's
    gate eps <= r/4, so that runner samples it."""
    runner = draw(st.sampled_from(sorted(RUNNERS)))
    upper = runner == "unconstrained-upper"
    surface, radii = SURFACES["circle" if upper else draw(st.sampled_from(sorted(SURFACES)))]
    if runner.endswith("lower"):
        radii = [r for r in radii if surface.radius * r <= 1.0 / 3.0]
    kw = dict(
        surface=surface,
        n=draw(st.sampled_from([150, 120, 90, 60])),
        r=draw(st.sampled_from(radii)),
        pairs=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 10**4)),
        mode="grid" if upper else draw(st.sampled_from(["grid", "uniform-random"])),
        perturb_weights=draw(st.sampled_from([0.0, -0.5, 0.5])),
    )
    if upper:
        kw["r"] = draw(st.sampled_from([None, kw["r"]]))
    if runner.startswith("constrained"):
        kw.update(alpha=0.25, kappa=draw(st.sampled_from([1.0, 1.5, 50.0])))
    if runner == "constrained-upper":
        kw["kappa_prime"] = draw(st.sampled_from([None, None, math.inf, 3.0 * kw["kappa"]]))
    if runner == "constrained-lower":
        kw["n"] = [kw["n"]]
    return runner, kw


class TestRunnerTwin:
    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(run=runs())
    # kappa' = inf, on a graph whose weights are doubled, so every
    # source is searched again.
    @example(run=("constrained-upper", dict(
        surface=sphere(1.0), n=60, r=0.5, pairs=6, seed=3, mode="grid",
        perturb_weights=-0.5, alpha=0.25, kappa=1.0, kappa_prime=math.inf)))
    # A bisection over many caps, and a kappa large enough to be kappa'
    # itself.
    @example(run=("constrained-upper", dict(
        surface=disk(1.0), n=150, r=0.25, pairs=6, seed=0, mode="grid",
        perturb_weights=0.0, alpha=0.25, kappa=1.0, kappa_prime=None)))
    @example(run=("constrained-upper", dict(
        surface=disk(1.0), n=150, r=0.25, pairs=6, seed=1, mode="grid",
        perturb_weights=0.0, alpha=0.25, kappa=50.0, kappa_prime=None)))
    # A split graph: a pair no walk joins fails at every cap, so the run
    # never passes and reports the top cap.
    @example(run=("constrained-upper", dict(
        surface=sphere(1.0), n=120, r=0.3, pairs=6, seed=2, mode="uniform-random",
        perturb_weights=0.0, alpha=0.25, kappa=1.0, kappa_prime=None)))
    # Split graphs, so some rows are skips.
    @example(run=("unconstrained-lower", dict(
        surface=cylinder(1.0, 1.5), n=150, r=0.33, pairs=6, seed=1, mode="uniform-random",
        perturb_weights=0.5)))
    @example(run=("constrained-lower", dict(
        surface=cylinder(1.0, 1.5), n=[80, 150], r=0.33, pairs=6, seed=5,
        mode="uniform-random", perturb_weights=-0.5, alpha=0.25, kappa=1.0)))
    def test_reports_match_the_slow_twin(self, run, tmp_path_factory):
        runner, kw = run
        tmp = tmp_path_factory.mktemp("twin")
        fast = outcome(lambda: RUNNERS[runner](**kw), tmp / "fast.csv")
        slow = outcome(lambda: slow_report(runner, **kw), tmp / "slow.csv")
        assert fast == slow
