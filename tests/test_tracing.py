"""The benchmark's tracer must find every name it rebinds.

perfbench/tracing.py wraps library functions by their names in the
package's module namespaces.  Installing it here makes a deleted or
renamed name fail the package's own suite, not only the benchmark's.
"""

import importlib.util
from pathlib import Path

import pytest

import geoknot.cli
import geoknot.validation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    originals = {
        (module, attr): getattr(module, attr) for module, attr, _ in tracing.WRAPPED
    }
    engine = geoknot.validation.EdgeStateEngine
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert geoknot.validation.EdgeStateEngine is not engine
        assert issubclass(geoknot.validation.EdgeStateEngine, engine)
        assert geoknot.cli.main is not originals[(geoknot.cli, "main")]
    finally:
        tracer.uninstall()
    assert geoknot.validation.EdgeStateEngine is engine
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn


def test_dist_reads_each_file_inside_one_traced_span(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x0,x1\n0,0\n1,0\n2,0\n")
    g = tmp_path / "g.csv"
    g.write_text("# kind=ball r=1\n0,1,1\n1,2,1\n")
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        code = geoknot.cli.main(["dist", "--graph", str(g), "--points", str(pts),
                                 "--src", "0", "--dst", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[3] for span in tracer.spans]
    assert names.count("graph.csv_read") == 1
    assert names.count("surfaces.points_io") == 1


def test_dist_reads_each_twin_inside_one_traced_span(tmp_path, capsys):
    """Files that ``sample`` and ``graph`` wrote have twins, and
    ``dist`` loads each inside the span of the reader it calls."""
    pts, g = tmp_path / "pts.csv", tmp_path / "g.csv"
    assert geoknot.cli.main(["sample", "--surface", "sphere", "--n", "66",
                             "--out", str(pts)]) == 0
    assert geoknot.cli.main(["graph", "--points", str(pts), "--r", "0.5",
                             "--out", str(g)]) == 0
    assert (tmp_path / "pts.csv.twin").exists() and (tmp_path / "g.csv.twin").exists()
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        code = geoknot.cli.main(["dist", "--graph", str(g), "--points", str(pts),
                                 "--src", "0", "--dst", "5", "--kappa", "4"])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[3] for span in tracer.spans]
    assert names.count("graph.csv_read") == 1
    assert names.count("surfaces.points_io") == 1


def test_engine_work_stays_inside_the_traced_methods(tmp_path, capsys):
    """The tracer times the engine through a subclass that overrides
    ``__init__`` and ``distances``; one constrained-upper run builds one
    engine and queries it through ``distances`` only."""
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        code = geoknot.cli.main([
            "verify", "--experiment", "constrained-upper", "--surface", "sphere",
            "--mode", "grid", "--n", "250", "--r", "0.4", "--alpha", "0.25",
            "--kappa", "1", "--pairs", "5", "--seed", "1",
            "--out-csv", str(tmp_path / "r.csv"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[3] for span in tracer.spans]
    assert names.count("paths.engine_init") == 1
    assert names.count("paths.engine_query") >= 1


def test_constrained_lower_search_and_curvature_stay_traced(tmp_path, capsys):
    """A constrained-lower run searches through ``shortest_distances``
    and measures its turns through ``path_max_curvature``, the two names
    the tracer times for it."""
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        code = geoknot.cli.main([
            "verify", "--experiment", "constrained-lower", "--surface", "sphere",
            "--n", "258", "--r", "0.3", "--pairs", "5",
            "--out-csv", str(tmp_path / "r.csv"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[3] for span in tracer.spans]
    assert names.count("paths.bulk_search") >= 1
    assert names.count("paths.path_curvature") >= 1


@pytest.mark.parametrize("argv", [
    ["unconstrained-upper", "--surface", "sphere", "--n", "1000", "--pairs", "5"],
    ["unconstrained-lower", "--surface", "cylinder", "--height", "4", "--mode",
     "uniform-random", "--n", "500", "--r", "0.3", "--pairs", "5"],
    ["constrained-upper", "--surface", "sphere", "--n", "250", "--r", "0.4",
     "--pairs", "5"],
    ["constrained-lower", "--surface", "sphere", "--n", "258", "--r", "0.3",
     "--pairs", "5"],
])
def test_tracer_reads_every_graph_runners_results(tmp_path, capsys, argv):
    """The tracer counts work from the results of the calls it wraps: the
    covering radius's ``reference_size`` (every runner but
    unconstrained-lower computes one), the graph's ``edge_count`` and
    the reports' rows.  A change to one of those return types must fail
    here, not only in the benchmark."""
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        code = geoknot.cli.main(["verify", "--experiment", *argv,
                                 "--out-csv", str(tmp_path / "r.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    for counter in ("graph.edges", "validation.pairs"):
        assert tracer.counts[counter] > 0, counter
    if argv[0] == "unconstrained-lower":
        # Its bound reads no covering radius, so none is computed.
        assert "surfaces.covering_radius" not in [span[3] for span in tracer.spans]
    else:
        assert tracer.counts["surfaces.reference_points"] > 0
