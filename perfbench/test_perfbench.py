"""Self-test of the benchmark harness at smoke size.

    python3 -m pytest perfbench

Runs every workload once, untraced and traced, and checks that every
metric named in BENCHMARK.json comes out with its unit.  Kept out of
the package's own test suite, which collects only ``tests/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace == "0":
            assert got["value"] > 0
        assert m["name"] in proc.stdout.split("\n{")[0]


def test_spec_matches_benchmark_json():
    assert list(SPEC["workloads"]) == NAMES
    for w in BENCH["workloads"]:
        assert SPEC["workloads"][w["name"]]["why"] == w["why"]
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert set(SPEC["layer_moves"]) == {m["name"] for m in BENCH["per_layer"]}
    for row in SPEC["layer_moves"].values():
        assert set(row["moves"]) <= e2e


def test_trace_fails_loudly_when_a_name_is_gone(monkeypatch):
    import geoknot.validation

    monkeypatch.delattr(geoknot.validation, "covering_radius")
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="covering_radius"):
        tracer.install()
    tracer.uninstall()


def test_install_and_uninstall_restore_every_name():
    import geoknot.cli

    original = geoknot.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert geoknot.cli.main is not original
    finally:
        tracer.uninstall()
    assert geoknot.cli.main is original


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", NAMES[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
