"""The geoknot benchmark: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds S      # every workload, one after another

Workloads and their inputs are in ``perfbench/spec.json``; metric names
and units in ``BENCHMARK.json``.  Each pass runs in a fresh process
(``worker.py``), one caller in a closed loop, so set-up time and peak
RSS belong to that pass.  Passes start one after another until
``--seconds`` have gone by, with at least ``MIN_PASSES``; pass k takes
its inputs from (seed, k), so the same seed gives the same inputs.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` every pass runs twice, untraced and traced on the same
inputs; the traced process rebinds library names to timing wrappers
(``tracing.py``) and the run prints the per-layer metrics, with
``trace.overhead_s`` as traced minus untraced pass time.  Spans go to
``.perfbench/trace/``, full records to ``.perfbench/results/``.

After each pass the worker checks the fast paths against their slow
twins and records digests; a wrong answer or a failed call counts as a
failed operation and makes ``correct`` false.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 on a completed run, 1 when a pass crashed,
2 when the checkout has no geoknot sources.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_PASSES = 2
# Every run, the slowest workload's minimum passes included, ends well
# inside the 180 s a run may take.
DEADLINE_S = 140.0
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class PassError(RuntimeError):
    """A worker process crashed or timed out."""


def pass_seed(seed: int, k: int) -> int:
    h = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(h[:4], "little")


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("GEOKNOT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = str(NPROC)
    return env


def run_pass(name, seed, trace, smoke, timeout) -> dict:
    tag = f"{name}-{seed}-{trace}-{os.getpid()}"
    out = OUT / "tmp" / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(trace),
           "--out", str(out), "--workdir", str(OUT / "tmp")]
    if trace:
        cmd += ["--trace-out", str(OUT / "trace" / f"{name}-{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{name} pass seed {seed} timed out") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise PassError(f"{name} pass seed {seed} exited "
                        f"{proc.returncode}:\n{tail}")
    try:
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        out.unlink(missing_ok=True)


def measure(name, seed, seconds, trace, smoke):
    """Run passes until the time is up; returns (untraced, traced)."""
    plain, traced, durations = [], [], []
    start = time.monotonic()
    min_passes = 1 if smoke else MIN_PASSES
    k = 0
    while True:
        t = time.monotonic()
        s = pass_seed(seed, k)
        remaining = DEADLINE_S + 25.0 - (t - start)
        plain.append(run_pass(name, s, 0, smoke, remaining))
        plain[-1]["process_s"] = time.monotonic() - t
        if trace:
            traced.append(run_pass(name, s, 1, smoke, remaining))
        durations.append(time.monotonic() - t)
        k += 1
        elapsed = time.monotonic() - start
        est = statistics.median(durations)
        # Stop at the pass boundary closest to the requested time.
        if (elapsed + est > DEADLINE_S
                or (k >= min_passes and elapsed + est / 2 > seconds)):
            return plain, traced


def percentile(values, p) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def latency_ms(records, kind, p) -> float:
    """Median over passes of the per-pass p-th percentile; 0 if none."""
    per_pass = [percentile(r["latency_ms"][kind], p)
                for r in records if r["latency_ms"][kind]]
    return statistics.median(per_pass) if per_pass else 0.0


def end_to_end(records) -> dict:
    """Pass time and throughput are totals over the run's passes: the
    machine's speed drifts over tens of seconds, and the total uses all
    of the measured time, which the median of a few passes does not."""
    med = statistics.median
    wall = sum(r["wall_s"] for r in records)
    return {
        "wall_s": wall / len(records),
        "setup_s": med(r["setup_s"] for r in records),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
        "pairs_per_s": sum(r["pairs"] for r in records) / wall,
    }


def query_latencies(records) -> dict:
    return {
        "query_p50_ms": latency_ms(records, "query", 50),
        "query_p90_ms": latency_ms(records, "query", 90),
        "cquery_p50_ms": latency_ms(records, "cquery", 50),
        "cquery_p80_ms": latency_ms(records, "cquery", 80),
    }


def per_layer(plain, traced) -> dict:
    out = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.median(r["layers"][key] for r in traced)
    for key, value in query_latencies(traced).items():
        out["cli." + key] = value
    out["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    return out


def environment() -> dict:
    import numpy
    import scipy

    sha = ""
    if (ROOT / ".git").exists():  # never let git search above the checkout
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 text=True, capture_output=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "geoknot").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha or None,
        "src_sha256": h.hexdigest()[:16],
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name, seed, seconds, trace, smoke, bench) -> dict:
    plain, traced = measure(name, seed, seconds, trace, smoke)
    records = plain + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    wanted = bench["per_layer" if trace else "end_to_end"]
    values = per_layer(plain, traced) if trace else end_to_end(plain)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise PassError(f"harness does not produce {missing}")
    env = environment()
    print(f"perfbench {name} seed={seed} passes={len(plain)} "
          f"trace={int(trace)}{' smoke' if smoke else ''}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    shown = [(m["name"], m["unit"]) for m in wanted]
    if not trace and any(r["latency_ms"]["query"] for r in plain):
        shown += [(k, "ms") for k in query_latencies(plain)]
        values.update(query_latencies(plain))
    for key, unit in shown:
        print(f"  {key:28s} {fmt(values[key]):>14s} {unit}")
    if trace:
        layers = {k[:-7]: v for k, v in values.items()
                  if k.endswith(".self_s") and k.count(".") == 1
                  and not k.startswith("bench.")}
        top = max(layers, key=layers.get)
        print(f"  largest self time: {top} ({fmt(layers[top])} s of "
              f"{fmt(sum(layers.values()))} s traced)")
    print(f"  {'error_rate':28s} {fmt(failed / attempted):>14s} ratio "
          f"({failed} of {attempted} operations failed)")
    for r in records:
        for msg in r["failures"]:
            print(f"  FAILED seed {r['seed']}: {msg}")
    for r in plain:
        print(f"  digests seed {r['seed']}: " + " ".join(
            f"{k}={v}" for k, v in sorted(r["digests"].items())))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{name}-{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "records": records}, fh)
    return result


def main(argv=None) -> int:
    with open(HERE / "spec.json", encoding="utf-8") as fh:
        names = list(json.load(fh)["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, default=None,
                    help="one workload; every workload when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one pass, for the harness self-test")
    args = ap.parse_args(argv)
    if not (SRC / "geoknot" / "__init__.py").is_file():
        print(f"perfbench: no geoknot sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for sub in ("tmp", "trace"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    try:
        for name in [args.workload] if args.workload else names:
            result = report(name, args.seed, args.seconds, bool(args.trace),
                            args.smoke, bench)
            print(json.dumps(result), flush=True)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
