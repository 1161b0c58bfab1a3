"""One pass of one workload, in a fresh process.

Started by ``run.py`` once per pass.  Set-up time runs from the
moment the parent started this process (``--t0``, a CLOCK_MONOTONIC
reading, which is shared by all processes) to the end of input
generation, so it covers interpreter start, ``import geoknot`` and
building the workload's inputs.  Peak RSS is read right after the
timed pass, before the checks, so both belong to the pass.  The record
is written as JSON to ``--out``.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import geoknot

    if not Path(geoknot.__file__).resolve().is_relative_to(SRC):
        print(f"geoknot imported from {geoknot.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    with open(HERE / "spec.json", encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"][args.workload]
    size = "smoke" if args.smoke else "inputs"
    parts = {name: part[size] for name, part in spec["parts"].items()}
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workdir = tempfile.mkdtemp(prefix="pass-", dir=args.workdir)
    try:
        span = tracer.begin("bench.setup") if tracer else None
        wl = workloads.Pass(parts, args.seed, workdir)
        if span:
            tracer.end(span)
        setup_s = time.monotonic() - args.t0
        span = tracer.begin("bench.pass") if tracer else None
        t0 = time.perf_counter()
        wl.run()
        wall_s = time.perf_counter() - t0
        if span:
            tracer.end(span)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        wl.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [e for _, _, ok, e in wl.requests if not ok]
    failures += [label for label, ok in wl.checks if not ok]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "pairs": wl.pairs,
        "attempted": len(wl.requests) + len(wl.checks),
        "failed": len(failures),
        "failures": failures[:10],
        "digests": wl.digests,
        "latency_ms": {k: [s * 1e3 for s in wl.latencies(k)]
                       for k in {r[0] for r in wl.requests} | {"query", "cquery"}},
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": args.workload,
                                         "seed": args.seed})
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
