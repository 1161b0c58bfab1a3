"""Command-line front end: sample, graph, dist, verify.

Thin orchestration only; all computation lives in the library
modules.  Exit codes: 0 success (including "no path found", which is
an answer, not an error), 1 a verification run found violations, 2
argument, file, or precondition-gate errors.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from .graph import build_graph, graph_stats, read_graph_csv, write_graph_csv
from .paths import path_result_payload, query_constrained, query_shortest

# Unused here, but bound for tracers that time the searches by their
# names in this module (perfbench/tracing.py).
from .paths import constrained_shortest, dijkstra, path_max_curvature  # noqa: F401
from .surfaces import (
    MODES,
    SURFACE_KINDS,
    _csv_text,
    _is_a,
    read_points_csv,
    sample_surface,
    surface_from_json,
    write_points_csv,
)
from .validation import (
    GateError,
    HardFailure,
    verify_chord_bound,
    verify_constrained_lower,
    verify_constrained_upper,
    verify_curvature_consistency,
    verify_unconstrained_lower,
    verify_unconstrained_upper,
    write_report_csv,
    write_summary_json,
)

# The config fields each experiment reads, besides experiment, out_csv
# and out_json.  Setting any other field, by flag or by config, is an error.
_GRAPH_FIELDS = ("surface", "n", "r", "pairs", "seed", "mode", "perturb_weights")
READS = {
    "unconstrained-upper": _GRAPH_FIELDS,
    "unconstrained-lower": _GRAPH_FIELDS,
    "constrained-upper": (*_GRAPH_FIELDS, "alpha", "kappa", "kappa_prime"),
    "constrained-lower": (*_GRAPH_FIELDS, "alpha", "kappa"),
    "chord-bound": ("kappa", "seed"),
    "curvature-consistency": ("curve",),
}
EXPERIMENTS = tuple(READS)

# The flags besides --surface that set a key of the surface dict; each
# flag's dest is its key.
SURFACE_FLAGS = ("radius", "height")


@dataclass
class ExperimentConfig:
    experiment: str
    surface: dict | None = None
    n: object = None  # int, or for constrained-lower a list run in its order
    r: float | None = None
    alpha: float | None = None
    kappa: float | None = None
    kappa_prime: float | None = None
    pairs: int = 50
    seed: int = 0
    mode: str = "grid"
    perturb_weights: float = 0.0
    curve: str = "circle"
    out_csv: str | None = None
    out_json: str | None = None


# The type of each config field that is not a string.
FLOAT_FIELDS = ("r", "alpha", "kappa", "kappa_prime", "perturb_weights")
FIELD_TYPES = {"surface": dict, "n": int, "pairs": int, "seed": int}
FIELD_TYPES.update(dict.fromkeys(FLOAT_FIELDS, (int, float)))


def _typed(f, value):
    """``value`` for config field ``f``, or ValueError if its type is
    wrong.  No boolean counts as a number, n may also be a nonempty
    list of integers, and a float field also reads a string such as
    "inf"."""
    if f.name in FLOAT_FIELDS and isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = float(value)
    if value is None:
        ok = f.default is None
    elif f.name == "n" and isinstance(value, list):
        ok = len(value) > 0 and all(_is_a(v, int) for v in value)
    else:
        ok = _is_a(value, FIELD_TYPES.get(f.name, str))
    if not ok:
        raise ValueError(f"config field {f.name!r} has the wrong type: {value!r}")
    return value


def load_config(path: str | None, args) -> ExperimentConfig:
    """Config file merged with flags; a set flag wins over the file."""
    data = {}
    if path is not None:
        with open(path, "rb") as fh:
            text = _csv_text(path, fh.read())
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
    known = {f.name: f for f in fields(ExperimentConfig)}
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    overrides = {name: getattr(args, name) for name in known if name != "surface"}
    if args.surface is not None:
        overrides["surface"] = _surface_args(args)
    elif any(getattr(args, k) is not None for k in SURFACE_FLAGS):
        raise ValueError("--radius and --height need --surface")
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    if "experiment" not in data:
        raise ValueError("config needs an 'experiment' field or --experiment")
    cfg = ExperimentConfig(**{k: _typed(known[k], v) for k, v in data.items()})
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {cfg.experiment!r}; choose from {EXPERIMENTS}"
        )
    unread = set(data) - {"experiment", "out_csv", "out_json", *READS[cfg.experiment]}
    if unread:
        raise ValueError(
            f"experiment {cfg.experiment} does not read {', '.join(sorted(unread))}"
        )
    if isinstance(cfg.n, list) and len(cfg.n) == 1:
        cfg.n = cfg.n[0]
    return cfg


def _surface_args(args) -> dict:
    """The surface dict of the --surface, --radius and --height flags,
    as a config file spells it."""
    surf = {"kind": args.surface, "radius": 1.0}
    surf.update((k, getattr(args, k)) for k in SURFACE_FLAGS if getattr(args, k) is not None)
    return surf


def _check_writable(path: str | None):
    """A set output path must name a file in a writable directory."""
    if path is None:
        return
    if not path:
        raise ValueError("output path is empty")
    if os.path.isdir(path):
        raise OSError(f"output path is a directory: {path}")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.access(parent, os.W_OK):
        raise OSError(f"output directory not writable: {parent}")


def _check_distinct(first: str | None, second: str | None, names: str):
    """Two paths that must name two files, one written over the other
    would be lost: the same spelling, ``x`` and ``./x``, or a symbolic
    or hard link to one file stops the command.  ``names`` names the two
    in the message."""
    if first is None or second is None:
        return
    same = os.path.realpath(first) == os.path.realpath(second)
    if not same and os.path.exists(first) and os.path.exists(second):
        same = os.path.samefile(first, second)  # hard links
    if same:
        raise ValueError(f"{names} name one file: {first} and {second}")


def run_experiment(cfg: ExperimentConfig) -> list:
    name = cfg.experiment
    if name == "chord-bound":
        return [verify_chord_bound(kappa=_or(cfg.kappa, 1.0), seed=cfg.seed)]
    if name == "curvature-consistency":
        return [verify_curvature_consistency(curve_spec=cfg.curve)]
    if cfg.surface is None:
        raise GateError(f"experiment {name} needs a surface")
    spec = surface_from_json(cfg.surface)
    if cfg.n is None:
        raise GateError(f"experiment {name} needs n")
    if cfg.r is None and name != "unconstrained-upper":
        raise GateError(f"experiment {name} needs r")
    common = dict(pairs=cfg.pairs, seed=cfg.seed, mode=cfg.mode,
                  perturb_weights=cfg.perturb_weights)
    capped = dict(alpha=_or(cfg.alpha, 0.25), kappa=_or(cfg.kappa, 1.0), **common)
    if name == "constrained-lower":
        seq = cfg.n if isinstance(cfg.n, list) else [cfg.n]
        return verify_constrained_lower(spec, seq, cfg.r, **capped)
    if isinstance(cfg.n, list):
        raise GateError(f"experiment {name} takes a single n")
    if name == "unconstrained-upper":
        return [verify_unconstrained_upper(spec, cfg.n, r=cfg.r, **common)]
    if name == "unconstrained-lower":
        return [verify_unconstrained_lower(spec, cfg.n, cfg.r, **common)]
    return [verify_constrained_upper(spec, cfg.n, cfg.r, kappa_prime=cfg.kappa_prime, **capped)]


def _or(value, default):
    return default if value is None else value


def cmd_sample(args) -> int:
    if args.seed is not None and args.mode != "uniform-random":
        raise ValueError("--seed needs --mode uniform-random")
    _check_writable(args.out)
    spec = surface_from_json(_surface_args(args))
    sample = sample_surface(spec, args.mode, args.n, args.seed)
    write_points_csv(args.out, sample)
    print(f"wrote {sample.n} points to {args.out}")
    return 0


def cmd_graph(args) -> int:
    _check_writable(args.out)
    # The graph written over its points file would lose the sample.
    _check_distinct(args.points, args.out, "--points and --out")
    pts = read_points_csv(args.points)
    g = build_graph(pts, kind=args.kind, r=args.r, alpha=args.alpha)
    write_graph_csv(args.out, g)
    stats = graph_stats(g)
    print(
        f"wrote {g.kind} graph to {args.out}: n={g.n} edges={g.edge_count} "
        f"components={stats.components}"
    )
    return 0


def cmd_dist(args) -> int:
    pts = read_points_csv(args.points)
    g = read_graph_csv(args.graph, points=pts)
    kappa = args.kappa
    if kappa is None or kappa == math.inf:
        # Vacuous constraint: the unconstrained path, so that --kappa inf
        # and an omitted kappa print identical results.
        result, kappa = query_shortest(g, args.src, args.dst), math.inf
    else:
        result = query_constrained(g, kappa, args.src, args.dst)
    print(json.dumps(path_result_payload(result, args.src, args.dst, kappa)))
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config, args)
    _check_writable(cfg.out_csv)
    _check_writable(cfg.out_json)
    _check_distinct(cfg.out_csv, cfg.out_json, "out_csv and out_json")
    reports = run_experiment(cfg)
    if cfg.out_csv is not None:
        write_report_csv(cfg.out_csv, reports)
    if cfg.out_json is not None:
        write_summary_json(cfg.out_json, reports)
    violations = 0
    for rep in reports:
        violations += rep.violations
        print(
            f"{rep.experiment} {rep.surface} N={rep.n}: "
            f"pairs={rep.summary['pairs']} violations={rep.violations} "
            f"skipped={rep.summary['skipped']}"
        )
    return 0 if violations == 0 else 1


class _Parser(argparse.ArgumentParser):
    """An argument error is one stderr line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geoknot",
        description="Geodesic distances from point samples, "
        "with optional curvature-constrained paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample points from a surface")
    p.add_argument("--surface", required=True,
                   choices=SURFACE_KINDS)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--height", type=float, default=None,
                   help="cylinder height")
    p.add_argument("--mode", default="grid",
                   choices=MODES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("graph", help="build a neighborhood graph")
    p.add_argument("--points", required=True)
    p.add_argument("--kind", default="ball", choices=("ball", "annulus"))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("dist", help="shortest path between two nodes")
    p.add_argument("--graph", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.add_argument("--kappa", type=float, default=None,
                   help="curvature cap; 'inf' or omitted = unconstrained")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("verify", help="run a bound-verification experiment")
    p.add_argument("--config", default=None, help="JSON experiment config")
    p.add_argument("--experiment", default=None, choices=EXPERIMENTS)
    p.add_argument("--surface", default=None,
                   choices=SURFACE_KINDS)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--height", type=float, default=None)
    p.add_argument("--n", type=int, nargs="+", default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--kappa-prime", type=float, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", default=None, choices=MODES)
    p.add_argument("--perturb-weights", type=float, default=None,
                   help="self-test fault injection: divide weights by (1+p)")
    p.add_argument("--curve", default=None,
                   choices=("circle", "line", "helix"))
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, so
    every call of :func:`main` reuses it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except GateError as exc:
        print(f"gate error: {exc}", file=sys.stderr)
        return 2
    except HardFailure as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
