"""The benchmark workloads and the parts they are made of.

Each part is a class built with its inputs (the set-up), whose ``run``
method is timed and whose ``check`` method runs after the pass, outside
the timed region.  A workload (``Pass``) runs its parts one after
another and pools their bookkeeping.  ``check`` compares the fast paths
with their slow twins on a few seeded pairs and records digests of the
edge sets and distances so that runs of different commits on the same
seed can be compared bit for bit.

CLI work goes through ``geoknot.cli.main`` in process, the way a
caller of the ``geoknot`` command would see it minus interpreter
start-up.  Library work calls the public functions through their
modules, so that a traced run sees every call.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import geoknot.cli
import geoknot.graph
import geoknot.paths
import geoknot.surfaces

# Relative tolerance when a fast path is compared with its slow twin.
# Both sum the same edge weights along a path, so they agree exactly in
# practice; the slack only keeps a last-bit difference between equally
# short paths from reading as a wrong answer.
MATCH_RTOL = 1e-12


class Workload:
    """Shared bookkeeping: requests made in the pass and checks after it."""

    def __init__(self, params: dict, seed: int, workdir: str):
        self.params = params
        self.seed = seed
        self.workdir = workdir
        self.requests = []  # (kind, seconds, ok, error)
        self.checks = []  # (label, ok)
        self.digests = {}
        self.pairs = 0

    def cli(self, kind: str, argv: list):
        """One in-process ``geoknot`` call; returns its stdout text."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = geoknot.cli.main([str(a) for a in argv])
        seconds = time.perf_counter() - t0
        error = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
        self.requests.append((kind, seconds, code == 0, error))
        return out.getvalue()

    def check_close(self, label: str, fast: float, slow: float):
        if math.isinf(fast) or math.isinf(slow):
            ok = fast == slow
        else:
            ok = math.isclose(fast, slow, rel_tol=MATCH_RTOL, abs_tol=0.0)
        self.checks.append((f"{label}: fast {fast!r} slow {slow!r}", ok))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def latencies(self, kind: str) -> list:
        return [s for k, s, _, _ in self.requests if k == kind]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def graph_digest(g) -> str:
    return digest(g.indptr, g.indices, g.weights)


def _flag(argv: list, name: str):
    """Values following ``name`` in an argv list, up to the next flag."""
    if name not in argv:
        return []
    out = []
    for tok in argv[argv.index(name) + 1:]:
        if tok.startswith("--"):
            break
        out.append(tok)
    return out


def _surface(argv: list):
    kind = _flag(argv, "--surface")[0]
    if kind == "cylinder":
        return geoknot.surfaces.cylinder(1.0, float(_flag(argv, "--height")[0]))
    return geoknot.surfaces.sphere(1.0)


def _report_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class CertifyWorkload(Workload):
    """``geoknot verify`` runs, each with CSV and JSON reports."""

    def run(self):
        for k, argv in enumerate(self.params["runs"]):
            self.cli("verify", ["verify", *argv, "--seed", self.seed,
                                "--out-csv", self.path(f"r{k}.csv"),
                                "--out-json", self.path(f"r{k}.json")])

    def check(self):
        rng = np.random.default_rng(self.seed)
        for k, argv in enumerate(self.params["runs"]):
            if not self.requests[k][2]:
                continue
            with open(self.path(f"r{k}.json"), encoding="utf-8") as fh:
                reports = json.load(fh)["reports"]
            for rep in reports:
                s = rep["summary"]
                self.pairs += s["pairs"]
                self.checks.append((f"run {k} N={rep['N']}: violations "
                                    f"{s['violations']}", s["violations"] == 0))
            rows = _report_rows(self.path(f"r{k}.csv"))
            self.digests[f"run{k}.distances"] = digest(
                np.array([float(r["graph"]) for r in rows]))
            for n in sorted({int(r["N"]) for r in rows}):
                self.spot_check(k, argv, [r for r in rows if int(r["N"]) == n],
                                rng)

    def rebuild(self, argv: list, rows: list):
        """The graph the runner built, from the same library calls."""
        spec = _surface(argv)
        mode = _flag(argv, "--mode")[0]
        row = rows[0]
        sample = geoknot.surfaces.sample_surface(spec, mode, int(row["N"]),
                                                 self.seed)
        alpha = float(row["alpha"]) if row["alpha"] else None
        kind = "annulus" if alpha is not None else "ball"
        return geoknot.graph.build_graph(sample, kind=kind, r=float(row["r"]),
                                         alpha=alpha)

    def pick(self, rows: list, rng) -> list:
        count = min(self.params["spot_checks_per_report"], len(rows))
        return [rows[i] for i in rng.choice(len(rows), count, replace=False)]


class CertifyUnconstrained(CertifyWorkload):
    """Unconstrained certificates; the bulk search is checked against
    the hand-written Dijkstra."""

    def spot_check(self, k, argv, rows, rng):
        g = self.rebuild(argv, rows)
        self.digests[f"run{k}.N{g.n}.edges"] = graph_digest(g)
        for row in self.pick(rows, rng):
            i, j = int(row["pair_i"]), int(row["pair_j"])
            slow = float(geoknot.paths.dijkstra(g, i).dist[j])
            self.check_close(f"run {k} dijkstra {i}->{j}", float(row["graph"]),
                             slow)


class CertifyConstrained(CertifyWorkload):
    """Constrained-upper certificates; engine answers at the final cap
    are checked against ``constrained_shortest`` where the pure-Python
    search is affordable."""

    def spot_check(self, k, argv, rows, rng):
        n = int(rows[0]["N"])
        if n > self.params["spot_check_max_n"]:
            return
        g = self.rebuild(argv, rows)
        self.digests[f"run{k}.N{n}.edges"] = graph_digest(g)
        cap = float(rows[0]["kappa_prime"])
        for row in self.pick(rows, rng):
            i, j = int(row["pair_i"]), int(row["pair_j"])
            slow = geoknot.paths.constrained_shortest(g, cap, i, j).length
            self.check_close(f"run {k} constrained {i}->{j}",
                             float(row["graph"]), slow)


class BuildLarge(Workload):
    """Library build, stats and bulk search on a large sphere sample."""

    def __init__(self, params, seed, workdir):
        super().__init__(params, seed, workdir)
        self.sample = geoknot.surfaces.sample_surface(
            geoknot.surfaces.sphere(1.0), "uniform-random", params["n"], seed)
        rng = np.random.default_rng(seed)
        self.sources = sorted(int(s) for s in rng.choice(
            params["n"], params["sources"], replace=False))

    def library(self, label, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.requests.append((label, time.perf_counter() - t0, True, None))
        return result

    def run(self):
        p = self.params
        self.g = self.library("build", geoknot.graph.build_graph, self.sample,
                              kind="ball", r=p["r"])
        self.stats = self.library("stats", geoknot.graph.graph_stats, self.g)
        self.dist = self.library("search", geoknot.paths.shortest_distances,
                                 self.g, self.sources)
        self.pairs = len(self.sources) * self.g.n

    def check(self):
        g = self.g
        self.checks.append((f"stats edge count {self.stats.edge_count}",
                            self.stats.edge_count == g.edge_count
                            and self.stats.n == g.n))
        self.digests["edges"] = graph_digest(g)
        self.digests["distances"] = digest(self.dist)
        source = self.sources[0]
        slow = geoknot.paths.dijkstra(g, source).dist
        self.checks.append((f"dijkstra from {source} to every node", bool(
            np.allclose(self.dist[0], slow, rtol=MATCH_RTOL, atol=0.0))))


class QueryFiles(Workload):
    """``geoknot dist`` calls against CSV files written in the set-up."""

    def __init__(self, params, seed, workdir):
        super().__init__(params, seed, workdir)
        p = params
        self.points, self.graph = self.path("pts.csv"), self.path("graph.csv")
        self.cli("setup", ["sample", "--surface", "sphere", "--mode",
                           "uniform-random", "--n", p["n"], "--seed", seed,
                           "--out", self.points])
        self.cli("setup", ["graph", "--points", self.points, "--kind",
                           "annulus", "--r", p["r"], "--alpha", p["alpha"],
                           "--out", self.graph])
        pts = np.loadtxt(self.points, delimiter=",", skiprows=1)
        spec = geoknot.surfaces.sphere(1.0)
        rng = np.random.default_rng(seed)
        lo, hi = p["cquery_band"]

        def pair():
            return tuple(int(v) for v in rng.choice(p["n"], 2, replace=False))

        u = [pair() for _ in range(p["queries"])]
        c = []
        while len(c) < p["cqueries"]:
            i, j = pair()
            if lo <= geoknot.surfaces.geodesic_oracle(spec, pts[i], pts[j]) <= hi:
                c.append((i, j))
        # One closed loop: two unconstrained calls, then one constrained.
        self.order = []
        while u or c:
            self.order += [("query", q) for q in u[:2]] + [("cquery", q) for q in c[:1]]
            u, c = u[2:], c[1:]

    def run(self):
        base = ["dist", "--graph", self.graph, "--points", self.points]
        self.answers = []
        for kind, (i, j) in self.order:
            argv = base + ["--src", i, "--dst", j]
            if kind == "cquery":
                argv += ["--kappa", self.params["kappa"]]
            out = self.cli(kind, argv)
            self.answers.append((kind, i, j, json.loads(out) if out else None))
        self.pairs = len(self.order)

    def check(self):
        pts = geoknot.surfaces.read_points_csv(self.points)
        g = geoknot.graph.read_graph_csv(self.graph, points=pts)
        self.digests["edges"] = graph_digest(g)
        kappa = float(self.params["kappa"])
        sources = sorted({i for _, i, _, _ in self.answers})
        row = {s: k for k, s in enumerate(sources)}
        fast = {"query": geoknot.paths.shortest_distances(g, sources),
                "cquery": geoknot.paths.EdgeStateEngine(g).distances(kappa, sources)}
        lengths = []
        for kind, i, j, answer in self.answers:
            if answer is None:
                continue
            length = answer["length"]
            length = math.inf if length == "inf" else float(length)
            lengths.append(length)
            self.check_close(f"{kind} {i}->{j}", float(fast[kind][row[i], j]),
                             length)
        self.digests["distances"] = digest(np.array(lengths))


PARTS = {
    "certify-unconstrained": CertifyUnconstrained,
    "certify-constrained": CertifyConstrained,
    "build-large": BuildLarge,
    "query-files": QueryFiles,
}


class Pass:
    """One pass of a workload: its parts set up, run and checked in
    order, each in a directory of its own."""

    def __init__(self, parts: dict, seed: int, workdir: str):
        self.parts = []
        for name, params in parts.items():
            sub = os.path.join(workdir, name)
            os.mkdir(sub)
            self.parts.append((name, PARTS[name](params, seed, sub)))

    def run(self):
        for _, part in self.parts:
            part.run()

    def check(self):
        for _, part in self.parts:
            part.check()

    @property
    def requests(self) -> list:
        return [r for _, part in self.parts for r in part.requests]

    @property
    def checks(self) -> list:
        return [c for _, part in self.parts for c in part.checks]

    @property
    def pairs(self) -> int:
        return sum(part.pairs for _, part in self.parts)

    @property
    def digests(self) -> dict:
        return {f"{name}.{key}": value for name, part in self.parts
                for key, value in part.digests.items()}

    def latencies(self, kind: str) -> list:
        return [s for k, s, _, _ in self.requests if k == kind]
