import argparse
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geoknot import read_graph_csv, read_points_csv
from geoknot import cli, surfaces, validation
from geoknot.cli import (
    READS,
    SURFACE_FLAGS,
    ExperimentConfig,
    _surface_args,
    build_parser,
    load_config,
    main,
)
from geoknot.paths import path_result_payload
from geoknot.surfaces import SURFACE_KEYS, surface_from_json
from geoknot.validation import REPORT_HEADER
from conftest import reference_path


def run(argv):
    return main([str(a) for a in argv])


def write_line_points(path):
    path.write_text("x0,x1\n0,0\n1,0\n9,0\n")


class TestSample:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        rc = run(["sample", "--surface", "sphere", "--n", 66, "--out", out])
        assert rc == 0
        assert "wrote 66 points" in capsys.readouterr().out
        pts = read_points_csv(str(out))
        assert pts.shape == (66, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)

    def test_bit_exact_round_trip(self, tmp_path):
        out = tmp_path / "pts.csv"
        run(["sample", "--surface", "disk", "--mode", "uniform-random",
             "--n", 50, "--seed", 3, "--out", out])
        a = read_points_csv(str(out))
        out2 = tmp_path / "pts2.csv"
        run(["sample", "--surface", "disk", "--mode", "uniform-random",
             "--n", 50, "--seed", 3, "--out", out2])
        assert out.read_text() == out2.read_text()
        assert np.array_equal(a, read_points_csv(str(out2)))

    def test_unknown_surface(self, tmp_path):
        rc = run(["sample", "--surface", "torus", "--n", 10,
                  "--out", tmp_path / "x.csv"])
        assert rc == 2

    def test_too_few_points(self, tmp_path):
        rc = run(["sample", "--surface", "sphere", "--n", 1,
                  "--out", tmp_path / "x.csv"])
        assert rc == 2

    def test_infinite_cylinder_height(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run(["sample", "--surface", "cylinder", "--height", "inf", "--n", 10,
                  "--out", out])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: cylinder needs a positive finite height"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_empty_disk_grid_rejected(self, tmp_path, capsys, n):
        out = tmp_path / "d.csv"
        assert run(["sample", "--surface", "disk", "--n", n, "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: need at least 2 sample points; the disk grid for n = {n} has 0"
        ]
        assert not out.exists()
        assert run(["verify", "--experiment", "unconstrained-upper", "--surface", "disk",
                    "--n", n]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: need at least 2 sample points; the disk grid for n = {n} has 0"
        ]

    def test_oversized_sample_rejected(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an oversized sample was laid out")
        monkeypatch.setattr(surfaces, "_random_points", refuse)
        monkeypatch.setattr(surfaces, "_octahedron_grid", refuse)
        line = ("error: the uniform-random sample has 3000000000 points; "
                "a sample must have fewer than 2**31")
        out = tmp_path / "s.csv"
        assert run(["sample", "--surface", "sphere", "--mode", "uniform-random",
                    "--n", 3 * 10**9, "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()
        assert run(["verify", "--experiment", "unconstrained-upper", "--surface", "sphere",
                    "--mode", "uniform-random", "--n", 3 * 10**9]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert run(["sample", "--surface", "sphere", "--n", 2**30 + 3, "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the sphere grid for n = 1073741827 has 4294967298 points; "
            "a sample must have fewer than 2**31"
        ]


    @pytest.mark.parametrize("mode", [[], ["--mode", "grid"]])
    def test_seed_needs_uniform_random(self, tmp_path, capsys, mode):
        # A grid sample reads no seed, so a seed given to one is refused,
        # not silently ignored.
        out = tmp_path / "x.csv"
        assert run(["sample", "--surface", "sphere", *mode, "--n", 50, "--seed", 3,
                    "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --seed needs --mode uniform-random"]
        assert not out.exists()

    def test_directory_output_rejected_before_sampling(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the output path was checked")
        monkeypatch.setattr(cli, "sample_surface", refuse)
        assert run(["sample", "--surface", "sphere", "--n", 66, "--out", tmp_path]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: output path is a directory: {tmp_path}"]


class TestGraph:
    def test_build_and_header(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        write_line_points(pts)
        out = tmp_path / "g.csv"
        rc = run(["graph", "--points", pts, "--r", 1.0, "--out", out])
        assert rc == 0
        assert "edges=1" in capsys.readouterr().out
        assert out.read_text().startswith("# kind=ball")

    def test_ball_rejects_alpha(self, tmp_path):
        pts = tmp_path / "pts.csv"
        write_line_points(pts)
        rc = run(["graph", "--points", pts, "--r", 1.0, "--alpha", 0.5,
                  "--out", tmp_path / "g.csv"])
        assert rc == 2

    def test_missing_points_file(self, tmp_path):
        rc = run(["graph", "--points", tmp_path / "nope.csv", "--r", 1.0,
                  "--out", tmp_path / "g.csv"])
        assert rc == 2

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink", "hardlink"])
    def test_out_naming_the_points_file_rejected_before_any_read(
        self, tmp_path, capsys, monkeypatch, spelling
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the points were read before --out was checked")
        monkeypatch.setattr(cli, "read_points_csv", refuse)
        monkeypatch.chdir(tmp_path)
        write_line_points(Path("p.csv"))
        before = Path("p.csv").read_bytes()
        out = {"same": "p.csv", "dotted": "./p.csv"}.get(spelling, "q.csv")
        if spelling == "symlink":
            os.symlink("p.csv", "q.csv")
        if spelling == "hardlink":
            os.link("p.csv", "q.csv")
        assert run(["graph", "--points", "p.csv", "--r", 1.0, "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --points and --out name one file: p.csv and {out}"]
        assert Path("p.csv").read_bytes() == before

    def test_directory_output_rejected_before_any_read(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the points were read before --out was checked")
        monkeypatch.setattr(cli, "read_points_csv", refuse)
        pts = tmp_path / "pts.csv"
        write_line_points(pts)
        assert run(["graph", "--points", pts, "--r", 1.0, "--out", tmp_path]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: output path is a directory: {tmp_path}"]


class TestDist:
    @pytest.fixture()
    def files(self, tmp_path):
        pts = tmp_path / "pts.csv"
        write_line_points(pts)
        g = tmp_path / "g.csv"
        assert run(["graph", "--points", pts, "--r", 1.0, "--out", g]) == 0
        return pts, g

    def test_reachable(self, files, capsys):
        pts, g = files
        capsys.readouterr()
        rc = run(["dist", "--graph", g, "--points", pts,
                  "--src", 0, "--dst", 1])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["nodes"] == [0, 1]
        assert payload["length"] == 1.0
        assert payload["kappa"] == "inf"

    def test_unreachable_is_not_an_error(self, files, capsys):
        pts, g = files
        capsys.readouterr()
        rc = run(["dist", "--graph", g, "--points", pts,
                  "--src", 0, "--dst", 2])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["length"] == "inf"

    def test_source_equals_target(self, files, capsys):
        pts, g = files
        capsys.readouterr()
        rc = run(["dist", "--graph", g, "--points", pts,
                  "--src", 1, "--dst", 1, "--kappa", 2.0])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["length"] == 0.0 and payload["nodes"] == [1]

    def test_infinite_kappa_matches_omitted(self, files, capsys):
        pts, g = files
        capsys.readouterr()
        run(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1])
        plain = capsys.readouterr().out
        run(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1,
             "--kappa", "inf"])
        assert capsys.readouterr().out == plain

    def test_bad_node_index(self, files):
        pts, g = files
        rc = run(["dist", "--graph", g, "--points", pts,
                  "--src", 0, "--dst", 9])
        assert rc == 2

    def test_minus_infinite_kappa_rejected_like_a_negative_one(self, files, capsys):
        pts, g = files
        errors = []
        # "--kappa -inf" would read as a flag; the "=" form reaches the value.
        for kappa in ("-1", "-inf"):
            capsys.readouterr()
            rc = run(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1,
                      f"--kappa={kappa}"])
            out, err = capsys.readouterr()
            assert rc == 2 and out == ""
            errors.append(err)
        assert errors[1] == errors[0] == "error: kappa must be positive (or math.inf)\n"

    def test_prints_the_reference_payload(self, tmp_path, capsys):
        pts, g = tmp_path / "pts.csv", tmp_path / "g.csv"
        run(["sample", "--surface", "sphere", "--mode", "uniform-random", "--n", 150,
             "--seed", 4, "--out", pts])
        run(["graph", "--points", pts, "--kind", "annulus", "--r", 0.5, "--alpha", 0.25,
             "--out", g])
        # A graph file with a weight that rounds away next to 1 answers
        # from the references themselves.
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("# kind=ball r=1\n0,1,1\n0,2,1\n1,2,1e-300\n")
        points = read_points_csv(str(pts))
        graph = read_graph_csv(str(g), points=points)
        tiny_graph = read_graph_csv(str(tiny), points=points)
        rng = np.random.default_rng(5)
        queries = [(g, graph, int(s), int(t), kappa)
                   for s, t in rng.choice(150, (4, 2))
                   for kappa in (None, math.inf, 4.0, 1.5)]
        queries += [(tiny, tiny_graph, 0, 2, kappa) for kappa in (None, 4.0)]
        # The same answers from the files' twins and, once those are
        # deleted, from the CSV files alone.
        assert (tmp_path / "pts.csv.twin").exists() and (tmp_path / "g.csv.twin").exists()
        for twins in (True, False):
            if not twins:
                (tmp_path / "pts.csv.twin").unlink()
                (tmp_path / "g.csv.twin").unlink()
            for path, graph, s, t, kappa in queries:
                capsys.readouterr()
                extra = [] if kappa is None else ["--kappa", kappa]
                assert run(["dist", "--graph", path, "--points", pts, "--src", s, "--dst", t,
                            *extra]) == 0
                want = path_result_payload(reference_path(graph, kappa, s, t), s, t,
                                           math.inf if kappa is None else kappa)
                assert capsys.readouterr().out == json.dumps(want) + "\n"


class TestVerify:
    def test_chord_bound_writes_outputs(self, tmp_path, capsys):
        out_csv = tmp_path / "rep.csv"
        out_json = tmp_path / "rep.json"
        rc = run(["verify", "--experiment", "chord-bound",
                  "--out-csv", out_csv, "--out-json", out_json])
        assert rc == 0
        assert "violations=0" in capsys.readouterr().out
        assert out_csv.read_text().splitlines()[0] == REPORT_HEADER
        data = json.loads(out_json.read_text())
        assert data["reports"][0]["experiment"] == "chord-bound"

    def test_chord_bound_refuses_overflowing_arcs(self, capsys):
        assert run(["verify", "--experiment", "chord-bound", "--kappa", "1e-320"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("gate error: kappa")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("experiment, r", [("constrained-upper", "0.5"),
                                               ("constrained-lower", "0.3")])
    def test_kappa_whose_square_overflows(self, tmp_path, capsys, experiment, r):
        # kappa**2 overflows: the run reports C_emp as null, not an error.
        out_json = tmp_path / "rep.json"
        rc = run(["verify", "--experiment", experiment, "--surface", "sphere",
                  "--n", "200", "--r", r, "--kappa", "1e200", "--pairs", "3",
                  "--out-json", out_json])
        assert rc == 0
        assert "violations=0" in capsys.readouterr().out
        [rep] = json.loads(out_json.read_text())["reports"]
        assert rep["kappa"] == 1e200
        assert rep["summary"]["fitted_constants"]["C_emp"] is None

    def test_r_whose_square_underflows(self, tmp_path, capsys):
        # r**2 underflows to 0: eps / r**2 is inf and C_emp null, so the
        # run writes its report instead of dividing by zero.  No graph
        # edge is that short, so every pair fails.
        out_csv, out_json = tmp_path / "rep.csv", tmp_path / "rep.json"
        rc = run(["verify", "--experiment", "constrained-upper", "--surface", "sphere",
                  "--n", "50", "--r", "1e-170", "--kappa", "1", "--pairs", "3",
                  "--out-csv", out_csv, "--out-json", out_json])
        assert rc == 1
        captured = capsys.readouterr()
        assert "violations=3" in captured.out and captured.err == ""
        assert len(out_csv.read_text().splitlines()) == 4
        [rep] = json.loads(out_json.read_text())["reports"]
        assert rep["r"] == 1e-170
        assert rep["summary"]["fitted_constants"]["C_emp"] is None

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"experiment": "curvature-consistency", "curve": "circle"}
        ))
        out_json = tmp_path / "rep.json"
        rc = run(["verify", "--config", cfg, "--curve", "helix",
                  "--out-json", out_json])
        assert rc == 0
        capsys.readouterr()
        data = json.loads(out_json.read_text())
        assert data["reports"][0]["surface"] == "helix"

    def test_config_full_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "unconstrained-lower",
            "surface": {"kind": "disk", "radius": 1.0},
            "n": 400,
            "r": 0.2,
            "pairs": 10,
            "seed": 1,
        }))
        rc = run(["verify", "--config", cfg])
        assert rc == 0
        assert "violations=0" in capsys.readouterr().out

    def test_gate_error_exit_code(self, capsys):
        rc = run(["verify", "--experiment", "unconstrained-lower",
                  "--surface", "sphere", "--n", 100, "--r", 0.4])
        assert rc == 2
        assert "gate error" in capsys.readouterr().err

    def test_perturbation_turns_into_violations(self, tmp_path, capsys):
        rc = run(["verify", "--experiment", "unconstrained-lower",
                  "--surface", "disk", "--n", 400, "--r", 0.2,
                  "--pairs", 10, "--perturb-weights", 0.5])
        assert rc == 1
        assert "violations=10" in capsys.readouterr().out

    def test_unknown_experiment_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "frobnicate"}))
        assert run(["verify", "--config", cfg]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"experiment": "chord-bound", "krapa": 1.0}
        ))
        assert run(["verify", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_experiment(self, capsys):
        assert run(["verify"]) == 2

    def test_n_list_rejected_for_single_n_experiment(self, capsys):
        rc = run(["verify", "--experiment", "unconstrained-upper",
                  "--surface", "disk", "--n", 100, 200])
        assert rc == 2

    def test_unwritable_output(self, capsys):
        rc = run(["verify", "--experiment", "chord-bound",
                  "--out-csv", "/nonexistent/rep.csv"])
        assert rc == 2

    @pytest.mark.parametrize("key", ["out_csv", "out_json"])
    @pytest.mark.parametrize("by_config", [False, True])
    def test_empty_or_directory_output_rejected_before_the_run(
        self, tmp_path, capsys, monkeypatch, key, by_config
    ):
        def refuse(cfg):
            raise AssertionError("the experiment ran before its output paths were checked")
        monkeypatch.setattr(cli, "run_experiment", refuse)
        for path, line in [("", "error: output path is empty"),
                           (str(tmp_path), f"error: output path is a directory: {tmp_path}")]:
            if by_config:
                cfg = tmp_path / "cfg.json"
                cfg.write_text(json.dumps({"experiment": "chord-bound", key: path}))
                argv = ["verify", "--config", cfg]
            else:
                argv = ["verify", "--experiment", "chord-bound",
                        "--" + key.replace("_", "-"), path]
            assert run(argv) == 2
            assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink", "hardlink"])
    @pytest.mark.parametrize("by_config", [False, True])
    def test_one_file_for_both_outputs_rejected_before_the_run(
        self, tmp_path, capsys, monkeypatch, spelling, by_config
    ):
        def refuse(cfg):
            raise AssertionError("the experiment ran before its output paths were checked")
        monkeypatch.setattr(cli, "run_experiment", refuse)
        monkeypatch.chdir(tmp_path)
        out_csv, out_json = "x", {"same": "x", "dotted": "./x"}.get(spelling, "y")
        if spelling == "symlink":
            os.symlink("x", "y")  # dangling: neither file exists yet
        if spelling == "hardlink":
            Path("x").write_text("")
            os.link("x", "y")
        if by_config:
            Path("cfg.json").write_text(json.dumps(
                {"experiment": "chord-bound", "out_csv": out_csv, "out_json": out_json}))
            argv = ["verify", "--config", "cfg.json"]
        else:
            argv = ["verify", "--experiment", "chord-bound",
                    "--out-csv", out_csv, "--out-json", out_json]
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: out_csv and out_json name one file: {out_csv} and {out_json}"]

    def test_kappa_inf_string_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "constrained-upper",
            "surface": {"kind": "sphere", "radius": 1.0},
            "n": 200,
            "r": 0.4,
            "kappa": 2.0,
            "kappa_prime": "inf",
            "pairs": 6,
        }))
        rc = run(["verify", "--config", cfg])
        assert rc == 0


class TestGatedArguments:
    def test_chord_bound_rejects_kappa_zero(self, capsys):
        assert run(["verify", "--experiment", "chord-bound", "--kappa", 0]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gate error:")

    @pytest.mark.parametrize("by_config", [False, True])
    def test_infinite_cylinder_height(self, tmp_path, capsys, by_config):
        surface = {"kind": "cylinder", "radius": 1.0, "height": math.inf}
        argv = ["verify", "--experiment", "unconstrained-lower", "--n", 66, "--r", 0.3]
        if by_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"surface": surface}))
            argv += ["--config", cfg]
        else:
            argv += ["--surface", "cylinder", "--height", "inf"]
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: cylinder needs a positive finite height"
        ]

    GRAPH_RUNS = {
        "unconstrained-upper": ["--n", 66],
        "unconstrained-lower": ["--n", 66, "--r", 0.3],
        "constrained-upper": ["--n", 66, "--r", 0.4],
        "constrained-lower": ["--n", 66, "--r", 0.3],
    }

    @pytest.mark.parametrize("experiment", sorted(GRAPH_RUNS))
    @pytest.mark.parametrize("pairs", [0, -5])
    def test_too_few_pairs_rejected(self, tmp_path, capsys, experiment, pairs):
        argv = ["--experiment", experiment, "--surface", "sphere",
                *self.GRAPH_RUNS[experiment]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": pairs}))
        for extra in (["--pairs", pairs], ["--config", cfg]):
            assert run(["verify", *argv, *extra]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"gate error: pairs must be at least 1, got {pairs}"]

    @pytest.mark.parametrize("key, value", [
        ("surface", "sphere"),
        ("n", "100"),
        ("n", 2.5),
        ("n", []),
        ("pairs", "ten"),
        ("pairs", True),
        ("seed", "a"),
        ("r", "wide"),
        ("perturb_weights", [8]),
        ("mode", 3),
    ])
    def test_mistyped_config_field(self, tmp_path, capsys, key, value):
        data = {"experiment": "unconstrained-lower",
                "surface": {"kind": "sphere", "radius": 1.0},
                "n": 66, "r": 0.3, "pairs": 3, key: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert run(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"error: config field {key!r} has the wrong type: {value!r}"
        ]

    @pytest.mark.parametrize("key, value", [
        ("radius", [1]),
        ("radius", "1"),
        ("radius", True),
        ("radius", None),
        ("height", "4"),
        ("kind", 5),
    ])
    def test_mistyped_surface_field(self, tmp_path, capsys, key, value):
        surface = {"kind": "cylinder", "radius": 1.0, "height": 4.0, key: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "unconstrained-upper",
                                   "surface": surface, "n": 66, "pairs": 3}))
        assert run(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"error: surface field {key!r} has the wrong type: {value!r}"
        ]

    @pytest.mark.parametrize("key, value", [("hieght", 4), ("ambient_dim", 3)])
    def test_unknown_surface_key(self, tmp_path, capsys, key, value):
        # A misspelt key must stop the run, not be dropped.
        surface = {"kind": "cylinder", "radius": 1.0, "height": 4.0, key: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "unconstrained-upper",
                                   "surface": surface, "n": 66, "pairs": 3}))
        assert run(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: unknown surface keys: [{key!r}]; a surface takes kind, radius and height"
        ]

    @pytest.mark.parametrize("surface, key", [
        ({"radius": 1}, "kind"),
        ({"kind": "sphere"}, "radius"),
    ])
    def test_missing_surface_key(self, tmp_path, capsys, surface, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "unconstrained-upper",
                                   "surface": surface, "n": 66, "pairs": 3}))
        assert run(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: missing surface key {key!r}; a surface takes kind, radius and height"
        ]

    @pytest.mark.parametrize("surface, r", [
        ({"kind": "sphere", "radius": 1.0}, 10**400),
        ({"kind": "sphere", "radius": 10**400}, 0.3),
    ])
    def test_integer_beyond_float_range(self, tmp_path, capsys, surface, r):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "unconstrained-lower",
                                   "surface": surface, "n": 66, "r": r}))
        assert run(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: int too large to convert to float"
        ]

    @pytest.mark.parametrize("experiment", ["unconstrained-lower", "constrained-lower"])
    def test_all_pairs_disconnected_rejected(self, capsys, experiment):
        # At N=66 and r=0.3 no selected pair is joined in the graph, so
        # the run would check nothing.
        assert run(["verify", "--experiment", experiment, "--surface", "sphere",
                    "--n", 66, "--r", 0.3, "--pairs", 3]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"gate error: {experiment} at N=66: all 3 pairs are disconnected "
            "in the graph, nothing was checked"
        ]

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("5\n")
        assert run(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}: config must be a JSON object"
        ]

    @pytest.mark.parametrize("kappa_prime", ["0.5", "nan"])
    def test_kappa_prime_below_kappa(self, capsys, kappa_prime):
        argv = ["verify", "--experiment", "constrained-upper", "--surface", "sphere",
                "--n", 200, "--r", 0.4, "--kappa", 2, "--kappa-prime", kappa_prime,
                "--pairs", 8]
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"gate error: kappa_prime must be at least kappa = 2, got {kappa_prime}"
        ]

    def test_more_pairs_than_the_sample_has(self, capsys):
        argv = ["verify", "--experiment", "unconstrained-lower", "--surface", "sphere",
                "--n", 66, "--r", 0.3, "--pairs", 100000]
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "gate error: pairs must be at most 2145, the distinct pairs of "
            "66 eligible points, got 100000"
        ]


class TestChecksBeforeSampling:
    """A bad runner parameter exits 2 before the sample is drawn, with the
    line its check gave when it ran after the sample."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the runner sampled before checking its parameters")
        monkeypatch.setattr(validation, "sample_surface", refuse)

    @pytest.mark.parametrize("experiment", ["unconstrained-upper", "unconstrained-lower",
                                            "constrained-upper", "constrained-lower"])
    @pytest.mark.parametrize("extra, line", [
        (["--pairs", 0], "gate error: pairs must be at least 1, got 0"),
        (["--perturb-weights", "nan"],
         "error: weight perturbation must satisfy -1 < p < inf, got nan"),
        (["--r", "nan"], "error: r must be positive and finite"),
    ])
    def test_large_run_rejected_at_once(self, capsys, experiment, extra, line):
        assert run(["verify", "--experiment", experiment, "--surface", "sphere",
                    "--mode", "uniform-random", "--n", 200000, "--r", 0.05, *extra]) == 2
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.parametrize("experiment", ["unconstrained-upper", "constrained-upper"])
    def test_empty_pair_window_rejected_at_once(self, capsys, experiment):
        assert run(["verify", "--experiment", experiment, "--surface", "sphere",
                    "--n", 4098, "--r", 0.6, "--pairs", 5]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "gate error: pair window empty: 3r = 1.8 exceeds half diameter 1.5708"
        ]

    @pytest.mark.parametrize("surface, n, r, kappa", [
        ("sphere", 4098, 0.2, "nan"),
        ("disk", 3096, 0.1, "0"),
    ])
    def test_constrained_upper_kappa_must_be_positive(self, capsys, surface, n, r, kappa):
        # A disk's surface curvature bound is 0, so only the kappa > 0
        # gate stops kappa 0.
        assert run(["verify", "--experiment", "constrained-upper", "--surface", surface,
                    "--n", n, "--r", r, "--kappa", kappa, "--pairs", 30]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"gate error: kappa must be positive, got {float(kappa):.6g}"
        ]


class TestPerturbWeights:
    @pytest.mark.parametrize("p", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("by_config", [False, True])
    def test_outside_open_interval_rejected(self, tmp_path, capsys, p, by_config):
        # At inf every weight became 0 and the run certified the graph.
        argv = ["verify", "--experiment", "unconstrained-upper", "--surface", "sphere",
                "--n", 1000, "--pairs", 5]
        if by_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"perturb_weights": p}))
            argv += ["--config", cfg]
        else:
            argv += ["--perturb-weights", p]
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: weight perturbation must satisfy -1 < p < inf, got {float(p)}"
        ]


class TestBadGraphFile:
    @pytest.mark.parametrize("row, message", [
        ("1,3,0.5", "node index outside [0, 3)"),
        ("1,1,0.5", "edge must have i < j"),
        ("1,2,0", "weight must be finite and positive"),
        ("0,1,0.5", "duplicate edge 0,1 (first on line 2)"),
    ])
    def test_dist_rejects_with_file_and_line(self, tmp_path, capsys, row, message):
        pts = tmp_path / "pts.csv"
        write_line_points(pts)
        g = tmp_path / "g.csv"
        g.write_text(f"# kind=ball r=1\n0,1,1\n{row}\n")
        rc = run(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 2])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {g}:3: {message}"]


    @pytest.mark.parametrize("kappa", [[], ["--kappa", 3]])
    def test_dist_rejects_edge_between_coincident_points(self, tmp_path, capsys, kappa):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n0,0\n1,0\n")
        g = tmp_path / "g.csv"
        g.write_text("# kind=ball r=1\n0,1,1\n1,2,1\n")
        rc = run(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 2, *kappa])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {g}:2: edge joins coincident points"]

    @pytest.mark.parametrize("header, message", [
        ("# kind=foo r=1", "unknown graph kind 'foo'"),
        ("# kind=ball r=0.9 alpha=0.5", "ball graphs take no alpha"),
        ("# kind=ball r=-3", "r must be positive and finite"),
        ("# kind=ball r=inf", "r must be positive and finite"),
        ("# kind=ball r=abc", "header r and alpha must be numbers, got '# kind=ball r=abc'"),
        ("# kind=annulus r=1", "annulus graphs need 0 <= alpha < 1"),
        ("# kind=annulus r=1 alpha=1", "annulus graphs need 0 <= alpha < 1"),
    ])
    def test_dist_rejects_bad_header(self, tmp_path, capsys, header, message):
        # The header passes the checks build_graph puts its arguments to.
        pts = tmp_path / "pts.csv"
        write_line_points(pts)
        g = tmp_path / "g.csv"
        g.write_text(f"{header}\n0,1,1\n")
        rc = run(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {g}: {message}"]

    @pytest.mark.parametrize("text, message", [
        ("# kind=ball r=1 alhpa=0.3\n0,1,1\n", ": bad header token 'alhpa=0.3'"),
        ("# kind=ball r=1 r=2\n0,1,1\n", ": bad header token 'r=2'"),
        ("# kind=ball r=1 wide\n0,1,1\n", ": bad header token 'wide'"),
        ("# kind=ball r=1\n# kind=annulus r=5 alpha=0.1\n0,1,1\n", ":2: '#' line after"),
        ("# kind=ball r=1\n0,1,1\n# kind=annulus r=5 alpha=0.1\n1,2,1\n", ":3: '#' line after"),
        ("\n# kind=ball r=1\n\n0,1,1\n#\n", ":5: '#' line after"),
        ("0,1,1\n# kind=ball r=1\n", " is missing the kind/r header comment"),
    ])
    def test_dist_rejects_all_but_one_header_line(self, tmp_path, capsys, text, message):
        pts = tmp_path / "pts.csv"
        write_line_points(pts)
        g = tmp_path / "g.csv"
        g.write_text(text)
        rc = run(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {g}{message}")

    @pytest.mark.parametrize("text, line", [
        (b"# kind=ball r=1\n0,1,1\n1,2,\xff\n", 3),
        (b"# kind=ball r=1\r\n0,1,1\r1,2,1 \xc3\n", 3),
        (b"# kind=\xffball r=1\n0,1,1\n", 1),
    ])
    def test_dist_rejects_undecodable_bytes_with_file_and_line(self, tmp_path, capsys,
                                                                text, line):
        pts = tmp_path / "pts.csv"
        write_line_points(pts)
        g = tmp_path / "g.csv"
        g.write_bytes(text)
        rc = run(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {g}:{line}: not UTF-8 text"]

    def test_graph_is_sized_by_its_points(self, tmp_path, capsys):
        # A large index is out of range, never a reason to allocate a
        # graph that large.
        pts = tmp_path / "pts.csv"
        write_line_points(pts)
        g = tmp_path / "g.csv"
        g.write_text("# kind=ball r=1\n0,10000000,1\n")
        message = f"{g}:2: node index outside [0, 3)"
        with pytest.raises(ValueError) as exc:
            read_graph_csv(str(g), read_points_csv(str(pts)))
        assert str(exc.value) == message
        rc = run(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestBadPointsFile:
    @pytest.mark.parametrize("text, message", [
        ("0,0\n1x,0\n1,0\n2,0\n", "2: expected numeric coordinates, got '1x,0'"),
        ("x0,x1\n0,0\n1,0\nnan,0\n", "4: coordinate is not finite"),
    ])
    def test_graph_and_dist_reject_with_file_and_line(self, tmp_path, capsys, text, message):
        pts = tmp_path / "pts.csv"
        pts.write_text(text)
        g = tmp_path / "g.csv"
        g.write_text("# kind=ball r=1\n0,1,1\n")
        for argv in (
            ["graph", "--points", pts, "--r", 1.0, "--out", tmp_path / "out.csv"],
            ["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1],
        ):
            assert run(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: {pts}:{message}"]

    @pytest.mark.parametrize("text, line", [
        (b"x0,x1\n0,0\n1,\xff\n", 3),
        (b"# \xfe note\n0,0\n1,0\n", 1),
        (b"x0,x1\r\n0,0\r\n\r\n1,0\x80\r\n", 4),
    ])
    def test_undecodable_bytes_rejected_with_file_and_line(self, tmp_path, capsys, text, line):
        pts = tmp_path / "pts.csv"
        pts.write_bytes(text)
        g = tmp_path / "g.csv"
        g.write_text("# kind=ball r=1\n0,1,1\n")
        for argv in (
            ["graph", "--points", pts, "--r", 1.0, "--out", tmp_path / "out.csv"],
            ["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1],
        ):
            assert run(argv) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: {pts}:{line}: not UTF-8 text"]


def rejected(argv):
    """Run the CLI on ``argv``; it must exit 2 with one stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert "Traceback" not in err.getvalue()
    assert code == 2, (argv, err.getvalue())
    assert len(err.getvalue().splitlines()) == 1, err.getvalue()


# A token that starts with "x": no reader, int() or float() accepts it.
JUNK = st.text(max_size=6).map(lambda t: "x" + t)

POINT_ROWS = ["x0,x1", "0,0", "1,0", "9,0"]
POINT_FAULTS = st.sampled_from(
    ["1", "1,2,3", "nan,0", "0,inf", "1e400,0", "1,0 # near", "1,"]
) | JUNK.map(lambda t: f"1,{t}")
GRAPH_ROWS = ["# kind=ball r=1", "0,1,1", "1,2,8"]
GRAPH_FAULTS = st.sampled_from([
    "0,3,1", "-1,1,1", "2,1,1", "1,1,1", "0,1,0", "0,1,-1", "0,1,nan",
    "0,1,inf", "0,1,1", "0,1", "0,1,1,1", "0,2,1 # near",
    "0,99999999999999999999,1", "# kind=annulus r=1", "# kind=ball r=wide",
    "# kind=foo r=1", "# kind=ball r=1 alpha=0.5", "# kind=ball r=-3",
]) | JUNK.map(lambda t: f"0,{t},1")

FLAGS = ["--n", "--r", "--alpha", "--kappa", "--kappa-prime", "--pairs", "--seed",
         "--radius", "--height", "--perturb-weights",
         "--experiment", "--surface", "--mode", "--curve"]
INT_KEYS = ["n", "pairs", "seed"]
FLOAT_KEYS = ["r", "alpha", "kappa", "kappa_prime", "perturb_weights"]
STR_KEYS = ["experiment", "mode", "curve", "out_csv", "out_json"]
NOT_A_NUMBER = JUNK | st.booleans() | st.lists(st.integers(0, 9), max_size=2) | st.just({})
WRONG = {
    **dict.fromkeys(INT_KEYS, NOT_A_NUMBER | st.floats()),
    **dict.fromkeys(FLOAT_KEYS, NOT_A_NUMBER),
    **dict.fromkeys(STR_KEYS, st.integers(-9, 9) | st.floats() | st.lists(JUNK, max_size=2)),
    "surface": JUNK | st.integers() | st.lists(st.integers(), max_size=2),
}
SURFACE_WRONG = {
    "kind": st.integers() | st.lists(JUNK, max_size=2),
    "radius": NOT_A_NUMBER,
    "height": NOT_A_NUMBER,
}


@st.composite
def with_fault(draw, rows, faults):
    """``rows`` with one fault row inserted, as file text."""
    rows = list(rows)
    rows.insert(draw(st.integers(1, len(rows))), draw(faults))
    return "\n".join(rows) + draw(st.sampled_from(["\n", "\r\n", ""]))


class TestFuzz:
    """Malformed files, arguments and configs fail with exit 2 and one
    stderr line, never a traceback."""

    @given(with_fault(POINT_ROWS, POINT_FAULTS))
    def test_bad_points_file(self, tmp_path_factory, text):
        tmp = tmp_path_factory.mktemp("fuzz")
        pts, g = tmp / "pts.csv", tmp / "g.csv"
        pts.write_text(text)
        g.write_text("# kind=ball r=1\n0,1,1\n")
        rejected(["graph", "--points", pts, "--r", 1.5, "--out", tmp / "out.csv"])
        rejected(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1])

    @given(with_fault(GRAPH_ROWS, GRAPH_FAULTS), st.sampled_from([[], ["--kappa", 4]]),
           st.booleans())
    def test_bad_graph_file(self, tmp_path_factory, text, kappa, headless):
        tmp = tmp_path_factory.mktemp("fuzz")
        pts, g = tmp / "pts.csv", tmp / "g.csv"
        write_line_points(pts)
        g.write_text(text.split("\n", 1)[1] if headless else text)
        rejected(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 2, *kappa])

    def test_undecodable_files(self, tmp_path):
        pts, g = tmp_path / "pts.csv", tmp_path / "g.csv"
        pts.write_bytes(b"x0,x1\n0,\xff\n")
        g.write_bytes(b"# kind=ball r=1\n0,1,\xfe\n")
        rejected(["graph", "--points", pts, "--r", 1.5, "--out", tmp_path / "out.csv"])
        write_line_points(pts)
        rejected(["dist", "--graph", g, "--points", pts, "--src", 0, "--dst", 1])

    @given(st.sampled_from(FLAGS), JUNK)
    def test_bad_verify_argument(self, flag, value):
        rejected(["verify", "--experiment", "chord-bound", flag, value])

    @given(st.data())
    def test_bad_verify_config(self, tmp_path_factory, data):
        cfg = {"experiment": "unconstrained-upper",
               "surface": {"kind": "cylinder", "radius": 1.0, "height": 4.0},
               "n": 66, "pairs": 3}
        key = data.draw(st.sampled_from(sorted(WRONG) + ["surface field", "unknown"]))
        if key == "surface field":
            field = data.draw(st.sampled_from(sorted(SURFACE_WRONG)))
            cfg["surface"][field] = data.draw(SURFACE_WRONG[field])
        elif key == "unknown":
            cfg[data.draw(JUNK)] = 1
        else:
            cfg[key] = data.draw(WRONG[key])
        path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
        path.write_text(json.dumps(cfg))
        rejected(["verify", "--config", path])

    @given(st.text(max_size=20).filter(lambda t: not t.lstrip().startswith("{")))
    def test_config_not_json_object(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
        path.write_text(text, encoding="utf-8")
        rejected(["verify", "--config", path])


class TestUnreadOptions:
    """An option that the experiment does not read exits 2 with one line
    naming the experiment and the options; defaults never count."""

    @pytest.mark.parametrize("argv, line", [
        (["--experiment", "chord-bound", "--n", 5, "--r", 0.3, "--pairs", 3,
          "--alpha", 0.9, "--perturb-weights", "nan"],
         "experiment chord-bound does not read alpha, n, pairs, perturb_weights, r"),
        (["--experiment", "curvature-consistency", "--perturb-weights", "inf"],
         "experiment curvature-consistency does not read perturb_weights"),
        (["--experiment", "unconstrained-upper", "--surface", "sphere", "--n", 300,
          "--pairs", 5, "--alpha", 0.9, "--kappa-prime", 3, "--curve", "helix"],
         "experiment unconstrained-upper does not read alpha, curve, kappa_prime"),
        (["--experiment", "curvature-consistency", "--seed", 1],
         "experiment curvature-consistency does not read seed"),
    ])
    @pytest.mark.parametrize("by_config", [False, True])
    def test_rejected(self, tmp_path, capsys, argv, line, by_config):
        if by_config:
            data = {argv[k][2:].replace("-", "_"): argv[k + 1]
                    for k in range(0, len(argv), 2)}
            if "surface" in data:
                data["surface"] = {"kind": data["surface"], "radius": 1.0}
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(data))
            argv = ["--config", cfg]
        assert run(["verify", *argv]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]

    def test_benchmark_runs_accepted(self):
        spec = json.loads((Path(__file__).parents[1] / "perfbench" / "spec.json").read_text())
        runs = [argv for workload in spec["workloads"].values()
                for part in workload["parts"].values()
                for inputs in part.values() if "runs" in inputs
                for argv in inputs["runs"]]
        assert len(runs) == 9
        parser = build_parser()
        for argv in runs:
            args = parser.parse_args(["verify", *argv, "--seed", "7",
                                      "--out-csv", "r.csv", "--out-json", "r.json"])
            assert load_config(None, args).experiment == argv[1]

    @pytest.mark.parametrize("flag", ["--radius", "--height"])
    def test_surface_flag_needs_surface(self, capsys, flag):
        assert run(["verify", "--experiment", "chord-bound", flag, 3]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --radius and --height need --surface"
        ]

    @pytest.mark.parametrize("command", ["sample", "verify"])
    def test_no_ambient_dim_flag(self, tmp_path, capsys, command):
        argv = [command, "--surface", "disk", "--n", 50, "--ambient-dim", 3]
        assert run([*argv, "--out", tmp_path / "x.csv"] if command == "sample" else argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "geoknot: error: unrecognized arguments: --ambient-dim 3"
        ]

    def test_constrained_lower_needs_r(self, capsys):
        argv = ["verify", "--experiment", "constrained-lower", "--surface", "sphere",
                "--n", 100]
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "gate error: experiment constrained-lower needs r"
        ]


class TestNoDeadKnobs:
    """Every verify flag sets a config field or a surface key, and every
    config field is read by some experiment."""

    FIELDS = {f.name for f in fields(ExperimentConfig)}

    def test_every_verify_flag_sets_a_field(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["verify"]._actions} - {"help", "config"}
        assert dests - set(SURFACE_FLAGS) <= self.FIELDS
        assert set(SURFACE_FLAGS) <= dests

    def test_every_field_is_read(self):
        read = {name for names in READS.values() for name in names}
        assert self.FIELDS - {"experiment", "out_csv", "out_json"} <= read

    @pytest.mark.parametrize("command", [["sample", "--out", "x.csv"], ["verify"]])
    def test_every_surface_flag_is_read(self, command):
        assert set(SURFACE_FLAGS) <= set(SURFACE_KEYS)
        values = {k: 2.0 + i for i, k in enumerate(SURFACE_FLAGS)}
        flags = [x for k, v in values.items() for x in (f"--{k}", str(v))]
        args = build_parser().parse_args([*command, "--surface", "cylinder", "--n", "10", *flags])
        spec = surface_from_json(_surface_args(args))
        assert {k: getattr(spec, k) for k in SURFACE_FLAGS} == values


class TestNoSlackKnob:
    """The search for kappa' has no starting guess to set."""

    def test_flag_rejected(self):
        rejected(["verify", "--experiment", "chord-bound", "--c-emp", 1])

    def test_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "chord-bound", "c_emp": 8}))
        assert run(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown config keys: ['c_emp']"
        ]

    def test_never_passing_search_exits_one(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run(["verify", "--experiment", "constrained-upper", "--surface", "sphere",
                    "--n", 200, "--r", 0.4, "--kappa", 2, "--pairs", 8,
                    "--perturb-weights", -0.8, "--out-json", out]) == 1
        assert "violations=8" in capsys.readouterr().out
        summary = json.loads(out.read_text())["reports"][0]["summary"]
        assert summary["evaluations"] == 1
        assert summary["fitted_constants"]["kappa_prime_min"] is None
        assert summary["fitted_constants"]["C_emp"] is None


class TestNoThreadsOption:
    def test_flag_rejected(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        write_line_points(pts)
        assert run(["graph", "--points", pts, "--r", 1.0, "--threads", 2,
                    "--out", tmp_path / "g.csv"]) == 2
        assert run(["verify", "--experiment", "chord-bound",
                    "--threads", 2]) == 2

    def test_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "chord-bound", "threads": 2}))
        assert run(["verify", "--config", cfg]) == 2
        assert "unknown config keys: ['threads']" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "geoknot.cli", "verify",
             "--experiment", "chord-bound"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "chord-bound" in proc.stdout

    def test_package_invocation(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-m", "geoknot", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "verify" in proc.stdout

    def test_console_script_installed(self):
        assert shutil.which("geoknot") is not None
