import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from geoknot import read_points_csv
from geoknot.cli import main
from geoknot.validation import REPORT_HEADER


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
        proc = subprocess.run(
            [sys.executable, "-m", "geoknot.cli", "verify",
             "--experiment", "chord-bound"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "chord-bound" in proc.stdout

    def test_console_script_installed(self):
        assert shutil.which("geoknot") is not None
