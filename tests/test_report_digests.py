"""Pinned report digests: every checked ``geoknot verify`` report, bit for bit.

``report_digests.json`` holds, for each run, the sha256 of its CSV
report, the sha256 of its summary JSON with ``runtime_s`` and the search
counts removed, and the search counts (``evaluations``,
``searched_sources``, ``re_searched_sources``) as plain values, one set
per report of the run.  A change that only moves the work a runner does
changes the counts alone, and the diff of this file shows it.

The runs are certify's five (``perfbench/spec.json``) at two seeds, an
unconstrained-upper run with perturbed weights, a constrained-upper run
on a uniform-random sample (certify's bisecting run is a grid) and one
at kappa' = inf.  Under ``criteria`` the file also pins the reports of
acceptance criteria 1, 2, 7 and 8, hashed where ``test_acceptance``
computes them (:func:`assert_pinned`), so they cost no run of their own;
criterion 7's N = 4098 run is the one pinned kappa' search over a table
of millions of turns.  A change that alters a pinned value on purpose
writes the file again::

    PYTHONPATH=src python tests/test_report_digests.py

which runs those criteria's tests too, prints each run or criterion
whose pinned values moved, with the keys that moved, and names each
changed key, and why, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from geoknot.cli import main
from geoknot.validation import write_report_csv, write_summary_json

CORPUS = Path(__file__).with_name("report_digests.json")

CERTIFY_RUNS = [
    ["--experiment", "constrained-upper", "--surface", "sphere", "--mode", "grid",
     "--n", "1000", "--r", "0.2", "--alpha", "0.25", "--kappa", "1", "--pairs", "30"],
    ["--experiment", "constrained-upper", "--surface", "sphere", "--mode", "grid",
     "--n", "4000", "--r", "0.2", "--alpha", "0.25", "--kappa", "1", "--kappa-prime", "3",
     "--pairs", "30"],
    ["--experiment", "unconstrained-upper", "--surface", "sphere", "--mode", "grid",
     "--n", "4000", "--pairs", "400"],
    ["--experiment", "unconstrained-lower", "--surface", "cylinder", "--height", "4",
     "--mode", "uniform-random", "--n", "8000", "--r", "0.15", "--pairs", "400"],
    ["--experiment", "constrained-lower", "--surface", "sphere", "--mode", "uniform-random",
     "--n", "4000", "8000", "--r", "0.25", "--pairs", "50"],
]
EXTRA_RUNS = [
    ["--experiment", "unconstrained-upper", "--surface", "sphere", "--mode", "grid",
     "--n", "1000", "--pairs", "50", "--perturb-weights", "0.5", "--seed", "5"],
    ["--experiment", "constrained-upper", "--surface", "sphere", "--mode", "uniform-random",
     "--n", "800", "--r", "0.35", "--alpha", "0.25", "--kappa", "1", "--pairs", "12",
     "--seed", "5"],
    ["--experiment", "constrained-upper", "--surface", "sphere", "--mode", "grid",
     "--n", "4000", "--r", "0.2", "--alpha", "0.25", "--kappa", "1", "--kappa-prime", "inf",
     "--pairs", "30", "--seed", "11"],
]
RUNS = [[*argv, "--seed", str(seed)] for seed in (11, 12) for argv in CERTIFY_RUNS] + EXTRA_RUNS

COUNT_KEYS = ("searched_sources", "re_searched_sources")

# The acceptance criteria whose reports are pinned, by the name each
# test gives them.
CRITERIA = ("criterion 1", "criterion 2", "criterion 7", "criterion 8")

# The values pinned per run, besides its argv.
PINNED_KEYS = ("exit", "csv_sha256", "summary_sha256", "counts")


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def digests(argv: list, workdir: Path) -> dict:
    """Exit code, report digests and search counts of one verify run."""
    csv_path, json_path = workdir / "report.csv", workdir / "report.json"
    for path in (csv_path, json_path):
        path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", *argv, "--out-csv", str(csv_path), "--out-json", str(json_path)])
    if not json_path.exists():
        return {"exit": code}
    return {"exit": code, **file_digests(csv_path, json_path)}


def report_digests(reports: list, workdir: Path) -> dict:
    """Report digests and search counts of reports made in process,
    written as ``geoknot verify`` writes them."""
    csv_path, json_path = workdir / "report.csv", workdir / "report.json"
    write_report_csv(str(csv_path), reports)
    write_summary_json(str(json_path), reports)
    return file_digests(csv_path, json_path)


def file_digests(csv_path: Path, json_path: Path) -> dict:
    """The digests and search counts of a written CSV and summary JSON."""
    summary = json.loads(json_path.read_text(encoding="utf-8"))
    counts = []
    for rep in summary["reports"]:
        rep["summary"].pop("runtime_s")
        sizes = rep["summary"].get("sizes", {})
        counts.append({
            "evaluations": rep["summary"].pop("evaluations", None),
            **{key: sizes.pop(key, None) for key in COUNT_KEYS},
        })
    canonical = json.dumps(summary, sort_keys=True).encode("utf-8")
    return {
        "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        "summary_sha256": hashlib.sha256(canonical).hexdigest(),
        "counts": counts,
    }


def _pinned() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", RUNS, ids=[" ".join(argv) for argv in RUNS])
def test_report_matches_its_pinned_digests(argv, tmp_path):
    corpus = _pinned()
    want = {run["argv"]: run for run in corpus["runs"]}[" ".join(argv)]
    got = digests(argv, tmp_path)
    assert got == {k: want[k] for k in want if k != "argv"}, (
        f"report digests moved; pinned under {corpus['versions']}, "
        f"running under {versions()}"
    )


def assert_pinned(criterion: str, reports: list, workdir: Path):
    """The reports of an acceptance criterion match their pinned digests."""
    corpus = _pinned()
    want = {pin["criterion"]: pin for pin in corpus["criteria"]}[criterion]
    assert report_digests(reports, workdir) == {k: want[k] for k in want if k != "criterion"}, (
        f"{criterion}: report digests moved; pinned under {corpus['versions']}, "
        f"running under {versions()}"
    )


def test_corpus_pins_every_run():
    corpus = _pinned()
    assert [run["argv"] for run in corpus["runs"]] == [" ".join(argv) for argv in RUNS]
    assert [pin["criterion"] for pin in corpus["criteria"]] == list(CRITERIA)


def moved(pinned: list, fresh: list, name: str = "argv") -> list:
    """(name, keys) for each run of ``fresh`` whose pinned values differ
    from those of the run of the same ``name`` in ``pinned``: the keys of
    PINNED_KEYS that moved, in that order.  A run that ``pinned`` lacks
    moves every key it has."""
    old = {run[name]: run for run in pinned}
    out = []
    for run in fresh:
        before = old.get(run[name], {})
        keys = [key for key in PINNED_KEYS if before.get(key) != run.get(key)]
        if keys:
            out.append((run[name], keys))
    return out


def write_corpus(workdir: Path):
    import test_acceptance

    pinned = _pinned() if CORPUS.exists() else {"runs": [], "criteria": []}
    runs = [{"argv": " ".join(argv), **digests(argv, workdir)} for argv in RUNS]
    criteria = []
    for test in (test_acceptance.test_criterion_01_unconstrained_upper,
                 test_acceptance.test_criterion_02_unconstrained_lower,
                 test_acceptance.test_criterion_07_constrained_upper,
                 test_acceptance.test_criterion_08_constrained_lower):
        test(lambda criterion, reports: criteria.append(
            {"criterion": criterion, **report_digests(reports, workdir)}))
    CORPUS.write_text(json.dumps({"versions": versions(), "runs": runs, "criteria": criteria},
                                 indent=1) + "\n", encoding="utf-8")
    for name, keys in (moved(pinned["runs"], runs)
                       + moved(pinned.get("criteria", []), criteria, "criterion")):
        print(f"{name}: {', '.join(keys)} moved")


def test_moved_names_each_changed_key():
    pinned = [
        {"argv": "a", "exit": 0, "csv_sha256": "c", "summary_sha256": "s", "counts": [1]},
        {"argv": "b", "exit": 2},
        {"argv": "gone", "exit": 0},
    ]
    fresh = [
        {"argv": "a", "exit": 0, "csv_sha256": "c", "summary_sha256": "t", "counts": [2]},
        {"argv": "b", "exit": 2},
        {"argv": "new", "exit": 1, "csv_sha256": "c", "summary_sha256": "s", "counts": []},
    ]
    assert moved(pinned, fresh) == [
        ("a", ["summary_sha256", "counts"]),
        ("new", ["exit", "csv_sha256", "summary_sha256", "counts"]),
    ]
    assert moved(fresh, fresh) == []
    # A run that stops writing its report moves its digests too.
    assert moved(pinned[:1], [{"argv": "a", "exit": 2}]) == [
        ("a", ["exit", "csv_sha256", "summary_sha256", "counts"])]
    # Criteria are named by their criterion.
    assert moved([{"criterion": "c", "counts": [1]}], [{"criterion": "c", "counts": [2]}],
                 "criterion") == [("c", ["counts"])]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp))
