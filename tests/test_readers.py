"""The CSV readers' numpy fast path against their line loops, and their
binary twins against the CSV.

``read_points_csv`` and ``read_graph_csv`` parse a plain file with one
``np.loadtxt`` pass and hand any other file to the line loop.  On every
file, generated ones with odd tokens, blank lines and CRLF included,
the reader must return what the loop returns, bit for bit, or raise the
loop's message.  A file that ``write_points_csv`` or ``write_graph_csv``
wrote is loaded from its twin, which must give what the CSV gives, bit
for bit; a twin that does not belong to the file and its points must be
ignored.
"""

import contextlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import split_graphs
from test_paths import tied_graphs
from geoknot import graph, surfaces, twin
from geoknot.graph import build_graph, graph_from_edges, read_graph_csv, write_graph_csv
from geoknot.surfaces import (
    SampleSet, read_points_csv, sample_surface, sphere, write_points_csv,
)
from geoknot.validation import perturb_graph_weights

# Odd spellings of a number that Python's int/float and numpy both read,
# and ones only Python reads (digit separators).
INT_FORMS = ["{}", "{:+}", " {} ", "{}\t", "00{}"]
PY_ONLY_INT = "0_{}"
FLOAT_FORMS = ["{!r}", "{:.17g}", "{:.3e}", " {!r} ", "{:+}", "{!r}\t"]
BAD_TOKENS = ["", "x", "1.5.2", "0x10", "--1", "1 2", "1,", "#"]


@st.composite
def token(draw, value, forms, special):
    """``value`` spelt one of the ``forms`` mostly, else a special or
    Python-only spelling, or a token no reader accepts."""
    pick = draw(st.integers(0, 9))
    if pick < 6:
        return draw(st.sampled_from(forms)).format(value)
    if pick < 9:
        return draw(st.sampled_from(special))
    return draw(st.sampled_from(BAD_TOKENS))


def int_token(value):
    return token(value, INT_FORMS, [PY_ONLY_INT.format(value), "-0"])


def float_token(value):
    return token(value, FLOAT_FORMS, ["inf", "-inf", "nan", "-0.0", "1_0.5", "1e400", "1e-400"])


def odd_line():
    """A line that is not a plain row: blank, whitespace, a comment."""
    return st.sampled_from(["", " ", "\t", "# note", "#", "  # indented"])


@st.composite
def file_text(draw, rows, header):
    """Rows joined into a file, with odd lines mixed in sometimes, an
    optional inline comment, and LF or CRLF line ends."""
    lines = list(rows)
    if draw(st.integers(0, 3)) == 0:
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(odd_line()))
    if lines and draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] += " # inline"
    if header is not None:
        lines.insert(0, header)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    trailing = draw(st.sampled_from(["", end]))
    return end.join(lines) + trailing


@st.composite
def graph_files(draw):
    n = draw(st.integers(2, 8))
    edges = draw(st.lists(
        st.tuples(st.integers(-1, n), st.integers(-1, n), st.floats(0.01, 5.0)),
        max_size=12,
    ))
    rows = []
    for i, j, w in edges:
        rows.append(",".join([draw(int_token(i)), draw(int_token(j)), draw(float_token(w))]))
    header = draw(st.sampled_from([
        "# kind=ball r=1",
        "# kind=annulus r=0.5 alpha=0.25",
        " #kind=ball r=2.5 ",
        "# kind=annulus r=1",
        "# r=1",
        None,
    ]))
    return draw(file_text(rows, header)), n


@st.composite
def points_files(draw):
    dim = draw(st.integers(1, 3))
    values = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1.0])
    rows = []
    for point in draw(st.lists(st.lists(values, min_size=dim, max_size=dim), max_size=8)):
        fields = [draw(float_token(v)) for v in point]
        if draw(st.integers(0, 9)) == 0:
            fields = fields[:-1] if len(fields) > 1 else fields + ["1"]
        rows.append(",".join(fields))
    header = draw(st.sampled_from([None, ",".join(f"x{k}" for k in range(dim))] * 3 + ["x,1"]))
    return draw(file_text(rows, header))


def write(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("reader") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def read_text(path):
    """The text as the readers see it, newlines translated."""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def outcome(read):
    """What a reader call gives: its arrays as bytes, or its message."""
    try:
        result = read()
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(result, np.ndarray):
        return ("points", result.shape, result.tobytes())
    return ("graph", result.n, result.kind, result.r, result.alpha,
            result.indptr.tobytes(), result.indices.tobytes(), result.weights.tobytes())


def line_points(n):
    """n distinct points on a line, for graph files on nodes 0..n-1."""
    return np.arange(2.0 * n).reshape(n, 2)


class TestGraphReader:
    @given(graph_files(), st.booleans())
    def test_matches_line_loop(self, tmp_path_factory, case, coincide):
        text, n = case
        path = write(tmp_path_factory, text)
        points = line_points(n)
        if coincide:
            # Nodes 0 and 1 coincide, so edge 0,1 is rejected.
            points[1] = points[0]
        assert outcome(lambda: read_graph_csv(path, points)) == outcome(
            lambda: graph._graph_by_line(path, read_text(path), points)
        )

    @given(st.lists(st.tuples(st.sampled_from(INT_FORMS), st.sampled_from(FLOAT_FORMS)),
                    min_size=1, max_size=6),
           st.sampled_from(["\n", "\r\n"]))
    def test_plain_files_skip_the_loop(self, tmp_path_factory, forms, end):
        rows = [
            f"{int_form.format(k)},{int_form.format(k + 1)},{float_form.format(0.1 + k / 3)}"
            for k, (int_form, float_form) in enumerate(forms)
        ]
        path = write(tmp_path_factory, end.join(["# kind=ball r=1", *rows]) + end)
        points = line_points(len(rows) + 1)
        expected = outcome(lambda: graph._graph_by_line(path, read_text(path), points))
        with mock.patch.object(graph, "_graph_by_line", side_effect=AssertionError("loop")):
            assert outcome(lambda: read_graph_csv(path, points)) == expected

    @pytest.mark.parametrize("text, message", [
        ("# kind=ball r=1\n0,1,0.5 # near\n", ":2: expected i,j,weight, got '0,1,0.5 # near'"),
        ("# kind=ball r=1\n0,1,0.5\n1,2,0.5#\n", ":3: expected i,j,weight"),
        ("# kind=ball r=1\n0,99999999999999999999,0.5\n", ":2: expected i,j,weight"),
    ])
    def test_rejected_rows(self, tmp_path, text, message):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_graph_csv(str(path), line_points(3))
        assert str(exc.value).startswith(f"{path}{message}")

    def test_tokens_only_python_reads(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("# kind=ball r=1\n+0, 1_0 ,2_5.0\n")
        g = read_graph_csv(str(path), line_points(11))
        assert g.neighbors(0)[0].tolist() == [10]
        assert g.neighbors(0)[1].tolist() == [25.0]


class TestPointsReader:
    @given(points_files())
    def test_matches_line_loop(self, tmp_path_factory, text):
        path = write(tmp_path_factory, text)
        assert outcome(lambda: read_points_csv(path)) == outcome(
            lambda: surfaces._points_by_line(path, read_text(path))
        )

    @given(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2), min_size=1, max_size=6),
           st.sampled_from(FLOAT_FORMS), st.booleans(), st.sampled_from(["\n", "\r\n"]))
    def test_plain_files_skip_the_loop(self, tmp_path_factory, points, form, header, end):
        rows = [",".join(form.format(v) for v in p) for p in points]
        lines = (["x0,x1"] if header else []) + rows
        path = write(tmp_path_factory, end.join(lines) + end)
        expected = outcome(lambda: surfaces._points_by_line(path, read_text(path)))
        with mock.patch.object(surfaces, "_points_by_line", side_effect=AssertionError("loop")):
            assert outcome(lambda: read_points_csv(path)) == expected

    @pytest.mark.parametrize("text, message", [
        ("0,0\n1,0 # near\n", ":2: expected numeric coordinates, got '1,0 # near'"),
        ("x0,x1\n0,0\n1,0#\n", ":3: expected numeric coordinates"),
    ])
    def test_inline_comment_rejected(self, tmp_path, text, message):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_points_csv(str(path))
        assert str(exc.value).startswith(f"{path}{message}")

    def test_tokens_only_python_reads(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x0,x1\n1_0, +2\n")
        assert read_points_csv(str(path)).tolist() == [[10.0, 2.0]]


@st.composite
def twin_graphs(draw):
    """A split graph, a tied graph whose first edge may weigh 1e-300, or
    a split graph with its weights perturbed."""
    pick = draw(st.sampled_from(["split", "tied", "perturbed"]))
    if pick == "tied":
        g = draw(tied_graphs())
        ii, jj, ww = g.edge_list()
        if len(ww) and draw(st.booleans()):
            ww = ww.copy()
            ww[0] = 1e-300
        return graph_from_edges(g.points, g.kind, g.r, g.alpha, lambda *_: (ii, jj, ww))
    g = draw(split_graphs())
    if pick == "perturbed":
        g = perturb_graph_weights(g, draw(st.floats(-0.5, 3.0)))
    return g


def write_files(directory, g):
    """Points and graph files, each with its twin, for g."""
    pts, path = str(directory / "pts.csv"), str(directory / "g.csv")
    write_points_csv(pts, SampleSet(g.points, sphere(1.0), "grid"))
    write_graph_csv(path, g)
    return pts, path


def loaded(pts, path, points=None):
    """What reading the two files gives: the arrays with their dtypes
    and bytes, kind, r and alpha, or a reader's message."""
    try:
        p = read_points_csv(pts) if points is None else points
        g = read_graph_csv(path, p)
    except ValueError as exc:
        return ("error", str(exc))
    arrays = (p, g.points, g.indptr, g.indices, g.weights)
    return (g.kind, g.r, g.alpha, *((a.dtype.str, a.shape, a.tobytes()) for a in arrays))


def without_twins(pts, path, points=None):
    for p in (pts, path):
        if os.path.exists(twin.twin_path(p)):
            os.remove(twin.twin_path(p))
    return loaded(pts, path, points)


class TestTwins:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(twin_graphs())
    def test_twin_equals_the_csv(self, tmp_path_factory, g):
        pts, path = write_files(tmp_path_factory.mktemp("twin"), g)
        refuse = AssertionError("the CSV was parsed")
        with contextlib.ExitStack() as stack:
            for module in (surfaces, graph):
                for name in ("_csv_text", "_loadtxt_rows"):
                    stack.enter_context(mock.patch.object(module, name, side_effect=refuse))
            with_twins = loaded(pts, path)
        assert with_twins == without_twins(pts, path)
        assert with_twins[0] != "error"

    def test_twin_read_holds_no_csv(self, tmp_path):
        """The CSV is only hashed, a block at a time, when its twin is
        taken: reading a graph file of over 1 MB from its twin peaks
        below the file's size."""
        sample = sample_surface(sphere(1.0), "uniform-random", 3000, 3)
        g = build_graph(sample, kind="ball", r=0.3)
        _, path = write_files(tmp_path, g)
        size = os.path.getsize(path)
        assert size >= 2**20
        tracemalloc.start()
        try:
            read = read_graph_csv(path, g.points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(read.weights, g.weights)
        assert peak < size

    @staticmethod
    def flip_byte(path, at):
        with open(path, "r+b") as fh:
            fh.seek(at)
            byte = fh.read(1)[0]
            fh.seek(at)
            fh.write(bytes([byte ^ 0x01]))

    @staticmethod
    def forge(path, tag, arrays, dtypes, points=None):
        """Write ``arrays`` as the twin of ``path`` under the file's own
        key, with their digest recomputed."""
        key = twin.csv_key(tag, points)
        with open(path, "rb") as fh:
            key.update(fh.read())
        twin.write_twin(path, key.digest(), arrays, dtypes)

    @pytest.mark.parametrize("fault", [
        "edited graph", "edited points", "other points", "truncated graph twin",
        "truncated points twin", "flipped graph byte", "flipped points byte",
        "forged graph index", "forged graph weight", "forged points twin",
    ])
    def test_refused_twin_gives_the_csv_answer(self, tmp_path, fault):
        # Nodes 0-1-2 on a line and an isolated node 3.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 5.0]])
        g = graph_from_edges(points, "ball", 1.5, None,
                             lambda *_: ([0, 1], [1, 2], [1.0, 1.25]))
        pts, path = write_files(tmp_path, g)
        other = None
        if fault == "edited graph":
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("0,2,2\n")
        elif fault == "edited points":
            # Node 1 moves onto node 0, so the graph file fails to read.
            with open(pts, "r+", encoding="utf-8") as fh:
                text = fh.read().split("\n")
                text[2] = text[1]
                fh.seek(0)
                fh.write("\n".join(text))
        elif fault == "other points":
            other = points.copy()
            other[1] = other[0]
        elif fault.startswith("truncated"):
            target = twin.twin_path(path if "graph" in fault else pts)
            os.truncate(target, os.path.getsize(target) - 8)
        elif fault == "flipped graph byte":
            # The low byte of the first weight: still finite and positive.
            self.flip_byte(twin.twin_path(path), len(twin.MAGIC) + 64 + 3 * 8)
        elif fault == "flipped points byte":
            self.flip_byte(twin.twin_path(pts), os.path.getsize(twin.twin_path(pts)) - 1)
        elif fault.startswith("forged graph"):
            # An index out of range, or an infinite weight.
            indices, weights = g.indices.copy(), g.weights.copy()
            if fault.endswith("index"):
                indices[0] = g.n
            else:
                weights[-1] = np.inf
            self.forge(path, graph.GRAPH_TWIN, (weights, g.indptr, indices),
                       graph.GRAPH_DTYPES, points)
        else:
            forged = points.copy()
            forged[0, 0] = np.nan
            self.forge(pts, surfaces.POINTS_TWIN, (forged.shape, forged), surfaces.POINTS_DTYPES)
        with_twins = loaded(pts, path, other)
        want = without_twins(pts, path, other)
        assert with_twins == want
        if fault in ("edited points", "other points"):
            assert want == ("error", f"{path}:2: edge joins coincident points")
