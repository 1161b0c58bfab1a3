"""The CSV readers' numpy fast path against their line loops.

``read_points_csv`` and ``read_graph_csv`` parse a plain file with one
``np.loadtxt`` pass and hand any other file to the line loop.  On every
file, generated ones with odd tokens, blank lines and CRLF included,
the reader must return what the loop returns, bit for bit, or raise the
loop's message.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geoknot import graph, surfaces
from geoknot.graph import read_graph_csv
from geoknot.surfaces import read_points_csv

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
