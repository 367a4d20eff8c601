"""Hypothesis fuzzing of the parsers and the CLI over arbitrary small inputs.

The files are arbitrary bytes, text drawn from the characters the two file
formats use, or edge lines over a few vertex ids, so that small valid graphs
(and nearly valid ones) come up often enough to reach the solvers.
"""

import contextlib
import io
import os

from hypothesis import HealthCheck, given, settings, strategies as st

from riccikit.cli import main
from riccikit.graphs import Graph, GraphError, RotationSystem, parse_edgelist, parse_rotation

_FORMAT_TEXT = st.text(alphabet="0123 :#\n", max_size=40)
_EDGE_LINES = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=10).map(
    lambda edges: "".join(f"{u} {v}\n" for u, v in edges)
)
_FILES = st.one_of(st.binary(max_size=40), (_FORMAT_TEXT | _EDGE_LINES).map(str.encode))


@settings(max_examples=150, deadline=None)
@given(_FORMAT_TEXT | st.text(max_size=40))
def test_parse_edgelist_accepts_or_raises_graph_error(text):
    try:
        g = parse_edgelist(text)
    except GraphError:
        return
    assert isinstance(g, Graph)


@settings(max_examples=150, deadline=None)
@given(_FORMAT_TEXT | st.text(max_size=40))
def test_parse_rotation_accepts_or_raises_graph_error(text):
    try:
        g, rot = parse_rotation(text)
    except GraphError:
        return
    assert isinstance(g, Graph) and isinstance(rot, RotationSystem)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_FILES)
def test_cli_curvature_on_arbitrary_files(data, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(data)
    code, err = _run(["curvature", "--input", str(path), "--jobs", "1"])
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_FILES)
def test_cli_verify_on_arbitrary_files(data, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(data)
    code, err = _run(["verify", "--input", str(path)])
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error: ")


_TRIANGLE = b"0 1\n1 2\n2 0\n"
_NAMES = st.text(alphabet="ab._", min_size=1, max_size=4).filter(lambda n: n not in (".", ".."))
_RELATIVE_OUT = st.tuples(
    st.lists(_NAMES, min_size=1, max_size=3), st.sampled_from(["", ".csv", ".json"])
).map(lambda parts: os.path.join(*parts[0]) + parts[1])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.just(_TRIANGLE) | _FILES, out=_RELATIVE_OUT)
def test_cli_curvature_out_on_arbitrary_paths(data, out, tmp_path, monkeypatch):
    # Relative paths resolve under tmp_path; names may repeat across examples,
    # so a path can run into an existing file or directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input").write_bytes(data)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["curvature", "--input", "input", "--jobs", "1", "--out", out])
    assert code in (0, 2)
    assert (code == 2) == stderr.getvalue().startswith("error: ")
    assert "Traceback" not in stdout.getvalue() + stderr.getvalue()
