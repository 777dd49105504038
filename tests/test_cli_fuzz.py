"""Hypothesis fuzzing of the graph parser and the graph subcommands.

Every input must end in a report or a named error: `main` returns one of
the documented exit codes and never lets a traceback through.
"""

import contextlib
import io
import itertools
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rigicert.cli import main
from rigicert.errors import ParseError
from rigicert.graph import Graph, format_graph, parse_graph

from conftest import k33
from oracles import henneberg_children_by_label

GRAPH_COMMANDS = ("check", "decompose", "classify", "reduce")
MAX_VERTICES = 30

tokens = st.one_of(
    st.sampled_from(["n", "e", "#", "\n", "x", "-1", "0", "1", "2", "3", "1.5", "e1", "nn", "\t"]),
    st.integers(-2, MAX_VERTICES + 5).map(str),
    st.text(alphabet="ne#0123456789 -\n", max_size=4),
)
token_streams = st.lists(tokens, max_size=40).map(" ".join)


@st.composite
def edge_sets(draw):
    """Any simple graph on up to 30 vertices, with labels below 40."""
    n = draw(st.integers(1, MAX_VERTICES))
    labels = draw(st.lists(st.integers(0, 39), min_size=n, max_size=n, unique=True))
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True)) if pairs else []
    return Graph(labels, edges)


def henneberg_child(g: Graph, i: int) -> Graph:
    """`henneberg_children_by_label(g)[i]`, built alone: the first C(n, 2)
    children are move I on each vertex pair, the next e (n - 2) move II on
    each edge and each third vertex."""
    new = max(g.vertices) + 1
    vertices = g.sorted_vertices()
    pairs = g.n * (g.n - 1) // 2
    if i < pairs:
        u, v = next(itertools.islice(itertools.combinations(vertices, 2), i, None))
        return Graph(g.vertices | {new}, g.edges | {(u, new), (v, new)})
    u, v = g.sorted_edges()[(i - pairs) // (g.n - 2)]
    z = [w for w in vertices if w not in (u, v)][(i - pairs) % (g.n - 2)]
    return Graph(g.vertices | {new}, (g.edges - {(u, v)}) | {(u, new), (v, new), (z, new)})


@st.composite
def laman_graphs(draw):
    """A Laman graph on up to 30 vertices grown from a triangle by Henneberg
    moves chosen by the draw, so that the reduction gets past its checks."""
    g = Graph(range(3), [(0, 1), (0, 2), (1, 2)])
    for _ in range(draw(st.integers(0, MAX_VERTICES - 3))):
        count = g.n * (g.n - 1) // 2 + g.e * (g.n - 2)  # the oracle's list length
        g = henneberg_child(g, draw(st.integers(0, count - 1)))
    return g


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exits(path: str) -> None:
    for command in GRAPH_COMMANDS:
        code, out, err = run([command, path])
        assert code in (0, 1, 2, 3), (command, code)
        assert "Traceback" not in err
        if code == 0:
            assert json.loads(out)["command"] == command and err == ""
        else:
            assert out == "" and err.count("\n") == 1


def test_henneberg_child_is_the_oracle_child():
    bowtie = Graph((2, 5, 9, 11), [(2, 5), (2, 9), (5, 9), (5, 11), (9, 11)])
    for g in (Graph(range(3), [(0, 1), (0, 2), (1, 2)]), bowtie, k33()):
        children = henneberg_children_by_label(g)
        assert [henneberg_child(g, i) for i in range(len(children))] == children


@given(token_streams)
@settings(max_examples=150, deadline=None)
def test_parse_graph_accepts_or_names_the_error(text):
    try:
        g = parse_graph(text)
    except ParseError:
        return
    assert parse_graph(format_graph(g)) == g


@given(token_streams)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_graph_commands_on_token_streams(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("tokens") / "g.txt"
    path.write_text(text)
    assert_clean_exits(str(path))


@given(st.one_of(edge_sets(), laman_graphs()))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_graph_commands_on_graph_files(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("graphs") / "g.txt"
    path.write_text(format_graph(g))
    assert_clean_exits(str(path))
