import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rigicert import cli
from rigicert.cli import main
from rigicert.decomposition import BlockSplitDetail, StepRecord, decompose_unique
from rigicert.errors import InternalInvariantError
from rigicert.graph import MAX_DECLARED_VERTICES, Graph, edge, format_graph, is_m_connected
from rigicert.rigidity import internal_vertices, is_laman, mi_proper_subgraphs

from conftest import g5, henneberg_ii_from_k33, henneberg_ii_plus_triangle, k4, k33, prism, triangle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


def report_of(out: str) -> dict:
    report = json.loads(out)
    assert set(report) == {"command", "inputs", "result", "timing_ms"}
    return report


def test_check_k33(tmp_path, capsys):
    path = write_graph(tmp_path, k33())
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    result = report_of(out)["result"]
    assert result == {
        "free": 0,
        "independent": True,
        "laman": True,
        "basic": True,
        "three_connected": True,
        "planar": False,
    }


def test_check_k4_and_triangle(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "check", write_graph(tmp_path, k4()))
    result = report_of(out)["result"]
    assert result["free"] == -1 and not result["laman"]
    code, out, _ = run_cli(capsys, "check", write_graph(tmp_path, triangle()))
    result = report_of(out)["result"]
    assert result["free"] == 0 and result["laman"]


def test_check_plays_one_pebble_game(tmp_path, capsys, pebble_games):
    for g in (k33(), prism(), k4()):
        code, _, _ = run_cli(capsys, "check", write_graph(tmp_path, g))
        assert code == 0
    assert [g.n for g in pebble_games] == [6, 6, 4]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 2\ne 0 0\n")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1 and "parse error" in err and out == ""
    code, out, err = run_cli(capsys, "check", str(tmp_path / "missing.txt"))
    assert code == 1
    # refused before the isolated vertices are filled in, so fast and small
    bad.write_text(f"n {MAX_DECLARED_VERTICES + 1}\ne 0 1\n")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("parse error: line 1: ") and err.count("\n") == 1


def test_precondition_exit_code(tmp_path, capsys):
    code, out, err = run_cli(capsys, "decompose", write_graph(tmp_path, k4()))
    assert code == 2 and "precondition failed" in err
    code, _, _ = run_cli(capsys, "reduce", write_graph(tmp_path, g5()))
    assert code == 2
    code, _, _ = run_cli(capsys, "census", "11")
    assert code == 2


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise InternalInvariantError("invariant broke")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code, out, err = run_cli(capsys, "check", write_graph(tmp_path, k33()))
    assert code == 3 and out == ""
    assert err == "internal error: invariant broke\n"


def test_closed_stdout_exit_code():
    # the report goes to a pipe whose reading end is closed, as under `| head -c 10`
    src = str(Path(cli.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rigicert.cli", "census", "7"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    # one line and no traceback
    assert proc.returncode == 4
    assert proc.stderr == "output error: the report could not be written: Broken pipe\n"


def _planar_henneberg_ii_from_prism(seed: int, n: int) -> Graph:
    """The prism grown to n vertices by seeded face-preserving Henneberg II
    moves: the new vertex x replaces the edge uv of a face F, and its third
    edge goes to a vertex w of F, splitting F in two.  Faces are cyclic vertex
    lists of a plane embedding, so every result is planar."""
    rng = random.Random(seed)
    g = prism()
    faces = [[0, 1, 2], [5, 4, 3], [0, 3, 4, 1], [1, 4, 5, 2], [2, 5, 3, 0]]
    while g.n < n:
        face = faces.pop(rng.randrange(len(faces)))
        i = rng.randrange(len(face))
        face = face[i:] + face[:i]  # face = [u, v, a1, ..., ak]
        u, v, rest = face[0], face[1], face[2:]
        j = rng.randrange(len(rest))
        w, x = rest[j], g.n
        other = next(f for f in faces if any({f[k], f[k - 1]} == {u, v} for k in range(len(f))))
        k = next(k for k in range(len(other)) if {other[k], other[k - 1]} == {u, v})
        other.insert(k, x)  # between other[k - 1] and other[k]
        faces += [[x, v] + rest[: j + 1], [x, w] + rest[j + 1 :] + [u]]
        g = Graph(g.vertices | {x}, (g.edges - {edge(u, v)}) | {edge(u, x), edge(v, x), edge(w, x)})
    return g


def test_check_and_classify_above_12_vertices(tmp_path, capsys):
    g = henneberg_ii_from_k33(seed=14, n=14)
    assert is_laman(g) and is_m_connected(g, 3)
    path = write_graph(tmp_path, g)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    result = report_of(out)["result"]
    assert result["laman"] and result["three_connected"] and result["planar"] is False
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    result = report_of(out)["result"]
    assert result["verdict"] == "NOT_RS_CONJECTURED"
    assert [w["graph"] for w in result["witnesses"]] == [format_graph(g, single_line=True)]


def test_planar_check_and_classify_above_12_vertices(tmp_path, capsys):
    g = _planar_henneberg_ii_from_prism(seed=13, n=15)
    assert is_laman(g) and is_m_connected(g, 3)
    path = write_graph(tmp_path, g)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    result = report_of(out)["result"]
    assert result["laman"] and result["three_connected"] and result["planar"] is True
    assert result["basic"] is False
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    assert report_of(out)["result"]["verdict"] == "NOT_RS_PROVEN_PLANAR"


def test_census_counts(capsys):
    code, out, _ = run_cli(capsys, "census", "6")
    assert code == 0
    result = report_of(out)["result"]
    assert result["laman_count"] == 13 and result["basic_count"] == 1
    assert len(result["laman_catalog"]) == 13
    # catalog entries round-trip through the text format byte for byte
    from rigicert.graph import format_graph, parse_graph
    for line in result["laman_catalog"]:
        g = parse_graph(line)
        assert g.n == 6
        assert format_graph(g, single_line=True) == line


def test_decompose_g5(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "decompose", write_graph(tmp_path, g5()))
    result = report_of(out)["result"]
    assert len(result["blocks"]) == 2
    redundant = [b for b in result["blocks"] if b["redundant_edges"]]
    assert len(redundant) == 1
    assert redundant[0]["redundant_edges"] == [[0, 1]]


def test_classify_prism(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "classify", write_graph(tmp_path, prism()))
    result = report_of(out)["result"]
    assert result["verdict"] == "NOT_RS_PROVEN_PLANAR"
    assert len(result["witnesses"]) == 1


def test_classify_one_edge(tmp_path, capsys):
    path = tmp_path / "k2.txt"
    path.write_text("n 2\ne 0 1\n")
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0 and report_of(out)["result"] == {"verdict": "QS", "witnesses": []}


def test_reduce_k33_terminal(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "reduce", write_graph(tmp_path, k33()))
    result = report_of(out)["result"]
    assert result["terminal_kind"] == "BASIC" and result["steps"] == []


def test_reduce_nontrivial_trace(tmp_path, capsys, census_by_n):
    from rigicert.graph import is_m_connected, parse_graph
    from rigicert.rigidity import is_basic

    g = next(
        h
        for h in census_by_n[7].representatives
        if is_m_connected(h, 3) and not is_basic(h)
    )
    code, out, _ = run_cli(capsys, "reduce", write_graph(tmp_path, g))
    assert code == 0
    result = report_of(out)["result"]
    assert result["steps"]
    assert {s["kind"] for s in result["steps"]} <= {"SURGERY", "CONTRACTION", "BLOCK_SPLIT"}
    assert all(t["kind"] in ("BASIC", "DOUBLET") for t in result["terminals"])
    for step in result["steps"]:
        parse_graph(step["input_graph"])
        for text in step["output_graphs"]:
            parse_graph(text)


def test_reduce_above_12_vertices(tmp_path, capsys):
    code, out, err = run_cli(capsys, "reduce", write_graph(tmp_path, henneberg_ii_plus_triangle()))
    assert code == 0, err
    result = report_of(out)["result"]
    assert [s["kind"] for s in result["steps"]] == ["SURGERY"]
    assert result["terminal_kind"] == "DOUBLET" and len(result["terminals"]) == 1


def test_reduce_refuses_a_tie_above_12_vertices(tmp_path, capsys):
    # two 13-vertex Henneberg II graphs joined by three edges: both maximal MI
    # subgraphs have 13 vertices and internal ones, so the tie-break needs a
    # canonical form past its cap
    a, b = henneberg_ii_from_k33(3, 13), henneberg_ii_from_k33(4, 13)
    joined = {(u + 13, v + 13) for u, v in b.edges} | {(0, 13), (1, 14), (2, 15)}
    g = Graph(range(26), a.edges | joined)
    assert is_laman(g) and is_m_connected(g, 3)
    maximal = mi_proper_subgraphs(g)
    assert [len(w) for w in maximal] == [13, 13]
    assert all(internal_vertices(g, w) for w in maximal)
    code, out, err = run_cli(capsys, "reduce", write_graph(tmp_path, g))
    assert (code, out) == (2, "")
    assert err == "precondition failed: canonical form supports at most 12 vertices\n"


def test_block_split_step_json():
    # no known input reaches the reduction's block split, so render a
    # hand-built record: "recursed_into" repeats the record's output graphs
    decomposition = decompose_unique(g5())
    outputs = tuple(b.core() for b in decomposition.blocks if not b.redundant_flags)
    record = StepRecord(g5(), outputs, BlockSplitDetail(decomposition))
    assert cli.step_json(record) == {
        "kind": "BLOCK_SPLIT",
        "input_graph": "n 5 e 0 2 e 0 3 e 0 4 e 1 2 e 1 3 e 1 4 e 2 3",
        "output_graphs": ["n 3 e 0 1 e 0 4 e 1 4"],
        "detail": {
            "blocks": [
                {
                    "graph": "n 4 e 0 1 e 0 2 e 0 3 e 1 2 e 1 3 e 2 3",
                    "virtual_edges": [[0, 1]],
                    "redundant_edges": [[0, 1]],
                },
                {
                    "graph": "n 3 e 0 1 e 0 4 e 1 4",
                    "virtual_edges": [[0, 1]],
                    "redundant_edges": [],
                },
            ],
            "separation_history": [[0, 1]],
            "recursed_into": ["n 3 e 0 1 e 0 4 e 1 4"],
        },
    }


def test_k33_default_pipeline(capsys):
    code, out, _ = run_cli(capsys, "k33", "--prime-bound", "500")
    assert code == 0
    result = report_of(out)["result"]
    assert result["eliminant_degree"] == 20
    degrees = sorted((f["degree"], f["multiplicity"]) for f in result["factors"])
    assert degrees == [(1, 6), (6, 1), (8, 1)]
    assert len(result["certificates"]) == 2
    assert all(c["verdict"] == "NOT_SOLUBLE" for c in result["certificates"])
    assert result["x1_branch"]["coincidence_obstructed"] is True
    f6 = next(f for f in result["factors"] if f["degree"] == 6)
    assert f6["coefficients"][-1] == "87733791129600"
    f8 = next(f for f in result["factors"] if f["degree"] == 8)
    assert f8["coefficients"][-1] == "19741148184576"


def test_k33_builds_every_polynomial_once(capsys, validating_constructions):
    # arithmetic results skip the public constructors' validation
    code, out, _ = run_cli(capsys, "k33", "--prime-bound", "500")
    assert code == 0 and report_of(out)["result"]["eliminant_degree"] == 20
    assert validating_constructions == []


def test_k33_sieves_the_primes_once_for_every_factor(capsys, monkeypatch):
    import rigicert.algebra.solubility as solubility
    import rigicert.algebra.unipoly as unipoly

    bounds = []
    sieve = unipoly.primes_up_to

    def counting_sieve(bound):
        bounds.append(bound)
        return sieve(bound)

    monkeypatch.setattr(unipoly, "primes_up_to", counting_sieve)
    monkeypatch.setattr(solubility, "primes_up_to", counting_sieve)
    code, out, _ = run_cli(capsys, "k33", "--prime-bound", "500")
    assert code == 0 and len(report_of(out)["result"]["certificates"]) == 2
    assert bounds == [500]


def test_k33_degenerate_distances(capsys):
    code, out, _ = run_cli(capsys, "k33", "--distances", "1,1,1,1,1,4,9/16,9/4", "--prime-bound", "200")
    assert code == 0
    result = report_of(out)["result"]
    assert result["x1_branch"]["extends"] is True


PLANTED_POINTS = {
    1: (Fraction(0), Fraction(0)),
    2: (Fraction(1), Fraction(0)),
    3: (Fraction(1, 2), Fraction(2)),
    4: (Fraction(-1, 3), Fraction(1)),
    5: (Fraction(3, 2), Fraction(-1)),
    6: (Fraction(2), Fraction(3, 4)),
}


def planted_distances() -> str:
    from rigicert.algebra.systems import planted_k33_distances

    return ",".join(str(v) for v in planted_k33_distances(PLANTED_POINTS))


def test_k33_planted_distances_leave_planted_root(capsys):
    from rigicert.algebra.unipoly import UniPoly

    code, out, _ = run_cli(capsys, "k33", "--distances", planted_distances(), "--prime-bound", "50")
    assert code == 0
    result = report_of(out)["result"]
    planted_x3 = PLANTED_POINTS[3][0]
    vanishing = [
        f
        for f in result["factors"]
        if UniPoly([int(c) for c in f["coefficients"]]).evaluate(planted_x3) == 0
    ]
    assert vanishing


def ci_twenty_digit_distances() -> str:
    """The eight seeded 20-digit distances of CI's k33 time limit step."""
    r = random.Random(1)
    return ",".join(f"{r.randrange(10**19, 10**20)}/{r.randrange(10**19, 10**20)}" for _ in range(8))


@pytest.mark.parametrize(
    "distances, prime_bound, digest",
    [
        (None, "10000", "602d8366c83d102d0dcf8bdfc7c687f7b8746ca3e1ee5bd5f60382b029d81210"),
        (ci_twenty_digit_distances, "100", "85fa326142d8007e5a1f011e92521a2b43ac13b80ecbdda4224b7aa25b871b8c"),
        (planted_distances, "50", "97e48b9a0502550cca7cab4e52fe80cb5b41a8885cf7f1cf425f0676a647eeb3"),
    ],
    ids=["published", "ci-20-digit", "planted"],
)
def test_k33_reports_are_pinned(capsys, distances, prime_bound, digest):
    # the sha256 of the printed report up to its last field, `timing_ms`
    argv = ["k33", "--prime-bound", prime_bound]
    if distances is not None:
        argv += ["--distances", distances()]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    head, sep, _ = out.rpartition(',"timing_ms":')
    assert sep and hashlib.sha256(head.encode()).hexdigest() == digest


def test_k33_bad_distances(capsys):
    code, _, err = run_cli(capsys, "k33", "--distances", "1,2,3")
    assert code == 1
    # Fraction would expand "1e10000000" to a 33-million-bit integer
    code, out, err = run_cli(capsys, "k33", "--distances", "1e2,1,1,1,1/4,4,9/16,9/4")
    assert code == 1 and out == "" and err.startswith("parse error: ") and err.count("\n") == 1
    code, _, err = run_cli(capsys, "k33", "--distances", "1,1,1,1,-1,4,9/16,9/4")
    assert code == 2  # nonpositive distance is a precondition failure


def test_k33_distance_digit_limit(capsys):
    limit = cli.MAX_DISTANCE_DIGITS
    longest = f"{10**limit - 1}/{10**limit - 2}"
    code, out, err = run_cli(capsys, "k33", "--distances", f"{longest},1,1,1,1/4,4,9/16,9/4", "--prime-bound", "50")
    assert code == 0 and err == ""
    assert report_of(out)["result"]["distances"][0] == longest
    for token in (f"{10**limit + 7}/{10**limit + 3}", f"1/{10**limit}", "0." + "1" * limit, f"-{10**limit}"):
        code, out, err = run_cli(capsys, "k33", "--distances", f"1,1,1,1,1/4,4,9/16,{token}")
        assert code == 1 and out == ""
        assert err == f"parse error: distance d8 has a numerator or denominator of more than {limit} digits\n"


def test_k33_eight_distances_of_twenty_digits(capsys):
    # the slowest seeded vector measured at 20 digits; CI runs it within 10 s
    rng = random.Random(1)
    distances = [f"{rng.randrange(10**19, 10**20)}/{rng.randrange(10**19, 10**20)}" for _ in range(8)]
    code, out, err = run_cli(capsys, "k33", "--distances", ",".join(distances), "--prime-bound", "100")
    assert code == 0 and err == ""
    result = report_of(out)["result"]
    assert [Fraction(d) for d in result["distances"]] == [Fraction(d) for d in distances]
    assert [(f["degree"], f["multiplicity"]) for f in result["factors"]] == [(1, 2), (8, 1), (16, 1)]


def test_k33_prime_bound_limit(capsys):
    code, out, err = run_cli(capsys, "k33", "--prime-bound", "1000000000000")
    assert code == 2 and out == ""
    assert err == "precondition failed: prime bound 1000000000000 exceeds the limit 1000000\n"


@pytest.mark.parametrize("bound", ["1", "0", "-5"])
def test_k33_prime_bound_below_two(capsys, bound):
    code, out, err = run_cli(capsys, "k33", "--prime-bound", bound)
    assert code == 2 and out == ""
    assert err == f"precondition failed: prime bound {bound} is below 2, the least prime\n"


@pytest.mark.parametrize("bound", ["0", "1000001"])
def test_k33_prime_bound_is_refused_before_elimination(capsys, monkeypatch, bound):
    import rigicert.algebra.solubility as solubility
    import rigicert.algebra.systems as systems

    def no_algebra(*args):
        raise AssertionError("the elimination ran before the prime bound was checked")

    monkeypatch.setattr(systems, "k33_system", no_algebra)
    monkeypatch.setattr(systems, "square_eliminate_y", no_algebra)
    monkeypatch.setattr(solubility, "_certificate", no_algebra)
    code, out, err = run_cli(capsys, "k33", "--prime-bound", bound)
    assert code == 2 and out == ""
    assert err.startswith(f"precondition failed: prime bound {bound} ")


def test_graph_commands_do_not_import_algebra():
    src = str(Path(cli.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import rigicert.cli; print('rigicert.algebra' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_reports_deterministic(tmp_path, capsys):
    path = write_graph(tmp_path, k33())
    _, out1, _ = run_cli(capsys, "check", path)
    _, out2, _ = run_cli(capsys, "check", path)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing_ms")
    r2.pop("timing_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_pretty_flag(capsys):
    code, out, _ = run_cli(capsys, "--pretty", "census", "3")
    assert code == 0 and out.startswith("{\n")


def test_main_calls_share_one_parser_and_no_state(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_k33", lambda args: {"prime_bound": args.prime_bound})
    cli.build_parser.cache_clear()
    code, out, _ = run_cli(capsys, "--pretty", "k33", "--prime-bound", "5")
    assert code == 0 and out.startswith("{\n")
    assert report_of(out)["inputs"] == {"prime_bound": 5, "tol": 1e-9}
    with pytest.raises(SystemExit) as usage_error:
        main(["k33", "--prime-bound", "five"])
    assert usage_error.value.code == 2 and "invalid int value" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "k33")
    assert code == 0 and not out.startswith("{\n")
    assert report_of(out)["inputs"] == {"prime_bound": 10000, "tol": 1e-9}
    assert report_of(out)["result"] == {"prime_bound": 10000}
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
