"""Command-line interface: deterministic JSON reports over the library.

Exit codes: 0 success, 1 parse failure, 2 precondition failure, 3 internal
invariant failure (a bug, reported as one line on stderr), 4 the report could
not be written (stdout closed, as by `rigicert census 8 | head -c 10`).  Reports
serialize with sorted keys so that byte-identical output (minus the timing
field) can be snapshot-tested.

The argument parser is built once per process, on the first `main` call, and
reused: building it costs far more than parsing one command line.  It binds no
handler; `main` dispatches subcommand `X` to the module's `cmd_X` by name.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from .decomposition import (
    BlockDecomposition,
    BlockSplitDetail,
    ContractionDetail,
    StepRecord,
    SurgeryDetail,
    decompose_unique,
    qs_classify,
    reduce_to_terminal,
)
from .errors import InputError, InternalInvariantError, ParseError
from .graph import Block, Graph, format_graph, freedom_number, is_m_connected, is_planar, parse_graph
from .rigidity import enumerate_laman, is_basic, is_independent, is_laman

if TYPE_CHECKING:
    # rigicert.algebra loads inside the k33 command only, so that the graph
    # commands do not pay its import time
    from .algebra.multipoly import MultiPoly
    from .algebra.solubility import SolubilityCertificate
    from .algebra.unipoly import UniPoly


def _edge_list(edges) -> list[list[int]]:
    return [list(e) for e in sorted(edges)]


def graph_json(g: Graph) -> str:
    return format_graph(g, single_line=True)


def fraction_json(f: Fraction) -> str:
    return str(f)


def multipoly_json(p: MultiPoly) -> dict:
    terms = [
        {"coefficient": fraction_json(c), "exponents": list(e)}
        for e, c in sorted(p.terms.items())
    ]
    return {"variables": list(p.variables), "terms": terms}


def unipoly_json(p: UniPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def block_json(b: Block) -> dict:
    return {
        "graph": graph_json(b.subgraph),
        "virtual_edges": _edge_list(b.virtual_edges),
        "redundant_edges": _edge_list(b.redundant_flags),
    }


def decomposition_json(d: BlockDecomposition) -> dict:
    return {
        "blocks": [block_json(b) for b in d.blocks],
        "separation_history": [list(ev.pair) for ev in d.events],
    }


def certificate_json(cert: SolubilityCertificate) -> dict:
    witness = None
    if cert.witness is not None:
        prime, multiset, rule = cert.witness
        witness = {"prime": prime, "degree_multiset": list(multiset), "rule": rule}
    return {
        "polynomial": unipoly_json(cert.polynomial),
        "verdict": cert.verdict.value,
        "witness": witness,
        "rules_checked": list(cert.rules_checked),
        "prime_bound": cert.prime_bound,
    }


def step_json(record: StepRecord) -> dict:
    match record.detail:
        case SurgeryDetail(replaced, attachment):
            detail = {"replaced": graph_json(replaced), "attachment": list(attachment)}
        case ContractionDetail(e):
            detail = {"edge": list(e)}
        case BlockSplitDetail(decomposition):
            detail = {
                **decomposition_json(decomposition),
                "recursed_into": [graph_json(g) for g in record.output_graphs],
            }
    return {
        "kind": record.kind.value,
        "input_graph": graph_json(record.input_graph),
        "output_graphs": [graph_json(g) for g in record.output_graphs],
        "detail": detail,
    }


def _read_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return parse_graph(text)


def cmd_check(args) -> dict:
    g = _read_graph(args.graph_file)
    return {
        "free": freedom_number(g),
        "independent": is_independent(g),
        "laman": is_laman(g),
        "basic": is_basic(g),
        "three_connected": is_m_connected(g, 3),
        "planar": is_planar(g),
    }


def cmd_census(args) -> dict:
    census = enumerate_laman(args.n)
    # representatives are in laman_canonical_forms order
    rendered = dict(zip(census.laman_canonical_forms, map(graph_json, census.representatives)))
    return {
        "n": census.vertex_count,
        "laman_count": census.laman_count,
        "basic_count": census.basic_count,
        "laman_catalog": list(rendered.values()),
        "basic_catalog": [rendered[f] for f in census.basic_canonical_forms],
    }


def cmd_decompose(args) -> dict:
    g = _read_graph(args.graph_file)
    return decomposition_json(decompose_unique(g))


def cmd_classify(args) -> dict:
    g = _read_graph(args.graph_file)
    result = qs_classify(g)
    return {
        "verdict": result.verdict.value,
        "witnesses": [block_json(b) for b in result.witness_blocks],
    }


def cmd_reduce(args) -> dict:
    g = _read_graph(args.graph_file)
    trace = reduce_to_terminal(g)
    return {
        "steps": [step_json(s) for s in trace.steps],
        "terminal": graph_json(trace.terminal),
        "terminal_kind": trace.terminal_kind.value,
        "terminals": [
            {"graph": graph_json(t), "kind": k.value} for t, k in trace.terminals
        ],
    }


#: Most decimal digits a distance's numerator or denominator (in lowest terms)
#: may have.  The eliminant's coefficients grow by about 136 digits per
#: distance digit: about 2,700 digits at 20, 4,050 at 30, and past CPython's
#: 4,300-digit int-to-str limit at 35, where writing the report would fail.
#: Eight random distances of 20 digits over 20 take 2.2-2.6 s on 2 cores with
#: Python 3.11 (7 digits: 0.6 s).  Squared distances between points whose
#: coordinates are a/b with |a| <= 15 and b <= 5 have at most 7 digits.
MAX_DISTANCE_DIGITS = 20


def _parse_distances(text: str) -> list[Fraction]:
    from .algebra.multipoly import as_fraction

    parts = [p for chunk in text.split(",") for p in chunk.split()]
    # Fraction expands exponent notation, so one short token like "1e10000000"
    # would take seconds and megabytes; distances are integers, a/b or decimals.
    for p in parts:
        if "e" in p or "E" in p:
            raise ParseError(f"bad distance {p!r}: exponent notation is not accepted")
    try:
        values = [as_fraction(p) for p in parts]
    except (InputError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad distance list: {exc}")
    if len(values) != 8:
        raise ParseError(f"expected 8 distances, got {len(values)}")
    limit = 10**MAX_DISTANCE_DIGITS
    for i, v in enumerate(values, 1):
        if abs(v.numerator) >= limit or v.denominator >= limit:
            raise ParseError(
                f"distance d{i} has a numerator or denominator of more than "
                f"{MAX_DISTANCE_DIGITS} digits"
            )
    return values


def cmd_k33(args) -> dict:
    from .algebra.solubility import _certificate, _check_prime_bound
    from .algebra.systems import (
        K33_SPECIAL_DISTANCES,
        eliminate_to_x3,
        k33_system,
        square_eliminate_y,
        x1_branch_report,
    )
    from .algebra.unipoly import factor_over_q, primes_up_to

    distances = (
        list(K33_SPECIAL_DISTANCES)
        if args.distances is None
        else _parse_distances(args.distances)
    )
    _check_prime_bound(args.prime_bound)
    system = k33_system(distances)
    quartics = square_eliminate_y(system)
    elimination = eliminate_to_x3(quartics)
    factors = factor_over_q(elimination.eliminant)
    primes = primes_up_to(args.prime_bound)
    certificates = [
        certificate_json(_certificate(factor, args.prime_bound, primes)) for factor, _ in factors if factor.degree >= 2
    ]
    return {
        "distances": [fraction_json(d) for d in distances],
        "equations": [multipoly_json(eq) for eq in system.equations],
        "quartics": [multipoly_json(q) for q in quartics],
        "h1": multipoly_json(elimination.h1),
        "h2": multipoly_json(elimination.h2),
        "eliminant": unipoly_json(elimination.eliminant),
        "eliminant_degree": elimination.eliminant.degree,
        "raw_content": fraction_json(elimination.raw_content),
        "factors": [
            {
                "coefficients": unipoly_json(f),
                "degree": f.degree,
                "multiplicity": m,
            }
            for f, m in factors
        ],
        "certificates": certificates,
        "x1_branch": x1_branch_report(distances),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    It binds no handler: `main` finds `cmd_<command>` in this module when it
    runs, so a cached parser never holds a stale function.
    """
    parser = argparse.ArgumentParser(
        prog="rigicert",
        description="Laman rigidity analysis and radical-solubility certificates",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")
    parser.add_argument(
        "--tol", type=float, default=1e-9, help="ignored: no command reads it (reports echo it)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="structural and rigidity flags for a graph file")
    p.add_argument("graph_file")

    p = sub.add_parser("census", help="Laman and basic-Laman catalogs on n vertices")
    p.add_argument("n", type=int)

    p = sub.add_parser("decompose", help="unique block decomposition of a Laman graph")
    p.add_argument("graph_file")

    p = sub.add_parser("classify", help="quadratic-solubility classification")
    p.add_argument("graph_file")

    p = sub.add_parser("reduce", help="reduce a 3-connected Laman graph to terminals")
    p.add_argument("graph_file")

    p = sub.add_parser("k33", help="the full K(3,3) elimination and certificate pipeline")
    p.add_argument(
        "--distances",
        help="8 comma-separated rationals d1..d8 (defaults to the published specialization)",
    )
    p.add_argument("--prime-bound", type=int, default=10000)
    return parser


def render_report(command: str, inputs: dict, result: dict, elapsed_ms: float, pretty: bool) -> str:
    report = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "timing_ms": round(elapsed_ms, 3),
    }
    if pretty:
        return json.dumps(report, sort_keys=True, indent=2)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    inputs = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "pretty") and v is not None
    }
    handler = globals()[f"cmd_{args.command}"]
    start = time.perf_counter()
    try:
        result = handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = render_report(args.command, inputs, result, elapsed_ms, args.pretty)
    try:
        print(report)
        sys.stdout.flush()
    except OSError as exc:
        # what stays buffered goes to the null device, so that the
        # interpreter's own flush at exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"output error: the report could not be written: {exc.strerror}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
