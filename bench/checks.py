"""Output checks.  References come from the paper, from networkx (computed
once and committed with the census catalog), or from the stdlib oracles in
`oracles.py`.  `decompose`, `classify` and `reduce` have no oracle: their
reports are compared with digests committed from this code base, which
keeps reports byte-identical apart from `timing_ms`.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import oracles
from workloads import DEFAULT_SEED, graph_line

LAMAN_COUNTS = {7: 70, 8: 608}
BASIC_COUNTS = {7: 0, 8: 2}
# The two irreducible factors of the published degree-20 eliminant, as printed
# (ascending coefficients, up to one common scalar), and their witness primes.
PUBLISHED_DEG6 = (
    1912924250825, -110509387701405, 396516248769992, -581731370400244,
    486601784497152, -280160493061120, 87733791129600,
)
PUBLISHED_DEG8 = (
    -45476733930709, 118596291789193, -215063281430796, 517152016022904,
    -761674146310464, 440356364853504, 29867097677824, -103544588664832,
    19741148184576,
)
PUBLISHED_WITNESSES = {6: 71, 8: 23}
QS_TOLERANCE = 1e-9

ANSWERED, REFUSED, ERROR = "answered", "refused", "error"
#: `is_planar` refuses graphs above this many vertices, so `check` and
#: `classify` (which planarity-tests its witness block) refuse them too.
PLANARITY_CAP = 12
K33_PRIME_BOUND = 10000


def may_refuse(item) -> bool:
    """Whether refusing the item is a documented precondition failure.  Any
    other refusal is an error: a program that answers less is not faster."""
    return item.argv[0] in ("check", "classify") and item.expect.get("n", 0) > PLANARITY_CAP


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def strip_timing(report: str) -> str:
    """The report without its `timing_ms` field (the last key, as keys sort)."""
    head, sep, _ = report.rpartition(',"timing_ms":')
    if not sep:
        raise ValueError("report has no timing_ms field")
    return head + "}"


def canonical_text(item, output: str) -> str:
    """An answered item's output as digested: reports lose `timing_ms`."""
    return output if item.argv[0] == "qs_solve" else strip_timing(output)


def parse_line(text: str) -> tuple[int, list[tuple[int, int]]]:
    tokens = text.split()
    n = int(tokens[1])
    edges = [(int(tokens[i + 1]), int(tokens[i + 2])) for i in range(2, len(tokens), 3)]
    return n, edges


def _canon_block(block: dict, inverse: dict) -> list:
    def back(pairs):
        return sorted(sorted((inverse[u], inverse[v])) for u, v in pairs)

    return [back(parse_line(block["graph"])[1]), back(block["virtual_edges"]), back(block["redundant_edges"])]


def canonical(command: str, result: dict, inverse: dict) -> str:
    """Digest of the label-independent part of a decompose or classify report,
    mapped back to the catalog labels: the block set is unique, the order in
    which separations happen is not."""
    if command == "decompose":
        value = sorted(_canon_block(b, inverse) for b in result["blocks"])
    else:
        value = [result["verdict"], sorted(_canon_block(b, inverse) for b in result["witnesses"])]
    return digest(json.dumps(value))


class Checker:
    """Checks each item's first output in full; a repeat must reproduce it."""

    def __init__(self, workload: str, seed: int, references: dict):
        self.workload = workload
        self.references = references
        self.exact = references["default_seed"][workload] if seed == DEFAULT_SEED else None
        self.seen: dict[str, tuple[str, str]] = {}

    def verify(self, item, status: str, output: str) -> str | None:
        """None when the output is right, else what is wrong with it."""
        if status == ERROR:
            return output
        if status == REFUSED and not may_refuse(item):
            return f"{item.key}: refused an input inside its documented range: {output.strip()}"
        try:
            text = output if status == REFUSED else canonical_text(item, output)
        except ValueError as exc:
            return f"{item.key}: malformed output: {exc}"
        key = (status, digest(text))
        if item.key in self.seen:
            return None if self.seen[item.key] == key else f"{item.key}: output differs from its first run"
        self.seen[item.key] = key
        if status == REFUSED:
            return None
        try:
            problem = self._check(item, text)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            problem = f"malformed output: {exc!r}"
        # Items refused when the digests were made have none; the oracle
        # alone checks them.  qs_solve returns floats: the 1e-9 check decides.
        pinned = self.exact is not None and item.key in self.exact
        if problem is None and pinned and self.exact[item.key] != key[1]:
            problem = "report differs from the committed default-seed digest"
        return None if problem is None else f"{item.key}: {problem}"

    def _check(self, item, text: str) -> str | None:
        command = item.argv[0]
        if command == "qs_solve":
            return _check_qs(item.expect, json.loads(text))
        result = json.loads(text)["result"]
        if command == "census":
            return self._check_census(item.expect["n"], result, text)
        if command == "k33":
            return _check_k33(item.expect, result)
        if command == "reduce":
            return _check_reduce(item.expect, result)
        if self.workload == "census":
            return self._check_census_graph(command, item.expect, result)
        return _check_large_graph(command, item.expect, result)

    def _check_census(self, n: int, result: dict, text: str) -> str | None:
        if result["laman_count"] != LAMAN_COUNTS[n] or len(result["laman_catalog"]) != LAMAN_COUNTS[n]:
            return f"Laman count {result['laman_count']}, expected {LAMAN_COUNTS[n]}"
        if result["basic_count"] != BASIC_COUNTS[n]:
            return f"basic count {result['basic_count']}, expected {BASIC_COUNTS[n]}"
        if digest(text) != self.references["census_reports"][str(n)]:
            return "census report differs from the committed digest"
        return None

    def _check_census_graph(self, command: str, expect: dict, result: dict) -> str | None:
        if command == "check":
            wanted = {
                "free": 0, "independent": True, "laman": True, "basic": expect["basic"],
                "three_connected": expect["three_connected"], "planar": expect["planar"],
            }
            return None if result == wanted else f"check gave {result}, expected {wanted}"
        wanted = self.references["base"][expect["base_index"]][command]
        if canonical(command, result, expect["inverse"]) != wanted:
            return f"{command} blocks differ from the catalog graph's"
        return None


def _check_large_graph(command: str, expect: dict, result: dict) -> str | None:
    """Family graphs are 3-connected, Laman (Henneberg II keeps both) and
    non-planar (each contains a subdivision of K(3,3))."""
    n, edges = expect["n"], expect["edges"]
    whole = [{"graph": graph_line(n, edges), "virtual_edges": [], "redundant_edges": []}]
    if command == "check":
        laman, basic = oracles.laman_basic(range(n), edges)
        wanted = {"free": 0, "independent": True, "laman": laman, "basic": basic, "three_connected": True, "planar": False}
    elif command == "decompose":
        wanted = {"blocks": whole, "separation_history": []}
    else:
        wanted = {"verdict": "NOT_RS_CONJECTURED", "witnesses": whole}
    return None if result == wanted else f"{command} gave {result}, expected {wanted}"


def _check_reduce(expect: dict, result: dict) -> str | None:
    """Every terminal is a basic graph, or the doublet (the 3-connected
    non-basic Laman graph on 6 vertices), by the subset-scan oracle."""
    terminals = result["terminals"]
    if not terminals or result["terminal"] != terminals[0]["graph"] or result["terminal_kind"] != terminals[0]["kind"]:
        return "terminal does not head the terminal list"
    source = graph_line(expect["n"], expect["edges"])
    steps = result["steps"]
    if steps and steps[0]["input_graph"] != source:
        return "first step does not start from the input graph"
    if not steps and [t["graph"] for t in terminals] != [source]:
        return "no steps, yet the terminal is not the input graph"
    if any(s["kind"] not in ("SURGERY", "CONTRACTION", "BLOCK_SPLIT") for s in steps):
        return "unknown step kind"
    for terminal in terminals:
        n, edges = parse_line(terminal["graph"])
        vertices = sorted({v for e in edges for v in e})
        laman, basic = oracles.laman_basic(vertices, edges)
        if len(vertices) != n or not laman or not oracles.is_three_connected(vertices, edges):
            return f"terminal {terminal['graph']} is not a 3-connected Laman graph"
        if terminal["kind"] == "BASIC" and not basic:
            return f"terminal {terminal['graph']} is not basic"
        if terminal["kind"] == "DOUBLET" and (n != 6 or basic):
            return f"terminal {terminal['graph']} is not the doublet"
        if terminal["kind"] not in ("BASIC", "DOUBLET"):
            return "unknown terminal kind"
    return None


def _check_qs(expect: dict, embeddings: list) -> str | None:
    planted = {int(v): (float(Fraction(x)), float(Fraction(y))) for v, (x, y) in expect["planted"]["points"].items()}
    for emb in embeddings:
        if all(
            abs(emb[str(v)][0] - x) <= QS_TOLERANCE and abs(emb[str(v)][1] - y) <= QS_TOLERANCE
            for v, (x, y) in planted.items()
        ):
            return None
    return f"no embedding of {len(embeddings)} is within {QS_TOLERANCE} of the planted points"


def _ints(values) -> list[int]:
    return [int(c) for c in values]


def _check_k33(expect: dict, result: dict) -> str | None:
    eliminant = _ints(result["eliminant"])
    factors = [(_ints(f["coefficients"]), f["multiplicity"]) for f in result["factors"]]
    product = [1]
    for coeffs, mult in factors:
        for _ in range(mult):
            product = oracles.poly_mul(product, coeffs)
    if not oracles.same_up_to_scalar(product, eliminant):
        return "factors do not multiply back to the eliminant"
    nonlinear = [coeffs for coeffs, _ in factors if len(coeffs) > 2]
    certificates = result["certificates"]
    if len(certificates) != len(nonlinear):
        return "one certificate per non-linear factor expected"
    for coeffs, cert in zip(nonlinear, certificates):
        poly = _ints(cert["polynomial"])
        if not oracles.same_up_to_scalar(poly, coeffs):
            return "certificate polynomial is not its factor"
        problem = _check_certificate(poly, cert)
        if problem is not None:
            return problem
    if expect["kind"] == "published":
        return _check_published(factors, nonlinear, certificates)
    if expect["kind"] == "planted":
        x3 = Fraction(expect["x3"])
        if not any(oracles.poly_eval(coeffs, x3) == 0 for coeffs, _ in factors):
            return f"planted x3 = {x3} is a root of no reported factor"
    return None


def _check_certificate(poly: list[int], cert: dict) -> str | None:
    """A NOT_SOLUBLE witness must be a squarefree reduction whose degree
    multiset (recomputed here) refutes solubility by the rule it names; an
    INCONCLUSIVE verdict must leave no prime up to the bound that refutes."""
    if cert["prime_bound"] != K33_PRIME_BOUND:
        return f"prime bound {cert['prime_bound']}, expected {K33_PRIME_BOUND}"
    n = len(poly) - 1
    if cert["verdict"] == "NOT_SOLUBLE":
        witness = cert["witness"]
        prime, multiset = witness["prime"], tuple(witness["degree_multiset"])
        if not oracles.is_prime(prime) or prime > cert["prime_bound"]:
            return f"witness {prime} is not a prime up to the bound"
        recomputed = oracles.gf_degree_multiset(poly, prime)
        if recomputed != (multiset, True):
            return f"degree multiset mod {prime} is {recomputed}, reported {list(multiset)}"
        if witness["rule"] not in oracles.refuting_rules(multiset, n):
            return f"rule {witness['rule']} does not refute solubility from {list(multiset)} at degree {n}"
        return None
    if cert["verdict"] != "INCONCLUSIVE" or cert["witness"] is not None:
        return "unknown verdict"
    if not oracles.refutable_degree(n):
        return None  # no rule can fire at this degree (for example 7)
    found = oracles.first_refuting_prime(poly, cert["prime_bound"])
    return None if found is None else f"INCONCLUSIVE, yet p={found} refutes solubility"


def _check_published(factors, nonlinear, certificates) -> str | None:
    linear = [(c, m) for c, m in factors if len(c) == 2]
    if linear != [([-1, 1], 6)]:
        return f"linear part {linear}, expected (x-1)^6"
    if len(nonlinear) != 2 or not (
        oracles.same_up_to_scalar(nonlinear[0], list(PUBLISHED_DEG6))
        and oracles.same_up_to_scalar(nonlinear[1], list(PUBLISHED_DEG8))
    ):
        return "non-linear factors differ from the published degree-6 and degree-8 factors"
    for coeffs, cert in zip(nonlinear, certificates):
        wanted = PUBLISHED_WITNESSES[len(coeffs) - 1]
        if cert["verdict"] != "NOT_SOLUBLE" or cert["witness"]["prime"] != wanted:
            return f"degree-{len(coeffs) - 1} certificate: expected witness p={wanted}"
    return None
