"""Checks that the output checks accept right answers and reject wrong ones.

    python3 bench/selfcheck.py

Standard library only, and it runs no rigicert code: every output below is
written by hand in the form the CLI prints.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
import oracles
import workloads
from checks import ANSWERED, REFUSED

BENCH = Path(__file__).resolve().parent


def report(command: str, result: dict) -> str:
    return json.dumps({"command": command, "inputs": {}, "result": result, "timing_ms": 1.0}, sort_keys=True, separators=(",", ":"))


def large_graph_items():
    references = json.loads((BENCH / "data" / "references.json").read_text())
    workload = workloads.reduce_large(workloads.DEFAULT_SEED)
    checker = checks.Checker("reduce-large", workloads.DEFAULT_SEED, references)
    by_key = {item.key: item for item in workload.items}
    return checker, references["default_seed"]["reduce-large"], by_key


def test_refusals_and_lifted_caps() -> None:
    checker, digests, items = large_graph_items()
    big_check = next(i for k, i in items.items() if k.startswith("check:") and i.expect["n"] == 13)
    big_reduce = next(i for k, i in items.items() if k.startswith("reduce:") and i.expect["n"] == 13)
    assert big_check.key not in digests, "refused at the baseline, so no digest"
    # an item refused at the baseline and answered now passes on the oracle alone
    n, edges = big_check.expect["n"], big_check.expect["edges"]
    laman, basic = oracles.laman_basic(range(n), edges)
    right = {"basic": basic, "free": 0, "independent": True, "laman": laman, "planar": False, "three_connected": True}
    assert checker.verify(big_check, ANSWERED, report("check", right)) is None
    wrong = {**right, "planar": True}
    fresh, _, _ = large_graph_items()
    assert fresh.verify(big_check, ANSWERED, report("check", wrong)) is not None
    # the planarity cap is a documented refusal for check and classify only
    fresh, _, _ = large_graph_items()
    assert fresh.verify(big_check, REFUSED, "precondition failed: planarity test supports at most 12 vertices") is None
    assert fresh.verify(big_reduce, REFUSED, "precondition failed: some new cap") is not None


def certificate(poly, verdict, prime=None, multiset=None, rule=None) -> dict:
    witness = None if prime is None else {"prime": prime, "degree_multiset": list(multiset), "rule": rule}
    return {"polynomial": [str(c) for c in poly], "verdict": verdict, "witness": witness, "prime_bound": 10000}


def first_prime_with(poly, multiset) -> int:
    return next(
        q for q in oracles.primes_up_to(10000)
        if poly[-1] % q and oracles.gf_degree_multiset(poly, q) == (multiset, True)
    )


def test_certificates() -> None:
    septic = [-1, -1, 0, 0, 0, 0, 0, 1]  # x^7 - x - 1
    octic = [-1, -1, 0, 0, 0, 0, 0, 0, 1]  # x^8 - x - 1
    # degree 7: no rule can refute, so a relaxed Jordan bound (p <= n-2) is caught
    p = first_prime_with(septic, (1, 1, 5))
    assert checks._check_certificate(septic, certificate(septic, "NOT_SOLUBLE", p, (1, 1, 5), "jordan_prime_cycle"))
    assert checks._check_certificate(septic, certificate(septic, "INCONCLUSIVE")) is None
    # degree 8: a 5-cycle with three fixed points is Jordan's rule
    p = first_prime_with(octic, (1, 1, 1, 5))
    assert checks._check_certificate(octic, certificate(octic, "NOT_SOLUBLE", p, (1, 1, 1, 5), "jordan_prime_cycle")) is None
    assert checks._check_certificate(octic, certificate(octic, "NOT_SOLUBLE", p, (1, 1, 1, 5), "burnside_two_transitive"))
    assert checks._check_certificate(octic, certificate(octic, "NOT_SOLUBLE", p, (1, 1, 2, 4), "jordan_prime_cycle"))
    # an (8)-cycle lies in a soluble group (the cyclic one): no rule refutes it
    p = first_prime_with(octic, (8,))
    assert checks._check_certificate(octic, certificate(octic, "NOT_SOLUBLE", p, (8,), "max_soluble_table"))
    # a sweep that stops short of a refuting prime is caught
    assert checks._check_certificate(octic, certificate(octic, "INCONCLUSIVE"))


def main() -> None:
    for test in (test_refusals_and_lifted_caps, test_certificates):
        test()
        print(f"ok {test.__name__}")


if __name__ == "__main__":
    main()
