"""Regenerate the benchmark's committed reference data.  Not run by the benchmark.

    python3 bench/make_reference.py

Needs networkx (a test extra).  Writes:

* data/census_catalog.json: the Laman graphs on 7 and 8 vertices, one per
  isomorphism class, found by Henneberg closure from a triangle with networkx
  isomorphism tests, with planarity and 3-connectivity from networkx and the
  basic flag from the subset-scan oracle.  Shares no code with rigicert.
* data/references.json: digests of rigicert's own reports where no oracle
  exists: `census 7/8`, the label-free block sets of `decompose`/`classify`
  per catalog graph, and every CLI report of the default seed.
* inputs/seed-<default>/: the default seed's generated inputs, so single
  items can be rerun by hand.

Rerun it only on purpose: the digests pin the current reports.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import warnings
from pathlib import Path

import networkx as nx

import checks
import oracles
import workloads

BENCH = Path(__file__).resolve().parent


def _children(n: int, edges: list[tuple[int, int]]):
    """Henneberg I and II extensions, adding vertex n."""
    for u, v in itertools.combinations(range(n), 2):
        yield edges + [(u, n), (v, n)]
    for u, v in edges:
        for z in range(n):
            if z not in (u, v):
                yield [e for e in edges if e != (u, v)] + [(u, n), (v, n), (z, n)]


def laman_catalog(n_max: int) -> dict[int, list[list[tuple[int, int]]]]:
    """Representatives of every Laman graph on 3..n_max vertices (Henneberg's
    theorem: exactly the graphs these moves build from a triangle)."""
    levels = {3: [[(0, 1), (0, 2), (1, 2)]]}
    for n in range(3, n_max):
        found: list[list[tuple[int, int]]] = []
        buckets: dict[str, list[nx.Graph]] = {}
        for parent in levels[n]:
            for child in _children(n, parent):
                g = nx.Graph(child)
                with warnings.catch_warnings():  # hash values only pick a bucket
                    warnings.simplefilter("ignore")
                    key = nx.weisfeiler_lehman_graph_hash(g, iterations=4)
                bucket = buckets.setdefault(key, [])
                if any(nx.is_isomorphic(g, h) for h in bucket):
                    continue
                bucket.append(g)
                found.append(sorted(tuple(sorted(e)) for e in child))
        levels[n + 1] = found
    return levels


def write_catalog() -> dict:
    levels = laman_catalog(8)
    catalog = {}
    for n in (7, 8):
        entries = []
        for edges in levels[n]:
            g = nx.Graph(edges)
            laman, basic = oracles.laman_basic(range(n), edges)
            assert laman
            flags = {
                "planar": nx.check_planarity(g)[0],
                "three_connected": nx.node_connectivity(g) >= 3,
                "basic": basic,
            }
            entries.append({"edges": [list(e) for e in edges], "flags": flags})
        assert len(entries) == checks.LAMAN_COUNTS[n]
        assert sum(e["flags"]["basic"] for e in entries) == checks.BASIC_COUNTS[n]
        catalog[str(n)] = entries
    lines = ",\n".join(
        f"{json.dumps(n)}: [\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]"
        for n, entries in catalog.items()
    )
    (BENCH / "data" / "census_catalog.json").write_text("{\n" + lines + "\n}\n")  # one graph per line
    return catalog


def write_references(catalog: dict) -> None:
    import run

    cli = run.load_cli()
    scratch = run.WORK / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(cli, scratch)
    references: dict = {"census_reports": {}, "base": [], "default_seed": {}}
    for n in ("7", "8"):
        status, output, _ = runner.run(workloads.Item("census", ("census", n)))
        assert status == checks.ANSWERED
        references["census_reports"][n] = checks.digest(checks.strip_timing(output))
        for entry in catalog[n]:
            path = scratch / "base.txt"
            path.write_text(workloads.graph_text(int(n), entry["edges"]))
            identity = {v: v for v in range(int(n))}
            base = {}
            for command in ("decompose", "classify"):
                status, output, _ = runner.run(workloads.Item(command, (command, "base.txt")))
                assert status == checks.ANSWERED
                result = json.loads(checks.strip_timing(output))["result"]
                base[command] = checks.canonical(command, result, identity)
            references["base"].append(base)
    seed = workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, seed, catalog)
        target = BENCH / "inputs" / f"seed-{seed}" / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for file_name, text in workload.files.items():
            (target / file_name).write_text(text)
        runner.directory = target
        digests = {}
        for item in dict.fromkeys(workload.items):
            status, output, _ = runner.run(item)
            if status == checks.ANSWERED and item.argv[0] != "qs_solve":  # floats: the 1e-9 check decides
                digests[item.key] = checks.digest(checks.canonical_text(item, output))
            print(f"{item.key} {status}", file=sys.stderr)
        references["default_seed"][name] = digests
    (BENCH / "data" / "references.json").write_text(json.dumps(references, sort_keys=True, indent=0) + "\n")


if __name__ == "__main__":
    write_references(write_catalog())
