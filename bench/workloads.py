"""Seeded inputs for the benchmark's three workloads.

Everything here is made from the seed alone (plus the committed census
catalog); rigicert only ever sees the resulting graph text files and distance
strings.  An item is one request: a `rigicert` command line, or on `census`
one `qs_solve` call.  Items repeat in a fixed order, in rounds that each
hold every kind of item in its designed share, so a run that ends part way
through a round is still close to that share.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

DEFAULT_SEED = 1
WORKLOADS = ("census", "reduce-large", "k33")

#: Edge order of d1..d8 in `rigicert k33 --distances` (K(3,3), base edge (1,2)).
K33_EDGES = ((1, 3), (1, 5), (2, 4), (2, 6), (3, 4), (4, 5), (5, 6), (3, 6))
PUBLISHED_DISTANCES = "1,1,1,1,1/4,4,9/16,9/4"

#: Graph sizes of one reduce-large round.  Item times depend on the graph
#: and its labels as much as on its size, so a pass needs many graphs for its
#: median and 90th percentile to settle; small graphs give the most per
#: second.  Every round still has one graph each of 13 and 14 vertices, whose
#: 2^n scans take a fifth of the time.  The 12-vertex caps make `check` and
#: `classify` refuse n >= 13 (4 of 284 items per round).
REDUCE_ROUND = (9,) * 40 + (10,) * 20 + (11,) * 6 + (12,) * 3 + (13, 14)
#: Rounds in one pass: more than a 36-second run reaches, so that it
#: measures as many distinct graphs as it can.
REDUCE_ROUNDS = 8
#: One k33 round: the published certificate (over half the items) sets the
#: median, the random vectors add early exits at seeded primes, and the
#: planted configuration a full sweep, which sets the 90th percentile.
K33_ROUND = ("published", "random", "published", "planted", "published", "random", "published")
#: Rounds in one pass, more than a 36-second run reaches (see REDUCE_ROUNDS).
K33_ROUNDS = 16


@dataclass(frozen=True)
class Item:
    """One request.  `argv` names files relative to the workload directory."""

    key: str
    argv: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict, compare=False)


@dataclass
class Workload:
    name: str
    files: dict[str, str]  # file name -> text, written to the workload directory
    items: list[Item]  # one pass, in order
    trace_items: int  # the traced run covers items[:trace_items]


def graph_text(n: int, edges) -> str:
    """The CLI's graph text format, edges ascending."""
    return "".join([f"n {n}\n"] + [f"e {u} {v}\n" for u, v in sorted(edges)])


def graph_line(n: int, edges) -> str:
    """The single-line form reports use for graphs."""
    return " ".join([f"n {n}"] + [f"e {u} {v}" for u, v in sorted(edges)])


def _relabel(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    new = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    inverse = {perm[v]: v for v in range(n)}
    return new, inverse


def _rational(rng: random.Random, span: int, den: int) -> Fraction:
    return Fraction(rng.randint(-span * den, span * den), rng.randint(1, den))


def _planted_points(rng: random.Random, base, order):
    """Rational points with the base pinned at (0,0)-(1,0).  Points stay at
    least 1/4 apart (coincident anchors leave a later vertex unplaceable) and
    each new vertex sits well off the line through its two anchors, so the
    float solver's circle intersections are well conditioned."""
    pts = {base[0]: (Fraction(0), Fraction(0)), base[1]: (Fraction(1), Fraction(0))}
    for v, a, b in order:
        (ax, ay), (bx, by) = pts[a], pts[b]
        while True:
            x, y = _rational(rng, 3, 8), _rational(rng, 3, 8)
            ux, uy, wx, wy = bx - ax, by - ay, x - ax, y - ay
            cross = ux * wy - uy * wx
            apart = all((x - px) ** 2 + (y - py) ** 2 >= Fraction(1, 16) for px, py in pts.values())
            if apart and 100 * cross * cross >= (ux * ux + uy * uy) * (wx * wx + wy * wy):
                break
        pts[v] = (x, y)
    return pts


def census(seed: int, catalog: dict) -> Workload:
    """`census 7`, `census 8`, and per census graph check/decompose/classify,
    reduce on the 3-connected ones, and qs_solve where a construction order
    exists (qs_solve's documented precondition)."""
    rng = random.Random(f"census:{seed}")
    files: dict[str, str] = {}
    per_graph: list[list[Item]] = []
    planted: dict[str, dict] = {}
    index = 0
    for n_key in ("7", "8"):
        for entry in catalog[n_key]:
            n = int(n_key)
            name = f"g{index:04d}"
            edges, inverse = _relabel(rng, n, entry["edges"])
            path = name + ".txt"
            files[path] = graph_text(n, edges)
            expect = {"base_index": index, "n": n, "edges": edges, "inverse": inverse, **entry["flags"]}
            items = [Item(f"{cmd}:{name}", (cmd, path), expect) for cmd in ("check", "decompose", "classify")]
            if entry["flags"]["three_connected"]:
                items.append(Item(f"reduce:{name}", ("reduce", path), expect))
            found = oracles.construction_base(range(n), edges)
            if found is not None:
                base, order = found
                pts = _planted_points(rng, base, order)
                distances = {
                    f"{u} {v}": str((pts[u][0] - pts[v][0]) ** 2 + (pts[u][1] - pts[v][1]) ** 2)
                    for u, v in edges
                    if (u, v) != base
                }
                planted[name] = {
                    "base": list(base),
                    "points": {str(v): [str(x), str(y)] for v, (x, y) in sorted(pts.items())},
                    "distances": distances,
                }
                items.append(Item(f"qs_solve:{name}", ("qs_solve", path), {**expect, "planted": planted[name]}))
            per_graph.append(items)
            index += 1
    rng.shuffle(per_graph)
    flat = [item for items in per_graph for item in items]
    # The two census items are about a tenth of a pass; spread them out so a
    # run that stops mid-pass keeps its share of them.
    third = len(flat) // 3
    items = (
        flat[:third]
        + [Item("census:7", ("census", "7"), {"n": 7})]
        + flat[third : 2 * third]
        + [Item("census:8", ("census", "8"), {"n": 8})]
        + flat[2 * third :]
    )
    files["qs_planted.json"] = json.dumps(planted, sort_keys=True, indent=1) + "\n"
    return Workload("census", files, items, trace_items=len(items))


def _grow(rng: random.Random, target: int):
    """K(3,3) grown by Henneberg II moves (split edge uv by a new vertex also
    joined to z), dropping any move whose result is not 3-connected."""
    edges = {(a, b) for a in (0, 1, 2) for b in (3, 4, 5)}
    n = 6
    while n < target:
        u, v = rng.choice(sorted(edges))
        z = rng.choice([w for w in range(n) if w not in (u, v)])
        child = (edges - {(u, v)}) | {(u, n), (v, n), (min(z, n), max(z, n))}
        if oracles.is_three_connected(range(n + 1), child):
            edges, n = child, n + 1
    return sorted(edges)


def reduce_large(seed: int) -> Workload:
    """check/decompose/classify/reduce on 3-connected Laman graphs of 9-14
    vertices grown from K(3,3)."""
    rng = random.Random(f"reduce-large:{seed}")
    files: dict[str, str] = {}
    items: list[Item] = []
    for r in range(REDUCE_ROUNDS):
        sizes = list(REDUCE_ROUND)
        rng.shuffle(sizes)
        for j, n in enumerate(sizes):
            edges, _ = _relabel(rng, n, _grow(rng, n))
            name = f"r{r:02d}-{j:02d}-n{n}"
            path = name + ".txt"
            files[path] = graph_text(n, edges)
            expect = {"n": n, "edges": edges}
            items += [Item(f"{cmd}:{name}", (cmd, path), expect) for cmd in ("check", "decompose", "classify", "reduce")]
    return Workload("reduce-large", files, items, trace_items=4 * len(REDUCE_ROUND))


def _k33_planted(rng: random.Random):
    """Rational points for vertices 3..6 (1 and 2 pinned), pairwise distinct
    and no three collinear; coincident points make a resultant vanish."""
    while True:
        pts = {1: (Fraction(0), Fraction(0)), 2: (Fraction(1), Fraction(0))}
        for v in (3, 4, 5, 6):
            pts[v] = (_rational(rng, 3, 5), _rational(rng, 3, 5))
        triples = [(a, b, c) for a in pts for b in pts for c in pts if a < b < c]
        if all(
            (pts[b][0] - pts[a][0]) * (pts[c][1] - pts[a][1]) != (pts[b][1] - pts[a][1]) * (pts[c][0] - pts[a][0])
            for a, b, c in triples
        ):
            return pts


def _random_distances(rng: random.Random) -> list[Fraction]:
    """Eight pairwise distinct rational squared distances.  Repeated values
    can make the configuration symmetric enough for an elimination resultant
    to vanish, which `k33` refuses as a documented precondition failure
    (for example 3,1,7/4,5,1,7/4,5,4)."""
    while True:
        values = [Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in K33_EDGES]
        if len(set(values)) == len(values):
            return values


def k33(seed: int) -> Workload:
    """`rigicert k33` on the published distances, planted rational
    configurations and random rational distance vectors."""
    rng = random.Random(f"k33:{seed}")
    lines = []
    items: list[Item] = []
    for r in range(K33_ROUNDS):
        for j, kind in enumerate(K33_ROUND):
            if kind == "published":
                items.append(Item("k33:published", ("k33", "--distances", PUBLISHED_DISTANCES), {"kind": kind}))
                continue
            name = f"{kind}-{r:02d}-{j}"
            expect: dict = {"kind": kind}
            if kind == "planted":
                pts = _k33_planted(rng)
                values = [(pts[u][0] - pts[v][0]) ** 2 + (pts[u][1] - pts[v][1]) ** 2 for u, v in K33_EDGES]
                expect["x3"] = str(pts[3][0])
            else:
                values = _random_distances(rng)
            text = ",".join(str(d) for d in values)
            lines.append(f"{name} {text}" + (f" x3={expect['x3']}" if kind == "planted" else ""))
            items.append(Item(f"k33:{name}", ("k33", "--distances", text), expect))
    files = {"vectors.txt": "# name d1,...,d8 [planted x3]\n" + "\n".join(lines) + "\n"}
    return Workload("k33", files, items, trace_items=2 * len(K33_ROUND))


def build(name: str, seed: int, catalog: dict) -> Workload:
    if name == "census":
        workload = census(seed, catalog)
    elif name == "reduce-large":
        workload = reduce_large(seed)
    else:
        workload = k33(seed)
    workload.files["items.txt"] = "".join(
        " ".join(item.argv) + "\n" for item in dict.fromkeys(workload.items)
    )
    return workload
