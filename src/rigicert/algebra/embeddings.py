"""Sequential two-circle construction of embeddings for triangle-decomposable
graphs, and the residual check used to accept them.

This is the one floating-point corner of the package; everything upstream of
it stays exact.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping

from ..errors import (
    InputError,
    NotQuadraticallyConstructibleError,
    UnrealizableDistancesError,
)
from ..graph import Edge, Graph, edge
from .systems import distance_assignment

Embedding = dict[int, tuple[float, float]]

DEFAULT_TOLERANCE = 1e-9


def construction_order(graph: Graph, base: Edge) -> list[tuple[int, int, int]]:
    """(vertex, anchor_a, anchor_b) triples in placement order.

    Exists iff repeatedly stripping degree-2 vertices (never the base pair)
    reduces the graph to the base edge; in a Laman graph that strip order is
    unique up to interleaving, so greedy stripping is complete.

    The strip keeps one degree table over the remaining vertices and always
    takes the smallest-label non-base vertex of degree 2, from a heap of the
    vertices that reached degree 2; degrees only fall, so an entry whose
    vertex has left the table or fallen below 2 is stale and skipped.  It can
    only end on the base edge: the base vertices are never stripped, and
    they are joined.
    """
    base = edge(*base)
    if base not in graph.edges:
        raise InputError(f"base {base} is not an edge of the graph")
    degree = {v: graph.degree(v) for v in graph.vertices}
    ready = [v for v, k in degree.items() if k == 2 and v not in base]
    heapq.heapify(ready)
    stripped: list[tuple[int, int, int]] = []
    while len(degree) > 2:
        while ready and degree.get(ready[0]) != 2:
            heapq.heappop(ready)
        if not ready:
            raise NotQuadraticallyConstructibleError(
                "no degree-2 vertex left to strip; the graph is not a triangular quadratic chain"
            )
        candidate = heapq.heappop(ready)
        del degree[candidate]
        a, b = sorted(u for u in graph.neighbors(candidate) if u in degree)
        for u in (a, b):
            degree[u] -= 1
            if degree[u] == 2 and u not in base:
                heapq.heappush(ready, u)
        stripped.append((candidate, a, b))
    return list(reversed(stripped))


def _circle_intersections(
    ax: float, ay: float, da: float, bx: float, by: float, db: float
) -> list[tuple[float, float]]:
    """Intersections of circles around (ax,ay) and (bx,by) with squared radii."""
    dx, dy = bx - ax, by - ay
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        return []
    # projection of the intersection chord onto the center line
    t = (da - db + d2) / (2.0 * d2)
    h2 = da / d2 - t * t
    if h2 < 0.0:
        if h2 > -1e-12:
            h2 = 0.0
        else:
            return []
    h = math.sqrt(h2)
    px, py = ax + t * dx, ay + t * dy
    if h == 0.0:
        return [(px, py)]
    return [(px - h * dy, py + h * dx), (px + h * dy, py - h * dx)]


def qs_solve(graph: Graph, distances: Mapping[Edge, object], base: Edge) -> list[Embedding]:
    """All embeddings reachable by branching on each two-circle intersection.

    The base edge is pinned at (0,0)-(1,0) with the smaller label at the
    origin, so distances are squared lengths with the base scaled to 1.
    """
    base = edge(*base)
    d = distance_assignment(graph, base, distances)
    order = construction_order(graph, base)
    start: Embedding = {base[0]: (0.0, 0.0), base[1]: (1.0, 0.0)}
    frontier = [start]
    for v, a, b in order:
        da = float(d[edge(v, a)])
        db = float(d[edge(v, b)])
        next_frontier = []
        for emb in frontier:
            ax, ay = emb[a]
            bx, by = emb[b]
            for point in _circle_intersections(ax, ay, da, bx, by, db):
                ext = dict(emb)
                ext[v] = point
                next_frontier.append(ext)
        if not next_frontier:
            raise UnrealizableDistancesError(
                f"every branch lost the circle intersection while placing vertex {v}"
            )
        frontier = next_frontier
    return frontier


def verify_embedding(
    graph: Graph,
    distances: Mapping[Edge, object],
    base: Edge,
    embedding: Mapping[int, tuple[float, float]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> bool:
    """Exact pins, and every non-base squared distance within the tolerance."""
    base = edge(*base)
    missing = graph.vertices - set(embedding)
    if missing:
        raise InputError(f"embedding misses vertices {sorted(missing)}")
    residual = max_residual(graph, distances, base, embedding)
    if embedding[base[0]] != (0.0, 0.0) or embedding[base[1]] != (1.0, 0.0):
        return False
    return residual <= tolerance


def max_residual(
    graph: Graph,
    distances: Mapping[Edge, object],
    base: Edge,
    embedding: Mapping[int, tuple[float, float]],
) -> float:
    base = edge(*base)
    d = distance_assignment(graph, base, distances)
    worst = 0.0
    for (u, v), dist in d.items():
        ux, uy = embedding[u]
        vx, vy = embedding[v]
        worst = max(worst, abs((ux - vx) ** 2 + (uy - vy) ** 2 - float(dist)))
    return worst
