"""Distance constraint systems and the resultant elimination pipeline.

A system pins a base edge at (0,0)-(1,0) and carries one quadratic equation
per remaining edge.  For graphs where every free vertex hangs off exactly one
base vertex (K(3,3) with the standard labelling does), squaring removes the y
coordinates and successive resultants collapse the system to one variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from ..errors import DegenerateInputError, InputError, UnsupportedTopologyError
from ..graph import Edge, Graph, edge
from .multipoly import MultiPoly, as_fraction, resultant
from .unipoly import UniPoly

ExactRational = Fraction


def distance_assignment(graph: Graph, base: Edge, values: Mapping[Edge, object]) -> dict[Edge, Fraction]:
    """Validate a squared-distance map: positive rationals on all non-base edges."""
    base = edge(*base)
    if base not in graph.edges:
        raise InputError(f"base {base} is not an edge of the graph")
    clean: dict[Edge, Fraction] = {}
    for raw_edge, value in values.items():
        ed = edge(*raw_edge)
        if ed not in graph.edges:
            raise InputError(f"distance given for non-edge {ed}")
        v = as_fraction(value)
        if v <= 0:
            raise InputError(f"squared distance for {ed} must be positive, got {v}")
        clean[ed] = v
    if base in clean:
        if clean[base] != 1:
            raise InputError("the base edge is pinned to length 1")
        del clean[base]
    missing = graph.edges - set(clean) - {base}
    if missing:
        raise InputError(f"missing distances for edges {sorted(missing)}")
    return clean


@dataclass(frozen=True)
class ConstraintSystem:
    graph: Graph
    base_edge: Edge
    pinned: dict[int, tuple[Fraction, Fraction]]
    unknowns: tuple[str, ...]
    equations: tuple[MultiPoly, ...]
    distances: dict[Edge, Fraction]


def _coordinate_names(graph: Graph, base: Edge) -> tuple[str, ...]:
    free = [v for v in graph.sorted_vertices() if v not in base]
    return tuple(f"x{v}" for v in free) + tuple(f"y{v}" for v in free)


def build_constraint_system(
    graph: Graph, distances: Mapping[Edge, object], base: Edge
) -> ConstraintSystem:
    """One equation (x_i-x_j)^2 + (y_i-y_j)^2 - d_ij per non-base edge, with
    the base endpoints pinned at (0,0) and (1,0) (smaller label at the origin)."""
    base = edge(*base)
    d = distance_assignment(graph, base, distances)
    names = _coordinate_names(graph, base)
    pinned = {base[0]: (Fraction(0), Fraction(0)), base[1]: (Fraction(1), Fraction(0))}

    def coord(v: int, axis: str) -> MultiPoly:
        if v in pinned:
            value = pinned[v][0 if axis == "x" else 1]
            return MultiPoly.constant(names, value)
        return MultiPoly.variable(names, f"{axis}{v}")

    equations = []
    for u, v in sorted(graph.edges):
        if (u, v) == base:
            continue
        dx = coord(u, "x") - coord(v, "x")
        dy = coord(u, "y") - coord(v, "y")
        equations.append(dx * dx + dy * dy - MultiPoly.constant(names, d[(u, v)]))
    return ConstraintSystem(graph, base, pinned, names, tuple(equations), d)


K33_EDGE_PARAMETERS: tuple[tuple[Edge, str], ...] = (
    ((1, 3), "d1"),
    ((1, 5), "d2"),
    ((2, 4), "d3"),
    ((2, 6), "d4"),
    ((3, 4), "d5"),
    ((4, 5), "d6"),
    ((5, 6), "d7"),
    ((3, 6), "d8"),
)

#: The rational specialization the certificate pipeline reproduces end to end.
K33_SPECIAL_DISTANCES: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(1),
    Fraction(1),
    Fraction(1),
    Fraction(1, 4),
    Fraction(4),
    Fraction(9, 16),
    Fraction(9, 4),
)


def k33_graph() -> Graph:
    """K(3,3) with parts {1,4,6} and {2,3,5}; base edge (1,2)."""
    left, right = (1, 4, 6), (2, 3, 5)
    return Graph(left + right, [(a, b) for a in left for b in right])


def k33_system(distances: Sequence[object]) -> ConstraintSystem:
    """The 8-equation system for K(3,3) under the edge-parameter map d1..d8."""
    if len(distances) != 8:
        raise InputError("K(3,3) takes exactly 8 squared distances d1..d8")
    values = {ed: as_fraction(v) for (ed, _), v in zip(K33_EDGE_PARAMETERS, distances)}
    return build_constraint_system(k33_graph(), values, (1, 2))


def square_eliminate_y(system: ConstraintSystem) -> list[MultiPoly]:
    """Eliminate every y coordinate by the squared two-circle identity.

    An edge to a base vertex gives y_k^2 = d - (x_k - p)^2; each free-free
    edge (i,j) then becomes ((x_i-x_j)^2 + y_i^2 + y_j^2 - d)^2 - 4 y_i^2
    y_j^2.  A vertex adjacent to both base vertices instead yields a linear
    relation directly (the two circle equations subtract to one, the base
    pins sharing y = 0).  A free vertex with no base neighbour leaves its y
    unreachable, which this elimination cannot handle.
    """
    g = system.graph
    base = system.base_edge
    free = [v for v in g.sorted_vertices() if v not in base]
    anchors: dict[int, list[int]] = {}
    for v in free:
        anchors[v] = [b for b in base if g.has_edge(v, b)]
        if not anchors[v]:
            raise UnsupportedTopologyError(
                f"vertex {v} has no edge to the base pair; cannot reach its y coordinate"
            )
    names = tuple(f"x{v}" for v in free)

    def xvar(v: int) -> MultiPoly:
        return MultiPoly.variable(names, f"x{v}")

    def circle(v: int, b: int) -> MultiPoly:
        # (x_v - p_b)^2 - d_vb, the circle equation with y_v^2 dropped
        d = system.distances[edge(v, b)]
        diff = xvar(v) - MultiPoly.constant(names, system.pinned[b][0])
        return diff * diff - MultiPoly.constant(names, d)

    out: list[MultiPoly] = []
    y_squared: dict[int, MultiPoly] = {}
    for v in free:
        # the anchor closer to the origin supplies the y^2 substitution
        y_squared[v] = -circle(v, anchors[v][0])
        if len(anchors[v]) == 2:
            out.append(circle(v, anchors[v][0]) - circle(v, anchors[v][1]))

    for u, v in g.sorted_edges():
        if (u, v) == base or u in base or v in base:
            continue
        d = system.distances[(u, v)]
        dx = xvar(u) - xvar(v)
        inner = dx * dx + y_squared[u] + y_squared[v] - MultiPoly.constant(names, d)
        out.append(inner * inner - (y_squared[u] * y_squared[v]).scale(4))
    return out


def _poly_for_edge(polys: list[MultiPoly], wanted: frozenset[str]) -> MultiPoly:
    for p in polys:
        if p.used_variables() == wanted:
            return p
    raise InputError(f"no polynomial in exactly the variables {sorted(wanted)}")


@dataclass(frozen=True)
class EliminationResult:
    eliminant: UniPoly
    h1: MultiPoly
    h2: MultiPoly
    raw_content: Fraction


def eliminate_to_x3(polys: list[MultiPoly]) -> EliminationResult:
    """Collapse the four K(3,3) ring quartics to one polynomial in x3.

    Pairing: h1 = res_{x4}(g_34, g_45), h2 = res_{x6}(g_56, g_36), then
    res_{x5}(h1, h2).  The returned eliminant is the primitive integer
    polynomial with positive leading coefficient; interior multiplicities
    (such as the (x-1)^6 component at the published specialization) survive.
    """
    if len(polys) != 4:
        raise InputError("expected the four ring polynomials g_34, g_45, g_56, g_36")
    g34 = _poly_for_edge(polys, frozenset({"x3", "x4"}))
    g45 = _poly_for_edge(polys, frozenset({"x4", "x5"}))
    g56 = _poly_for_edge(polys, frozenset({"x5", "x6"}))
    g36 = _poly_for_edge(polys, frozenset({"x3", "x6"}))
    h1 = resultant(g34, g45, "x4")
    if h1.is_zero():
        raise DegenerateInputError("resultant of g_34 and g_45 vanished")
    h2 = resultant(g56, g36, "x6")
    if h2.is_zero():
        raise DegenerateInputError("resultant of g_56 and g_36 vanished")
    raw = resultant(h1, h2, "x5")
    if raw.is_zero():
        raise DegenerateInputError("final resultant in x5 vanished")
    coeffs = raw.coefficients_in("x3")
    fracs = [c.constant_value() for c in coeffs]
    eliminant = UniPoly.from_fractions(fracs)
    # content of the raw resultant relative to the normalized eliminant
    lead_idx = eliminant.degree
    raw_content = fracs[lead_idx] / eliminant.coeffs[-1]
    return EliminationResult(eliminant, h1, h2, raw_content)


def planted_k33_distances(points: Mapping[int, tuple[object, object]]) -> list[Fraction]:
    """Squared distances d1..d8 realized by exact coordinates for vertices 1..6.

    Vertices 1 and 2 must sit at (0,0) and (1,0) to respect the pinning.
    """
    pts = {v: (as_fraction(x), as_fraction(y)) for v, (x, y) in points.items()}
    if pts.get(1) != (Fraction(0), Fraction(0)) or pts.get(2) != (Fraction(1), Fraction(0)):
        raise InputError("vertices 1 and 2 must be pinned at (0,0) and (1,0)")
    out = []
    for (u, v), _ in K33_EDGE_PARAMETERS:
        dx = pts[u][0] - pts[v][0]
        dy = pts[u][1] - pts[v][1]
        out.append(dx * dx + dy * dy)
    return out


def x1_branch_report(distances: Sequence[object]) -> dict:
    """Whether the x3 = 1 root can extend to a full K(3,3) configuration.

    At the published specialization d1 = 1 forces y3 = 0, making points 2 and
    3 coincide, which is consistent only when d5 = d3; otherwise the branch is
    obstructed.  With d1 != 1 the coincidence argument does not apply.
    """
    d = [as_fraction(v) for v in distances]
    d1, d3, d5 = d[0], d[2], d[4]
    forces = d1 == 1
    return {
        "forces_coincidence": forces,
        "coincidence_obstructed": bool(forces and d3 != d5),
        "extends": bool(forces and d3 == d5),
    }
