"""Exhaustive oracles the tests check rigicert's fast routines against.

Each scans every vertex subset, edge set, branch set or prime directly, or
keeps a slower definition the package has replaced (contractibility by
contracting, separating vertex sets by one component walk per subset, a
rigid component as the largest tight vertex set through an edge, the pebble
game's rigid components of every edge of every G - x on a game of its own,
Hensel lifting with s and t lifted at every step, the canonical form by
a recursive search on labels, the census by plain Henneberg closure, the
resultant's subresultant sequence over Fraction-valued polynomials, the
integer gcd by a primitive polynomial remainder sequence, powers in
GF(q)[x]/(f) on coefficient lists, the sieve's rule prefixes from every
partition of n, the construction order by rebuilding the graph per stripped
vertex or by scanning every remaining vertex per step, the GF(q) gcd and the
distinct-degree steps by long division on coefficient lists).
None of them is used by the package itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from rigicert.algebra.multipoly import MultiPoly
from rigicert.algebra.solubility import _rule_hit
from rigicert.algebra.unipoly import (
    UniPoly,
    degree_multiset_mod,
    gf_add,
    gf_divmod,
    gf_from_int,
    gf_monic,
    gf_mul,
    gf_sub,
    primes_up_to,
)
from rigicert.errors import (
    DegenerateInputError,
    InputError,
    InternalInvariantError,
    NotQuadraticallyConstructibleError,
    UnsupportedSizeError,
)
from rigicert.graph import Edge, Graph, canonical_form, connected_components, contract_edge, edge
from rigicert.rigidity import _PebbleGame, is_laman, triangles_through


def _subset_edge_counts(g: Graph, min_size: int, max_size: int):
    """(subset, edge count of the induced subgraph) for every vertex subset
    of the given sizes, by bit counting over the adjacency."""
    verts = g.sorted_vertices()
    index = {v: i for i, v in enumerate(verts)}
    adj_bits = {v: 0 for v in verts}
    for u, v in g.edges:
        adj_bits[u] |= 1 << index[v]
        adj_bits[v] |= 1 << index[u]
    for size in range(min_size, max_size + 1):
        for subset in itertools.combinations(verts, size):
            mask = 0
            for v in subset:
                mask |= 1 << index[v]
            yield subset, sum((adj_bits[v] & mask).bit_count() for v in subset) // 2


def is_independent_exhaustive(g: Graph) -> bool:
    """Brute-force independence over all vertex subsets; induced subgraphs
    suffice because dropping edges only raises 2n - e."""
    return all(2 * len(subset) - e >= 3 for subset, e in _subset_edge_counts(g, 2, g.n))


def rigid_component_exhaustive(g: Graph, u: int, v: int) -> frozenset[int]:
    """The rigid component of the edge uv of an independent graph by
    definition: the largest vertex set S holding u and v whose induced
    subgraph has 2|S| - 3 edges.  Two such tight sets that share an edge have
    a tight union, so the largest is unique and holds every other."""
    tight = [
        frozenset(subset)
        for subset, e in _subset_edge_counts(g, 2, g.n)
        if u in subset and v in subset and e == 2 * len(subset) - 3
    ]
    return max(tight, key=len)


def mi_subgraphs_exhaustive(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of every proper induced subgraph (>= 3 vertices) with
    freedom 0.  For an independent graph these are exactly its maximally
    independent proper subgraphs: a non-induced one would force the induced
    closure below 0."""
    return [
        frozenset(subset)
        for subset, e in _subset_edge_counts(g, 3, g.n - 1)
        if 2 * len(subset) - e - 3 == 0
    ]


def containment_maximal(family: list[frozenset[int]]) -> list[frozenset[int]]:
    """The members of `family` inside no other member, ordered by their
    ascending vertex lists."""
    return sorted((w for w in family if not any(w < other for other in family)), key=sorted)


class VertexDeletedGame(_PebbleGame):
    """The pebble game with G - x played by releasing x's edges from a copy,
    and a rigid component read from the game's own free pebbles alone."""

    def without_vertex(self, x: int) -> VertexDeletedGame:
        """The game on G - x: x's edges removed, their pebbles back with their owners."""
        i = self.index[x]
        game = VertexDeletedGame.__new__(VertexDeletedGame)
        game.labels, game.index, game.independent = self.labels, self.index, self.independent
        game.pebbles = pebbles = self.pebbles.copy()
        game.out = out = list(map(list.copy, self.out))
        game.into = into = list(map(set.copy, self.into))
        for tail in self.into[i]:
            out[tail].remove(i)
            pebbles[tail] += 1
        for head in self.out[i]:
            into[head].discard(i)
        pebbles[i], out[i], into[i] = 2, [], set()
        return game

    def rigid_component(self, u: int, v: int) -> frozenset[int]:
        """The rigid component holding the edge uv: with three pebbles on uv,
        the vertices that cannot fetch a free pebble from outside uv, found by
        a search against the orientation from the free pebbles."""
        i, j = self.index[u], self.index[v]
        if not self._gather(i, j, 3):
            raise InternalInvariantError(f"edge {(u, v)} cannot hold three pebbles")
        loose = [bool(p) and k not in (i, j) for k, p in enumerate(self.pebbles)]
        stack = [k for k, flag in enumerate(loose) if flag]
        while stack:
            for w in self.into[stack.pop()]:
                if not loose[w]:
                    loose[w] = True
                    stack.append(w)
        return frozenset(label for label, flag in zip(self.labels, loose) if not flag)


def mi_proper_subgraphs_all_vertex_scan(g: Graph) -> list[frozenset[int]]:
    """`mi_proper_subgraphs` from the rigid component of every edge of every
    G - x, each G - x on its own game with x's edges released, skipping only
    edges inside a component already found for that x: each maximal MI
    proper subgraph W is a component of G - x for x not in W."""
    final = VertexDeletedGame(g)
    if not final.independent:
        raise InputError("maximally independent subgraphs are defined for independent graphs")
    found: set[frozenset[int]] = set()
    for x in g.sorted_vertices():
        game = final.without_vertex(x)
        components: list[frozenset[int]] = []
        for u, v in g.sorted_edges():
            if x not in (u, v) and not any(u in c and v in c for c in components):
                component = game.rigid_component(u, v)
                if len(component) >= 3:
                    components.append(component)
        found.update(components)
    return containment_maximal(list(found))


def _hensel_step(m2: int, f, g, h, s, t):
    """One quadratic lift: inputs satisfy f = g*h and s*g + t*h = 1 (mod m),
    h monic; outputs satisfy the same mod m2, which may be any divisor of m**2."""
    mul = lambda a, b: gf_mul(a, b, m2)
    sub = lambda a, b: gf_sub(a, b, m2)
    add = lambda a, b: gf_add(a, b, m2)
    e = sub(gf_from_int(f, m2), mul(g, h))
    q_, r_ = gf_divmod(mul(s, e), h, m2)
    g_star = add(add(g, mul(t, e)), mul(q_, g))
    h_star = add(h, r_)
    b = sub(add(mul(s, g_star), mul(t, h_star)), [1])
    c_, d_ = gf_divmod(mul(s, b), h_star, m2)
    s_star = sub(s, d_)
    t_star = sub(sub(t, mul(t, b)), mul(c_, g_star))
    return g_star, h_star, s_star, t_star


def lift_pair_every_step(moduli: list[int], f, g, h, s, t):
    """`unipoly._lift_pair` with s and t lifted at every step, the last included."""
    for m2 in moduli:
        g, h, s, t = _hensel_step(m2, f, g, h, s, t)
    return g, h


def is_contractible_by_contraction(g: Graph, e: Edge) -> bool:
    """`is_contractible` by definition: contract e and test the result."""
    e = edge(*e)
    if not is_laman(g):
        raise InputError("contractibility is defined for Laman graphs")
    if e not in g.edges:
        raise InputError(f"edge {e} not in the graph")
    if len(triangles_through(g, e)) != 1:
        return False
    return is_laman(contract_edge(g, e))


def separating_sets_exhaustive(g: Graph, size: int) -> list[tuple[int, ...]]:
    """`graph._separating_sets` by definition: every `size`-subset of V, in
    ascending combination order, whose removal leaves more than one component,
    each tested by its own component walk."""
    return [
        removed
        for removed in itertools.combinations(g.sorted_vertices(), size)
        if len(connected_components(g, removed)) > 1
    ]


def enumerate_laman_exhaustive(n: int) -> set[bytes]:
    """Independent census oracle: scan every edge set of size 2n-3 directly.

    Uses the exhaustive subgraph independence check, not the pebble game, so
    the two census routes share no code path.
    """
    if n < 3 or n > 6:
        raise UnsupportedSizeError("exhaustive census oracle supports 3 <= n <= 6")
    verts = list(range(n))
    all_edges = list(itertools.combinations(verts, 2))
    found: set[bytes] = set()
    for chosen in itertools.combinations(all_edges, 2 * n - 3):
        g = Graph(verts, chosen)
        if any(g.degree(v) == 0 for v in verts):
            continue
        if is_independent_exhaustive(g):
            found.add(canonical_form(g))
    return found


def _refine_colors_by_label(order: list[int], adj: dict[int, frozenset[int]]) -> dict[int, int]:
    """Iterated neighbourhood-degree refinement on labels, stopped only when a
    round returns the same colours."""
    color = {v: len(adj[v]) for v in order}
    while True:
        sig = {v: (color[v], tuple(sorted(color[w] for w in adj[v]))) for v in order}
        ranks = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new_color = {v: ranks[sig[v]] for v in order}
        if new_color == color:
            return color
        color = new_color


def canonical_form_recursive(g: Graph) -> bytes:
    """`canonical_form` by its definition on labels: the least upper-triangular
    adjacency bit matrix over the orderings that respect the refined classes,
    found by a recursive search with the same best-prefix prune."""
    n = g.n
    verts = g.sorted_vertices()
    if n <= 1:
        return f"{n}:".encode()
    adj = {v: g.neighbors(v) for v in verts}
    color = _refine_colors_by_label(verts, adj)
    classes: dict[int, list[int]] = {}
    for v in verts:
        classes.setdefault(color[v], []).append(v)
    class_list = [classes[c] for c in sorted(classes)]
    total_bits = n * (n - 1) // 2
    best: int | None = None

    def extend(prefix: list[int], remaining: list[list[int]], acc: int, bits: int):
        nonlocal best
        if not remaining:
            if best is None or acc < best:
                best = acc
            return
        head, *tail = remaining
        for i, v in enumerate(head):
            acc2 = acc
            for u in prefix:
                acc2 = (acc2 << 1) | (1 if v in adj[u] else 0)
            bits2 = bits + len(prefix)
            if best is not None and acc2 > (best >> (total_bits - bits2)):
                continue
            rest = head[:i] + head[i + 1 :]
            extend(prefix + [v], ([rest] if rest else []) + tail, acc2, bits2)

    extend([], class_list, 0, 0)
    assert best is not None
    width = max(1, (total_bits + 3) // 4)
    return f"{n}:{best:0{width}x}".encode()


def automorphism_count_exhaustive(g: Graph) -> int:
    """The number of vertex permutations that map G's edge set onto itself."""
    verts = g.sorted_vertices()
    count = 0
    for image in itertools.permutations(verts):
        sigma = dict(zip(verts, image))
        if all(edge(sigma[u], sigma[v]) in g.edges for u, v in g.edges):
            count += 1
    return count


def henneberg_children_by_label(g: Graph) -> list[Graph]:
    """Every one-vertex Henneberg extension of G, in the census's move order:
    move I on each vertex pair, then move II on each edge and third vertex."""
    new = max(g.vertices) + 1
    children = []
    for u, v in itertools.combinations(g.sorted_vertices(), 2):
        children.append(Graph(g.vertices | {new}, g.edges | {edge(u, new), edge(v, new)}))
    for u, v in g.sorted_edges():
        for z in g.sorted_vertices():
            if z in (u, v):
                continue
            children.append(
                Graph(
                    g.vertices | {new},
                    (g.edges - {edge(u, v)}) | {edge(u, new), edge(v, new), edge(z, new)},
                )
            )
    return children


def enumerate_laman_closure(n: int) -> tuple[list[bytes], list[bytes], list[Graph]]:
    """The census by plain Henneberg closure: every child of every class is
    keyed by `canonical_form_recursive`, the first child of each new key is
    kept, and the basic ones are found by the MI search.  Returns the sorted
    forms, the basic forms among them and the representatives in form order."""
    triangle = Graph({0, 1, 2}, [(0, 1), (0, 2), (1, 2)])
    level = {canonical_form_recursive(triangle): triangle}
    for _ in range(3, n):
        next_level: dict[bytes, Graph] = {}
        for parent in level.values():
            for child in henneberg_children_by_label(parent):
                next_level.setdefault(canonical_form_recursive(child), child)
        level = next_level
    forms = sorted(level)
    reps = [level[f] for f in forms]
    basics = [f for f, g in zip(forms, reps) if not mi_proper_subgraphs_all_vertex_scan(g)]
    return forms, basics, reps


def _disjoint_paths_exist(
    g: Graph,
    demands: list[tuple[int, int]],
    branch: frozenset[int],
    used: set[int],
) -> bool:
    """Try to route all demand pairs with pairwise internally disjoint paths.

    Interior vertices must avoid the branch vertices and anything already used.
    """
    if not demands:
        return True
    a, b = demands[0]

    def dfs_path(v: int, interior: list[int], on_path: set[int]) -> bool:
        for w in sorted(g.neighbors(v)):
            if w == b:
                for x in interior:
                    used.add(x)
                if _disjoint_paths_exist(g, demands[1:], branch, used):
                    return True
                for x in interior:
                    used.discard(x)
                continue
            if w in branch or w in used or w in on_path:
                continue
            on_path.add(w)
            interior.append(w)
            if dfs_path(w, interior, on_path):
                return True
            interior.pop()
            on_path.discard(w)
        return False

    if g.has_edge(a, b):
        if _disjoint_paths_exist(g, demands[1:], branch, used):
            return True
    return dfs_path(a, [], {a})


def _has_subdivision(g: Graph, pattern: str) -> bool:
    verts = g.sorted_vertices()
    if pattern == "K5":
        candidates = [v for v in verts if g.degree(v) >= 4]
        if len(candidates) < 5:
            return False
        for branch in itertools.combinations(candidates, 5):
            demands = list(itertools.combinations(branch, 2))
            if _disjoint_paths_exist(g, demands, frozenset(branch), set()):
                return True
        return False
    if pattern == "K33":
        candidates = [v for v in verts if g.degree(v) >= 3]
        if len(candidates) < 6:
            return False
        for six in itertools.combinations(candidates, 6):
            for left in itertools.combinations(six, 3):
                if six[0] not in left:
                    continue  # fix the lowest vertex on the left side to halve the work
                right = tuple(v for v in six if v not in left)
                demands = [(u, v) for u in left for v in right]
                if _disjoint_paths_exist(g, demands, frozenset(six), set()):
                    return True
        return False
    raise ValueError(pattern)


def is_planar_kuratowski(g: Graph) -> bool:
    """Kuratowski's criterion searched directly: no subdivision of K5 or K(3,3)
    on any 5- or 6-vertex branch set.  Exponential; n <= 10 only."""
    if g.n > 10:
        raise UnsupportedSizeError("Kuratowski oracle supports n <= 10")
    return not (_has_subdivision(g, "K5") or _has_subdivision(g, "K33"))


def sylvester_matrix(f: MultiPoly, g: MultiPoly, var: str) -> list[list[MultiPoly]]:
    """The (deg f + deg g) Sylvester matrix in `var`, f-rows first."""

    def coefficients(p: MultiPoly) -> list[MultiPoly]:
        coeffs = p.coefficients_in(var)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        return coeffs

    a, b = coefficients(f), coefficients(g)
    da, db = len(a) - 1, len(b) - 1
    if da < 1 and db < 1:
        raise DegenerateInputError(f"neither polynomial involves {var!r}")
    n = da + db
    zero = MultiPoly.zero(f.variables)
    rows = []
    for i in range(db):
        row = [zero] * n
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(da):
        row = [zero] * n
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    return rows


def divexact(a: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    """Exact division by lexicographic leading terms; raises if the divisor
    does not divide evenly."""
    if divisor.is_zero():
        raise InputError("division by the zero polynomial")
    remainder = dict(a.terms)
    quotient: dict[tuple[int, ...], Fraction] = {}
    lead_e = max(divisor.terms)
    lead_c = divisor.terms[lead_e]
    while remainder:
        exps = max(remainder)
        q_exps = tuple(x - y for x, y in zip(exps, lead_e))
        if any(e < 0 for e in q_exps):
            raise InternalInvariantError("inexact polynomial division")
        q_coeff = remainder[exps] / lead_c
        quotient[q_exps] = q_coeff
        for d_exps, d_coeff in divisor.terms.items():
            key = tuple(x + y for x, y in zip(q_exps, d_exps))
            val = remainder.get(key, Fraction(0)) - q_coeff * d_coeff
            if val:
                remainder[key] = val
            else:
                remainder.pop(key, None)
    return MultiPoly(a.variables, quotient)


def _strip(coeffs: list[MultiPoly]) -> list[MultiPoly]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _pseudo_remainder(a: list[MultiPoly], b: list[MultiPoly]) -> list[MultiPoly]:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, all over the coefficient ring."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    e = len(a) - len(b) + 1
    while _strip(r) and len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [c * lb for c in r[:-1]]
        for i, bc in enumerate(b[:-1]):
            r[shift + i] = r[shift + i] - lr * bc
        e -= 1
        _strip(r)
    if e > 0:
        scale = lb**e
        r = [c * scale for c in r]
    return _strip(r)


def resultant_fraction_prs(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """`resultant` by the same subresultant sequence run on Fraction-valued
    MultiPoly coefficients, with no integer scaling and no dense form."""
    if f.is_zero() or g.is_zero():
        raise InputError("resultant requires nonzero polynomials")
    a = _strip(f.coefficients_in(var))
    b = _strip(g.coefficients_in(var))
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        raise DegenerateInputError(f"neither polynomial involves {var!r}")
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    sign = -1 if (da % 2 == 1 and db % 2 == 1 and da < db) else 1
    if da < db:
        a, b = b, a
    one = MultiPoly.constant(f.variables, 1)
    g_prev, h_prev = one, one
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return MultiPoly.zero(f.variables)
        a = b
        divisor = g_prev * (h_prev**delta)
        b = [divexact(c, divisor) for c in r]
        g_prev = a[-1]
        if delta == 1:
            h_prev = g_prev
        elif delta > 1:
            h_prev = divexact(g_prev**delta, h_prev ** (delta - 1))
        if len(b) - 1 == 0:
            d_last = len(a) - 1
            numerator = b[0] ** d_last
            if d_last > 1:
                numerator = divexact(numerator, h_prev ** (d_last - 1))
            return numerator if sign == 1 else -numerator


def _pseudo_rem_int(a: list[int], b: list[int]) -> list[int]:
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db and any(r):
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [c * lb for c in r[:-1]]
        for i in range(db):
            r[shift + i] -= lr * b[i]
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd_prs(a: UniPoly, b: UniPoly) -> UniPoly:
    """`poly_gcd` by a primitive PRS over Z: pseudo-remainders, stripped to
    their primitive parts each step."""
    if a.is_zero():
        return b.normalized()
    if b.is_zero():
        return a.normalized()
    cont = math.gcd(a.content(), b.content())
    f, g = list(a.normalized().coeffs), list(b.normalized().coeffs)
    if len(f) < len(g):
        f, g = g, f
    while True:
        r = _pseudo_rem_int(f, g)
        if not r:
            gcd_part = UniPoly(g).normalized()
            break
        c = math.gcd(*r)
        r = [x // c for x in r]
        f, g = g, r
        if len(g) == 1:
            gcd_part = UniPoly([1])
            break
    return gcd_part.scale(cont)


def gf_rem(a: list[int], b: list[int], q: int) -> list[int]:
    return gf_divmod(a, b, q)[1]


def gf_pow_mod(base: list[int], exp: int, f: list[int], q: int) -> list[int]:
    result = [1]
    base = gf_rem(base, f, q)
    while exp:
        if exp & 1:
            result = gf_rem(gf_mul(result, base, q), f, q)
        base = gf_rem(gf_mul(base, base, q), f, q)
        exp >>= 1
    return result


def gf_gcd_by_lists(a: list[int], b: list[int], q: int) -> list[int]:
    """The monic gcd over GF(q) by Euclid's long division on coefficient lists."""
    while b:
        a, b = b, gf_rem(a, b, q)
    return gf_monic(a, q)


def distinct_degree_steps_by_lists(f: list[int], q: int) -> list[tuple[list[int], int]]:
    """`unipoly._distinct_degree_steps` on coefficient lists: x^(q^d) mod f
    by square-and-multiply, then one list gcd and one list division."""
    work, h, d, steps = list(f), [0, 1], 0, []
    while len(work) > 1:
        d += 1
        if 2 * d > len(work) - 1:
            steps.append((work, len(work) - 1))
            break
        h = gf_pow_mod(h, q, f, q)
        g = gf_gcd_by_lists(gf_sub(h, [0, 1], q), work, q)
        if len(g) > 1:
            work = gf_divmod(work, g, q)[0]
        steps.append((g, d))
    return steps


def poly_is_not_squarefree(p: UniPoly) -> bool:
    return poly_gcd_prs(p, p.derivative()).degree > 0


def frobenius_cycle_types(p: UniPoly, prime_bound: int) -> tuple[list[tuple[int, tuple[int, ...] | None]], list[int]]:
    """(prime, degree multiset) for p modulo every prime up to the bound.

    Primes dividing the leading coefficient are skipped and returned in the
    second list; primes where the reduction is not squarefree stay in the
    report with None (they give no Frobenius cycle type).
    """
    if p.is_zero() or p.degree < 1:
        raise InputError("cycle types need a nonconstant polynomial")
    if poly_is_not_squarefree(p):
        raise InputError("polynomial must be squarefree over the rationals")
    reports, skipped = [], []
    for q in primes_up_to(prime_bound):
        if p.leading % q == 0:
            skipped.append(q)
            continue
        reports.append((q, degree_multiset_mod(p, q)))
    return reports, skipped


def rule_prefixes_from_partitions(n: int) -> set[tuple[int, ...]]:
    """`_rule_prefixes` as it was first defined: `_rule_hit` on every
    partition of n, each partition built by recursion on its largest part."""
    def partitions(rest: int, largest: int):
        if rest == 0:
            yield ()
        for part in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - part, part):
                yield tail + (part,)

    prefixes = set()
    for t in partitions(n, n):
        if _rule_hit(t, n) is not None:
            counts = tuple(t.count(i) for i in range(1, n + 1))
            prefixes.update(counts[:d] for d in range(1, n + 1))
    return prefixes


def construction_order_by_rebuild(graph: Graph, base: Edge) -> list[tuple[int, int, int]]:
    """`construction_order` by stripping the smallest-label non-base vertex
    of degree 2 and rebuilding the graph without it, then checking that the
    strip ended on the base edge."""
    base = edge(*base)
    if base not in graph.edges:
        raise InputError(f"base {base} is not an edge of the graph")
    work = graph
    stripped = []
    while work.n > 2:
        candidate = next((v for v in work.sorted_vertices() if v not in base and work.degree(v) == 2), None)
        if candidate is None:
            raise NotQuadraticallyConstructibleError(
                "no degree-2 vertex left to strip; the graph is not a triangular quadratic chain"
            )
        a, b = sorted(work.neighbors(candidate))
        stripped.append((candidate, a, b))
        work = Graph(work.vertices - {candidate}, [e for e in work.edges if candidate not in e])
    if work.edges != {base}:
        raise NotQuadraticallyConstructibleError(
            "stripping did not end on the base edge; distances do not form a quadratic chain"
        )
    return list(reversed(stripped))


def construction_order_by_scan(graph: Graph, base: Edge) -> list[tuple[int, int, int]]:
    """`construction_order` on one degree table, scanning every remaining
    vertex for the smallest-label non-base one of degree 2 at each step."""
    base = edge(*base)
    if base not in graph.edges:
        raise InputError(f"base {base} is not an edge of the graph")
    degree = {v: graph.degree(v) for v in graph.vertices}
    stripped: list[tuple[int, int, int]] = []
    while len(degree) > 2:
        candidate = min((v for v, k in degree.items() if k == 2 and v not in base), default=None)
        if candidate is None:
            raise NotQuadraticallyConstructibleError(
                "no degree-2 vertex left to strip; the graph is not a triangular quadratic chain"
            )
        del degree[candidate]
        a, b = sorted(u for u in graph.neighbors(candidate) if u in degree)
        degree[a] -= 1
        degree[b] -= 1
        stripped.append((candidate, a, b))
    return list(reversed(stripped))
