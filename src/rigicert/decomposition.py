"""Block decomposition with virtual/redundant edges, the quadratic-solubility
classifier, and the reduction engine that drives every 3-connected non-basic
Laman graph down to a basic graph or the doublet.

Two different decompositions coexist deliberately.  Both cut a block at a
separation pair through `_split_block`, which builds each part's graph once,
and they differ in one place only: `decompose_unique` keeps redundant virtual
edges (connectivity bookkeeping for the reduction engine), while `qs_classify`
recurses on `Block.core()` of each part, so it re-examines freedom-0 parts as
plain Laman graphs and never records a redundant edge.  Conflating them
misclassifies blocks such as K4-minus-an-edge, which is quadratically soluble
yet 3-connected once its redundant edge is included.

A separation pair is an `Edge` (a, b), a < b.  Both decompositions split a
block at its least separation pair, the first one the enumeration
`_separating_sets` yields, so the split order is fixed and no block ever
lists all of its pairs; a block that the linear path search `_triconnected`
finds 3-connected is not scanned at all.  Each separation `decompose_unique`
performs is recorded once, as the `SeparationEvent` that holds the pair, the
parts' freedoms and whether ab was an edge.

No internal vertex after surgery.  A round replaces R, the maximal MI
(maximally independent) proper subgraph of the 3-connected Laman graph G
that `maximal_mi_subgraph` chooses, by a fan on R's attachment vertices,
giving h.  A set W is tight when it spans exactly 2|W| - 3 edges, and a
vertex is internal to W when all its neighbours lie in W; in an independent
graph the MI proper subgraphs of 3 or more vertices are the proper tight
sets.  When R has no internal vertex, no MI proper subgraph of h has one
either, so `_reduce_step` runs no MI search on h (a tier-1 test checks the
claim on every such round of its reductions).  The proof uses the union
lemma for sparse graphs (Lee & Streinu, "Pebble game algorithms and sparse
graphs", Discrete Math. 308, 2008): in an independent graph, two tight sets
A and B sharing at least 2 vertices have a tight union and intersection, and
no edge joins A - B to B - A.

`maximal_mi_subgraph` prefers a candidate with an internal vertex, so no
maximal MI proper subgraph of G has one.  Every vertex of R is an attachment
vertex, so V(h) = V(G), and h differs from G only on pairs inside V(R), where
the fan and R both have 2|V(R)| - 3 edges.  Suppose some proper tight set W
of h, |W| >= 3, has an internal vertex v.
- |W & V(R)| <= 1.  Then h[W] = G[W], so W is tight in G and lies in a
  maximal MI proper subgraph of G.  If v is outside V(R), its neighbours are
  the same in G and h, so v is internal to that maximal subgraph: excluded.
  If v is in V(R), its two fan-cycle neighbours are in V(R) but not in W.
- |W & V(R)| >= 2.  V(R) is tight in h, so U = W | V(R) is tight in h, and U
  spans as many edges in G, so it is tight in G.  If U is proper, the
  maximality of R gives U = V(R): W lies in V(R), and v, with no h-neighbour
  outside V(R), has no G-neighbour there either, so v is internal to R:
  excluded.  If U = V, take a in V(R) - W (W is proper): a has a G-neighbour
  b outside V(R), so b is in W - V(R), and ab, not inside V(R), is an edge of
  h joining W - V(R) to V(R) - W, which the lemma forbids.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import InputError, InternalInvariantError
from .graph import (
    Block,
    BlockDecomposition,
    Edge,
    Graph,
    SeparationEvent,
    _separating_sets,
    _triconnected,
    canonical_form,
    connected_components,
    contract_edge,
    edge,
    is_m_connected,
    is_planar,
)
from .rigidity import (
    _contractibility,
    _surgery,
    attachment_vertices,
    fan_edges,
    internal_vertices,
    is_basic,
    is_laman,
    maximal_mi_subgraph,
)


def _first_separation_pair(b: Block) -> Edge | None:
    """The least separation pair of a working block, virtual and redundant
    edges included; None for a 3-connected block and for one of fewer than 4
    vertices, which no pair separates.  One linear path search clears a
    3-connected block; only a block with a pair gets the ascending scan,
    which stops at its least pair."""
    g = b.subgraph
    if g.n < 4 or _triconnected(g):
        return None
    return next(_separating_sets(g, 2), None)


def _split_block(b: Block, pair: Edge) -> tuple[list[Block], SeparationEvent]:
    """One separation, the only code that cuts a graph at a pair: each
    component of G - {a, b} becomes one `Graph`, its induced edges plus ab.
    A missing ab is virtual, and redundant where the part's core, counted
    from its vertices and edges, already has freedom 0."""
    g = b.subgraph
    had_edge = pair in g.edges
    parts: list[Block] = []
    freedoms: list[int] = []
    for comp in connected_components(g, pair):
        edges = {edge(v, w) for v in comp for w in g.neighbors(v)} | {pair}
        virt = b.virtual_edges & edges
        red = b.redundant_flags & edges
        # the core: the part less its redundant edges, and less ab where G lacks it
        core_edges = len(edges) - len(red) - (not had_edge)
        core_free = 2 * (len(comp) + 2) - core_edges - 3
        freedoms.append(core_free)
        if not had_edge:
            virt |= {pair}
            if core_free == 0:
                red |= {pair}
        parts.append(Block(Graph(comp | set(pair), edges), virt, red))
    _assert_freedom_pattern(had_edge, freedoms, pair)
    return parts, SeparationEvent(pair, tuple(freedoms), had_edge)


def _assert_freedom_pattern(had_edge: bool, freedoms: list[int], pair: Edge) -> None:
    if any(f < 0 for f in freedoms):
        raise InternalInvariantError(f"separation at {pair} produced a block with negative freedom")
    if had_edge:
        if any(f != 0 for f in freedoms):
            raise InternalInvariantError(
                f"separation at {pair} with the edge present must give all-zero freedoms, got {freedoms}"
            )
    else:
        if sorted(freedoms) != [0] + [1] * (len(freedoms) - 1):
            raise InternalInvariantError(
                f"separation at {pair} must give one freedom-0 block and freedom-1 rest, got {freedoms}"
            )


def decompose_unique(g: Graph) -> BlockDecomposition:
    """The unique decomposition into 3-cycles and 3-connected blocks.

    Blocks are split first in, first out, each at its least separation pair.
    The block set does not depend on that order (the decomposition is unique),
    which the test-suite checks on relabelled inputs.  `events` lists the
    separations in the order they were performed.
    """
    if not is_laman(g):
        raise InputError("block decomposition is defined for Laman graphs")
    if g.n < 4:
        raise InputError("block decomposition needs at least 4 vertices")
    work = [Block(g)]
    done: list[Block] = []
    events: list[SeparationEvent] = []
    while work:
        b = work.pop(0)
        pair = _first_separation_pair(b)
        if pair is None:
            # With no separation pair a block of 4 or more vertices is 3-connected.
            if b.subgraph.n < 4 and not b.is_triangle():
                raise InternalInvariantError("final block is neither a 3-cycle nor 3-connected")
            done.append(b)
            continue
        if pair in b.virtual_edges:
            raise InternalInvariantError(
                "separation pair coincides with a virtual edge; "
                "a separation pair should never be reused"
            )
        parts, event = _split_block(b, pair)
        events.append(event)
        work.extend(parts)
    for b in done:
        if not is_laman(b.core()):
            raise InternalInvariantError("final block core is not maximally independent")
    if done and not any(not b.redundant_flags for b in done):
        raise InternalInvariantError("no block is free of redundant virtual edges")
    done.sort(key=lambda b: sorted(b.subgraph.vertices))
    return BlockDecomposition(tuple(done), tuple(events))


class Verdict(Enum):
    QS = "QS"
    NOT_RS_PROVEN_PLANAR = "NOT_RS_PROVEN_PLANAR"
    NOT_RS_CONJECTURED = "NOT_RS_CONJECTURED"


@dataclass(frozen=True)
class QSClassification:
    verdict: Verdict
    witness_blocks: tuple[Block, ...]


def qs_classify(g: Graph) -> QSClassification:
    """Quadratic solubility by recursive triangle decomposition.

    Freedom-1 parts get the virtual edge and freedom-0 parts are re-examined
    bare.  A Laman block of at most 3 vertices is an edge or a triangle, and
    both are QS; a 3-connected leaf of 4 or more vertices is a witness that
    the graph is not quadratically soluble.  A planar witness makes the overall
    not-RS verdict proven; otherwise it rests on the conjecture.  The
    recursion runs on an explicit stack, depth-first with the parts in
    order, so a deep chain of splits cannot exhaust the interpreter's
    recursion limit.
    """
    if not is_laman(g):
        raise InputError("QS classification is defined for Laman graphs")
    witnesses: list[Block] = []
    stack = [Block(g)]
    while stack:
        b = stack.pop()
        if b.subgraph.n <= 3:
            continue
        pair = _first_separation_pair(b)
        if pair is None:
            witnesses.append(b)
            continue
        parts, _ = _split_block(b, pair)
        stack.extend(Block(p.core(), p.virtual_edges - p.redundant_flags) for p in reversed(parts))
    if not witnesses:
        verdict = Verdict.QS
    elif any(is_planar(b.subgraph) for b in witnesses):
        verdict = Verdict.NOT_RS_PROVEN_PLANAR
    else:
        verdict = Verdict.NOT_RS_CONJECTURED
    return QSClassification(verdict, tuple(witnesses))


def is_doublet(g: Graph) -> bool:
    """The unique 3-connected non-basic Laman graph on 6 vertices."""
    return g.n == 6 and is_laman(g) and is_m_connected(g, 3) and not is_basic(g)


class StepKind(Enum):
    SURGERY = "SURGERY"
    CONTRACTION = "CONTRACTION"
    BLOCK_SPLIT = "BLOCK_SPLIT"


class TerminalKind(Enum):
    BASIC = "BASIC"
    DOUBLET = "DOUBLET"


# The step details are NamedTuples, not dataclasses: defining three frozen
# dataclasses adds about 3 ms to every CLI start.
class SurgeryDetail(NamedTuple):
    kind = StepKind.SURGERY
    replaced: Graph
    attachment: tuple[int, ...]


class ContractionDetail(NamedTuple):
    kind = StepKind.CONTRACTION
    edge: Edge


class BlockSplitDetail(NamedTuple):
    kind = StepKind.BLOCK_SPLIT
    decomposition: BlockDecomposition


@dataclass(frozen=True)
class StepRecord:
    input_graph: Graph
    output_graphs: tuple[Graph, ...]
    detail: SurgeryDetail | ContractionDetail | BlockSplitDetail

    @property
    def kind(self) -> StepKind:
        return self.detail.kind


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[StepRecord, ...]
    terminal: Graph
    terminal_kind: TerminalKind
    terminals: tuple[tuple[Graph, TerminalKind], ...]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def reduce_step(g: Graph) -> tuple[list[Graph], list[StepRecord]]:
    """One round of the reduction: surgery, then either a connectivity-safe
    contraction or a contraction followed by a block split.

    Every emitted graph is 3-connected, Laman, and strictly smaller unless the
    round was a pure surgery on an internal-vertex-free subgraph (in which
    case the follow-up contraction shrinks it).
    """
    _require(is_laman(g), "reduce_step requires a Laman graph")
    _require(is_m_connected(g, 3), "reduce_step requires a 3-connected graph")
    r = maximal_mi_subgraph(g)
    _require(r is not None, "reduce_step requires a non-basic graph (already terminal)")
    return _reduce_step(g, r)


def _reduce_step(g: Graph, r: Graph) -> tuple[list[Graph], list[StepRecord]]:
    """`reduce_step` on a 3-connected Laman graph whose maximal MI subgraph,
    as `maximal_mi_subgraph` chooses it, is r."""
    _require(g.n > 6, "reduce_step requires more than 6 vertices (doublet is terminal)")
    h = _surgery(g, r)
    cycle = tuple(attachment_vertices(g, r.vertices))
    records = [StepRecord(g, (h,), SurgeryDetail(r, cycle))]
    if internal_vertices(g, r.vertices):
        if not is_m_connected(h, 3):
            raise InternalInvariantError("surgery produced a graph that is not 3-connected")
        return [h], records

    if not is_laman(h):
        raise InternalInvariantError("surgery produced a graph that is not Laman")
    # No MI proper subgraph of h has an internal vertex either, which the
    # contraction case split below relies on; the module docstring proves it
    # ("No internal vertex after surgery").
    contractible = _contractibility(h)
    cycle_edges = sorted(fan_edges(cycle)[: len(cycle)])
    for e in cycle_edges:
        if not contractible(e):
            raise InternalInvariantError(f"surgery cycle edge {e} is not contractible")

    for f in h.sorted_edges():
        if contractible(f):
            contracted = contract_edge(h, f)
            if is_m_connected(contracted, 3):
                records.append(StepRecord(h, (contracted,), ContractionDetail(f)))
                return [contracted], records

    e = cycle_edges[0]
    contracted = contract_edge(h, e)
    records.append(StepRecord(h, (contracted,), ContractionDetail(e)))
    decomposition = decompose_unique(contracted)
    emitted: list[Graph] = []
    for b in decomposition.blocks:
        if b.redundant_flags:
            continue
        block_graph = b.core()
        if not is_m_connected(block_graph, 3):
            raise InternalInvariantError(
                "redundant-free separation block is not 3-connected; the case split guarantees it"
            )
        emitted.append(block_graph)
    if not emitted:
        raise InternalInvariantError("no redundant-free block to recurse into; one always exists")
    if len(emitted) > 1:  # canonical_form is capped; a lone block needs no order
        emitted.sort(key=canonical_form)
    records.append(StepRecord(contracted, tuple(emitted), BlockSplitDetail(decomposition)))
    return emitted, records


def reduce_to_terminal(g: Graph) -> ReductionTrace:
    """Depth-first reduction until every branch hits a basic graph or the doublet.

    Each graph's 3-connectivity is established once, when it is made, and
    its maximal MI subgraphs are searched once: by `is_basic` on 6 vertices
    (K(3,3) or the doublet), else by `maximal_mi_subgraph`, which is None
    for a basic graph and otherwise the subgraph its round replaces."""
    _require(is_laman(g), "reduction requires a Laman graph")
    _require(is_m_connected(g, 3), "reduction requires a 3-connected graph")
    steps: list[StepRecord] = []
    terminals: list[tuple[Graph, TerminalKind]] = []
    stack = [g]
    while stack:
        h = stack.pop()
        if h.n == 6:  # h is Laman and 3-connected: `is_doublet` unless basic
            terminals.append((h, TerminalKind.BASIC if is_basic(h) else TerminalKind.DOUBLET))
            continue
        r = maximal_mi_subgraph(h)
        if r is None:
            terminals.append((h, TerminalKind.BASIC))
            continue
        children, records = _reduce_step(h, r)
        steps.extend(records)
        if not all(map(is_laman, children)):
            raise InternalInvariantError("the reduction produced a graph that is not Laman")
        stack.extend(reversed(children))
    first = terminals[0]
    return ReductionTrace(tuple(steps), first[0], first[1], tuple(terminals))
