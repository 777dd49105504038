"""Spans around rigicert's public functions, recorded without touching src/.

`Tracer.install` rebinds each listed function in every loaded rigicert module
whose namespace holds it, which covers both imported names and calls from
inside the defining module.  Helpers called once per vertex subset
(`freedom_number`, `induced_subgraph`, ...) stay unwrapped to keep the
overhead small.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function, span name); None as the name means "derive it per call".
SPANS = (
    ("rigicert.graph", "parse_graph", "graph.parse_graph"),
    ("rigicert.graph", "is_planar", "graph.is_planar"),
    ("rigicert.graph", "separation_pairs", "graph.separation_pairs"),
    ("rigicert.graph", "is_m_connected", "graph.is_m_connected"),
    ("rigicert.graph", "canonical_form", "graph.canonical_form"),
    ("rigicert.rigidity", "is_laman", "rigidity.is_laman"),
    ("rigicert.rigidity", "is_basic", "rigidity.is_basic"),
    ("rigicert.rigidity", "mi_proper_subgraphs", "rigidity.mi_proper_subgraphs"),
    ("rigicert.rigidity", "maximal_mi_subgraph", "rigidity.maximal_mi_subgraph"),
    ("rigicert.rigidity", "enumerate_laman", "rigidity.enumerate_laman"),
    ("rigicert.rigidity", "surgery", "rigidity.surgery"),
    ("rigicert.decomposition", "decompose_unique", "decomposition.decompose_unique"),
    ("rigicert.decomposition", "qs_classify", "decomposition.qs_classify"),
    ("rigicert.decomposition", "reduce_step", "decomposition.reduce_step"),
    ("rigicert.decomposition", "reduce_to_terminal", "decomposition.reduce_to_terminal"),
    ("rigicert.algebra.systems", "square_eliminate_y", "algebra.systems.square_eliminate_y"),
    ("rigicert.algebra.systems", "eliminate_to_x3", "algebra.systems.eliminate_to_x3"),
    ("rigicert.algebra.multipoly", "resultant", None),
    ("rigicert.algebra.unipoly", "factor_over_q", "algebra.unipoly.factor_over_q"),
    ("rigicert.algebra.unipoly", "degree_multiset_mod", "algebra.unipoly.degree_multiset_mod"),
    ("rigicert.algebra.solubility", "nonsolubility_certificate", "algebra.solubility.nonsolubility_certificate"),
    ("rigicert.algebra.embeddings", "qs_solve", "algebra.embeddings.qs_solve"),
    # building the report JSON and rendering it
    ("rigicert.cli", "graph_json", "cli.render"),
    ("rigicert.cli", "block_json", "cli.render"),
    ("rigicert.cli", "step_json", "cli.render"),
    ("rigicert.cli", "certificate_json", "cli.render"),
    ("rigicert.cli", "multipoly_json", "cli.render"),
    ("rigicert.cli", "unipoly_json", "cli.render"),
    ("rigicert.cli", "render_report", "cli.render"),
)

#: Spans whose call counts are reported next to their self time.
COUNTED = (
    "graph.is_planar", "graph.separation_pairs", "graph.is_m_connected", "graph.canonical_form",
    "rigidity.is_laman", "rigidity.is_basic", "rigidity.mi_proper_subgraphs", "rigidity.maximal_mi_subgraph",
    "decomposition.reduce_step", "algebra.unipoly.factor_over_q", "algebra.unipoly.degree_multiset_mod",
    "algebra.embeddings.qs_solve",
)


def _resultant_name(args, kwargs) -> str:
    var = kwargs["var"] if "var" in kwargs else args[2]
    return f"algebra.multipoly.resultant.{var}"


class Tracer:
    """Records (name, start, end, parent, item) spans and counts read from
    the objects the traced functions return."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        #: span index of each certificate -> its verdict, to attribute the
        #: sieve's degree_multiset_mod calls
        self.verdicts: dict[int, str] = {}
        self.item = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def begin_item(self, item_id: int) -> None:
        self.item = item_id

    def _wrap(self, fn, name):
        spans, stack, on_result = self.spans, self._stack, _RESULT_COUNTERS.get(fn.__name__)

        def traced(*args, **kwargs):
            span_name = name if name is not None else _resultant_name(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.item)
            if on_result is not None:
                on_result(self, index, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _bind(self) -> list[tuple[object, str, object, object]]:
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("rigicert") and m is not None]
        bindings = []
        for module_name, attr, span in SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        bindings.append((module, key, original, wrapper))
        return bindings

    def install(self) -> None:
        if not self._bindings:
            self._bindings = self._bind()
        for module, key, _, wrapper in self._bindings:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _ in self._bindings:
            setattr(module, key, original)

    def layer_metrics(self) -> dict[str, float]:
        """Self time (span minus child spans) per name, in ms, and call counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] += (end - start - child[i]) * 1000.0
            calls[name] += 1
        out: dict[str, float] = {}
        for _, _, span in SPANS:
            for name in ([span] if span else [f"algebra.multipoly.resultant.{v}" for v in ("x4", "x6", "x5")]):
                out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        # primes scanned: the sieve's own degree_multiset_mod calls, made
        # directly from the certificate (primes dividing the leading
        # coefficient are skipped without one)
        counts = Counter(self.counts)
        for name, _, _, parent, _ in self.spans:
            if name == "algebra.unipoly.degree_multiset_mod" and parent in self.verdicts:
                counts[f"algebra.solubility.primes_scanned.{self.verdicts[parent]}"] += 1
        for name in RESULT_COUNTS:
            out[name] = counts.get(name, 0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_s\tend_s\tparent\titem\n")
            for span in self.spans:
                handle.write("%s\t%.9f\t%.9f\t%d\t%d\n" % span)


# ---------------------------------------------------------------------------
# counts read from returned objects


def _count_reduction(tracer: Tracer, index: int, trace) -> None:
    counts = tracer.counts
    for step in trace.steps:
        counts[f"decomposition.steps.{step.kind.value.lower()}"] += 1
    counts["decomposition.terminals"] += len(trace.terminals)


def _count_elimination(tracer: Tracer, index: int, result) -> None:
    counts = tracer.counts
    counts["algebra.multipoly.eliminant_degree"] += result.eliminant.degree
    bits = max(abs(c).bit_length() for c in result.eliminant.coeffs)
    counts["algebra.multipoly.eliminant_max_bits"] = max(counts["algebra.multipoly.eliminant_max_bits"], bits)


def _count_certificate(tracer: Tracer, index: int, cert) -> None:
    verdict = cert.verdict.value.lower()
    tracer.verdicts[index] = verdict
    tracer.counts[f"algebra.solubility.verdicts.{verdict}"] += 1


def _count_branches(tracer: Tracer, index: int, embeddings) -> None:
    tracer.counts["algebra.embeddings.branches"] += len(embeddings)


_RESULT_COUNTERS = {
    "reduce_to_terminal": _count_reduction,
    "eliminate_to_x3": _count_elimination,
    "nonsolubility_certificate": _count_certificate,
    "qs_solve": _count_branches,
}

RESULT_COUNTS = (
    "decomposition.steps.surgery", "decomposition.steps.contraction", "decomposition.steps.block_split",
    "decomposition.terminals",
    "algebra.multipoly.eliminant_degree", "algebra.multipoly.eliminant_max_bits",
    "algebra.solubility.primes_scanned.not_soluble", "algebra.solubility.primes_scanned.inconclusive",
    "algebra.solubility.verdicts.not_soluble", "algebra.solubility.verdicts.inconclusive",
    "algebra.embeddings.branches",
)
