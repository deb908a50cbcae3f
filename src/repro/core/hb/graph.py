"""Happens-before graph (paper, Section 5.2.1).

WebRacer "represents the happens-before relation rather directly as a graph
structure" and answers CHC queries by walking it.  :class:`HBGraph` keeps
the same graph — rule-labeled edges for serialization, rule audits, witness
paths and SHB prediction — but answers queries from the incremental chain
clocks of :mod:`repro.core.hb.chains` that it extends, the "more efficient
vector-clock representation" the paper names as future work.  Each edge is
stored once: the clocks read the graph's own predecessor lists and rule
labels.

The browser adds operations in execution order and obeys the discipline
that **every incoming edge of an operation is added before that operation
performs its first access** (edges go from older to newer operations — all
17 rules order an existing operation before one being created or about to
run).  Consequently, when operation ``b`` starts executing, the subgraph of
operations with id ≤ ``b`` is frozen, and its clocks can be finalized once.
The invariant is checked on every ``add_edge`` so a buggy rule application
fails loudly instead of corrupting reachability.

:class:`AncestorSetGraph` is the paper's traversal representation with
frozen-prefix ancestor caching: the same graph, with each queried
operation's ancestor set computed once and cached.  It costs O(V) per
operation and O(V²) memory, so it stays off the live path; the
``crosscheck`` backend, the E8/E9 ablations and tests use it as the
reference the clocks must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .chains import IncrementalChainClocks


@dataclass(frozen=True)
class Edge:
    """A happens-before edge with the rule that introduced it."""

    src: int
    dst: int
    rule: str = ""


class HBGraph(IncrementalChainClocks):
    """A DAG over operation ids with chain-clock reachability queries."""

    def __init__(self, assert_forward: bool = True, obs=None):
        super().__init__(assert_forward=assert_forward, obs=obs)
        self._succ: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # construction

    def add_operation(self, op_id: int) -> None:
        """Register an operation (idempotent)."""
        self._pred.setdefault(op_id, [])
        self._succ.setdefault(op_id, [])

    def add_edge(self, src: int, dst: int, rule: str = "") -> bool:
        """Add ``src ≺ dst``; returns False if the edge already existed.

        Enforces the forward discipline (``src < dst``) and rejects edges
        into an operation that was already queried.
        """
        if not IncrementalChainClocks.add_edge(self, src, dst, rule):
            return False
        succ = self._succ
        succ.setdefault(src, []).append(dst)
        succ.setdefault(dst, [])
        return True

    # ------------------------------------------------------------------
    # queries: the chain clocks' own, bound here so that every backend
    # class defines its full query surface itself (per-class method
    # wrappers such as perfbench's layer tracer rely on that)

    happens_before = IncrementalChainClocks.happens_before
    concurrent = IncrementalChainClocks.concurrent
    chc = IncrementalChainClocks.chc

    # ------------------------------------------------------------------
    # structure (serialization, rule audits, reports, SHB)

    @property
    def edges(self) -> List[Edge]:
        """All edges in insertion order, with their rule labels."""
        return [
            Edge(src, dst, rule) for (src, dst), rule in self._edge_rules.items()
        ]

    def edges_by_rule(self, rule: str) -> List[Edge]:
        """Edges introduced by one named rule."""
        return [edge for edge in self.edges if edge.rule == rule]

    def successors(self, op_id: int) -> List[int]:
        """Direct HB successors of an operation."""
        return list(self._succ.get(op_id, ()))

    def edge_count(self) -> int:
        """Number of edges in the graph."""
        return len(self._edge_rules)

    def has_path_uncached(self, a: int, b: int) -> bool:
        """Reference reachability by plain DFS (used to cross-check caches)."""
        if a == b:
            return False
        seen: Set[int] = set()
        stack = [a]
        while stack:
            node = stack.pop()
            for successor in self._succ.get(node, ()):
                if successor == b:
                    return True
                if successor not in seen and successor <= b:
                    seen.add(successor)
                    stack.append(successor)
        return False


class AncestorSetGraph(HBGraph):
    """The reference engine: queries answered from frozen ancestor sets.

    Each queried operation's ancestor set is computed once and cached —
    safe because the ≤ ``op_id`` subgraph is frozen by then (see the
    module docstring).  The clocks are never consulted.
    """

    def __init__(self, assert_forward: bool = True, obs=None):
        super().__init__(assert_forward=assert_forward, obs=obs)
        self._ancestor_cache: Dict[int, FrozenSet[int]] = {}

    def add_edge(self, src: int, dst: int, rule: str = "") -> bool:
        """Like :meth:`HBGraph.add_edge`, also rejecting edges into an
        operation whose ancestor set was already cached."""
        if src != dst and dst in self._ancestor_cache:
            raise ValueError(
                f"edge {src} -> {dst} (rule {rule!r}) added after operation "
                f"{dst} was queried; incoming edges must precede execution"
            )
        return HBGraph.add_edge(self, src, dst, rule)

    def ancestors(self, op_id: int) -> FrozenSet[int]:
        """All operations that happen before ``op_id`` (transitively)."""
        cached = self._ancestor_cache.get(op_id)
        if cached is not None:
            return cached
        result: Set[int] = set()
        stack = list(self._pred.get(op_id, ()))
        while stack:
            node = stack.pop()
            if node in result:
                continue
            result.add(node)
            # Reuse caches of predecessors when available.
            cached_pred = self._ancestor_cache.get(node)
            if cached_pred is not None:
                result.update(cached_pred)
            else:
                stack.extend(self._pred.get(node, ()))
        frozen = frozenset(result)
        self._ancestor_cache[op_id] = frozen
        if self.obs.enabled:
            self.obs.count("hb.ancestor_freeze")
            self.obs.observe("hb.ancestor_set_size", len(frozen))
        return frozen

    def happens_before(self, a: int, b: int) -> bool:
        """True iff ``a ≺ b`` in the transitive happens-before relation."""
        if a == b:
            return False
        if self.assert_forward and a > b:
            # Forward discipline: an older id can never be reached from a
            # newer one, so b ≺ a would require a backward edge.
            return False
        return a in self.ancestors(b)

    def concurrent(self, a: int, b: int) -> bool:
        """True iff neither ``a ≺ b`` nor ``b ≺ a`` (and ``a != b``)."""
        if a == b:
            return False
        return not self.happens_before(a, b) and not self.happens_before(b, a)

    def memory_cells(self) -> int:
        """Total cached ancestor-set entries — the reference engine's
        memory footprint (compare :meth:`IncrementalChainClocks.memory_cells`)."""
        return sum(len(ancestors) for ancestors in self._ancestor_cache.values())


def transitive_closure_pairs(graph: HBGraph) -> Set[Tuple[int, int]]:
    """All ordered pairs (a, b) with a ≺ b.  For small test graphs only."""
    nodes = graph.operation_ids()
    return {(a, b) for b in nodes for a in nodes if graph.happens_before(a, b)}


def chc(graph: HBGraph, a: int, b: int) -> bool:
    """Can-Happen-Concurrently (paper, Section 5.1).

    ``CHC(A, B) = A != ⊥ ∧ B != ⊥ ∧ A ⊀ B ∧ B ⊀ A``.  The ``⊥``
    initialization marker is operation id 0.
    """
    if a == 0 or b == 0:
        return False
    return graph.concurrent(a, b)
