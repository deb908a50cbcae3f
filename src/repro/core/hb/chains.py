"""Incremental online chain vector clocks: the happens-before query engine.

The paper's WebRacer answers CHC queries by graph traversal and names "a
more efficient vector-clock representation" as planned future work
(Section 5.2.1).  This module is that representation, maintained online,
and it answers every live query: :class:`~repro.core.hb.graph.HBGraph`
extends :class:`IncrementalChainClocks` with successor lists and edge
views, so each edge is stored once and the clocks read the graph's own
predecessor lists and rule labels.

The engine relies on the browser's frozen-prefix discipline: every
incoming edge of an operation is added before that operation performs its
first access, and therefore before it shows up in any CHC query.  An
operation's chain assignment and clock are *finalized* lazily, the first
time a query needs them (which recursively finalizes its happens-before
cone).  An edge arriving into an already-finalized operation would
silently corrupt reachability answers, so it raises instead.

Chain assignment is greedy, exactly as in the offline
:class:`~repro.core.hb.vector_clock.ChainVectorClocks` ablation: an
operation extends the chain of a predecessor that is still that chain's
tail, otherwise it starts a fresh chain.  Every finalized operation
carries a clock ``{chain -> highest position on that chain that happens
before (or at) this operation}``; ``a ≺ b`` iff ``b``'s clock covers
``a``'s position on ``a``'s chain — an O(1) dictionary lookup, with O(C)
amortized maintenance per operation (C = number of chains) instead of the
O(V) per operation and O(V²) memory of the frozen ancestor sets kept as a
reference in :class:`~repro.core.hb.graph.AncestorSetGraph`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...obs import NULL


class IncrementalChainClocks:
    """Chain-decomposed vector clocks maintained online, edge by edge."""

    def __init__(self, assert_forward: bool = True, obs=None):
        self.assert_forward = assert_forward
        self.obs = obs if obs is not None else NULL
        self._pred: Dict[int, List[int]] = {}
        #: (src, dst) -> rule label; doubles as the edge-membership set and
        #: keeps enough provenance for witness-path queries (see
        #: :mod:`repro.core.hb.witness`).  Insertion-ordered, so it is
        #: also the edge list.
        self._edge_rules: Dict[Tuple[int, int], str] = {}
        #: op -> (chain index, position within chain); presence = finalized.
        self.position: Dict[int, Tuple[int, int]] = {}
        #: op -> {chain index -> max covered position} (finalized ops only).
        self.clock: Dict[int, Dict[int, int]] = {}
        self._chain_tail: Dict[int, int] = {}
        self.chain_count = 0

    # ------------------------------------------------------------------
    # construction

    def add_operation(self, op_id: int) -> None:
        """Register an operation (idempotent)."""
        self._pred.setdefault(op_id, [])

    def add_edge(self, src: int, dst: int, rule: str = "") -> bool:
        """Add ``src ≺ dst``; returns False if the edge already existed.

        Enforces the forward discipline (``src < dst``) and rejects edges
        into an operation whose clock was already finalized (that would
        silently invalidate every answer derived from it).
        """
        if src == dst:
            return False
        if self.assert_forward and src > dst:
            raise ValueError(
                f"backward happens-before edge {src} -> {dst} (rule {rule!r}); "
                "edges must point from older to newer operations"
            )
        if dst in self.position:
            raise ValueError(
                f"edge {src} -> {dst} (rule {rule!r}) added after operation "
                f"{dst} was queried (its clock is finalized); incoming edges "
                "must precede execution"
            )
        if (src, dst) in self._edge_rules:
            return False
        self._edge_rules[(src, dst)] = rule
        self._pred.setdefault(src, [])
        self._pred.setdefault(dst, []).append(src)
        if self.obs.enabled:
            self.obs.count("hb.edge")
        return True

    # ------------------------------------------------------------------
    # finalization

    def _finalize(self, op_id: int) -> None:
        """Assign a chain position and clock to ``op_id`` and its cone."""
        position = self.position
        if op_id in position:
            return
        preds_of = self._pred
        order = (op_id,)
        for pred in preds_of[op_id]:
            if pred not in position:
                order = self._unfinalized_cone(op_id)
                break
        clocks = self.clock
        tails = self._chain_tail
        for op in order:
            predecessors = preds_of[op]

            # Chain assignment: extend a predecessor's chain if it is still
            # that chain's tail, otherwise open a new chain.
            for pred in predecessors:
                chain, index = position[pred]
                if tails[chain] == pred:
                    index += 1
                    break
            else:
                chain = self.chain_count
                index = 0
                self.chain_count += 1
                if self.obs.enabled:
                    self.obs.count("hb.chain_opened")
            position[op] = (chain, index)
            tails[chain] = op

            # Clock: pointwise max over the predecessors' clocks (each
            # already covers its own operation's position), plus our own.
            if predecessors:
                clock = dict(clocks[predecessors[0]])
                for pred in predecessors[1:]:
                    for other, pos in clocks[pred].items():
                        if clock.get(other, -1) < pos:
                            clock[other] = pos
            else:
                clock = {}
            clock[chain] = index
            clocks[op] = clock

    def _unfinalized_cone(self, op_id: int) -> List[int]:
        """The not yet finalized part of ``op_id``'s cone, ``op_id``
        included, predecessors first."""
        position = self.position
        order: List[int] = []
        done = set()
        expanded = set()
        stack = [op_id]
        while stack:
            op = stack[-1]
            if op in done:
                stack.pop()
                continue
            pending = [
                p for p in self._pred[op] if p not in position and p not in done
            ]
            if pending:
                # In a DAG an expanded op is back on top only once its
                # whole cone is done; pending predecessors mean a cycle.
                if op in expanded:
                    raise ValueError(f"happens-before cycle through operation {op}")
                expanded.add(op)
                stack.extend(pending)
                continue
            stack.pop()
            done.add(op)
            order.append(op)
        return order

    def _ordered(self, a: int, b: int) -> bool:
        """``a ≺ b`` for ``a != b``, finalizing both cones on first use."""
        pos_a = self.position.get(a)
        clock_b = self.clock.get(b)
        if pos_a is None or clock_b is None:
            if a not in self._pred or b not in self._pred:
                return False
            if pos_a is None:
                self._finalize(a)
                pos_a = self.position[a]
            if clock_b is None:
                self._finalize(b)
                clock_b = self.clock[b]
        return clock_b.get(pos_a[0], -1) >= pos_a[1]

    # ------------------------------------------------------------------
    # queries

    def happens_before(self, a: int, b: int) -> bool:
        """True iff ``a ≺ b``; finalizes both operations' cones."""
        if a == b:
            return False
        if self.assert_forward and a > b:
            # Forward discipline: an older id can never be reached from a
            # newer one, so b ≺ a would require a backward edge.
            return False
        return self._ordered(a, b)

    def concurrent(self, a: int, b: int) -> bool:
        """True iff neither ``a ≺ b`` nor ``b ≺ a`` (and ``a != b``)."""
        if a == b:
            return False
        if not self.assert_forward:
            return not self._ordered(a, b) and not self._ordered(b, a)
        # Forward discipline: the newer op can never precede the older one,
        # so a single directed query settles concurrency.
        if a > b:
            a, b = b, a
        # Fast path, inlined from _ordered: both operations already
        # finalized (the common case on the detection hot path).
        pos_a = self.position.get(a)
        clock_b = self.clock.get(b)
        if pos_a is None or clock_b is None:
            return not self._ordered(a, b)
        return clock_b.get(pos_a[0], -1) < pos_a[1]

    def chc(self, a: int, b: int) -> bool:
        """Can-Happen-Concurrently with ⊥ (id 0) handling."""
        if a == 0 or b == 0:
            return False
        return self.concurrent(a, b)

    # ------------------------------------------------------------------
    # introspection (witness queries, tests, benchmarks)

    def operation_ids(self) -> List[int]:
        """All registered operation ids, sorted."""
        return sorted(self._pred.keys())

    def predecessors(self, op_id: int) -> List[int]:
        """Direct HB predecessors of an operation (witness queries)."""
        return list(self._pred.get(op_id, ()))

    def edge_rule(self, src: int, dst: int) -> Optional[str]:
        """The rule that introduced the direct edge ``src ≺ dst``.

        Returns ``None`` when no such direct edge exists.  Witness-path
        queries (:mod:`repro.core.hb.witness`) use this to annotate each
        step of an HB ancestry chain with its paper rule.
        """
        return self._edge_rules.get((src, dst))

    def memory_cells(self) -> int:
        """Total clock entries — the query engine's memory footprint."""
        return sum(len(clock) for clock in self.clock.values())

    def finalized_count(self) -> int:
        """How many operations have been assigned a chain position."""
        return len(self.position)

    def chains(self) -> List[List[int]]:
        """The chain decomposition over finalized operations."""
        result: List[List[int]] = [[] for _ in range(self.chain_count)]
        for op_id in sorted(self.position):
            chain, _pos = self.position[op_id]
            result[chain].append(op_id)
        return result

    def finalize_all(self) -> None:
        """Finalize every registered operation (offline replays, tests)."""
        for op_id in self.operation_ids():
            self._finalize(op_id)
