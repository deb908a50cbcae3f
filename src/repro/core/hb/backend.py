"""Pluggable happens-before backends for the online detection hot path.

The monitor needs two things from its happens-before store: the *graph
structure* (labeled edges for serialization, rule audits, and reports) and
*CHC answers* (one ``concurrent`` query per memory access — the hottest
path in the system).  :class:`~repro.core.hb.graph.HBGraph` provides both
from one copy of the edges, answering queries from the incremental chain
clocks of :mod:`repro.core.hb.chains` (O(C) amortized per operation, C =
chain count).  The backend names select:

* ``"graph"`` and ``"chains"`` — the same engine, :class:`HBGraph`.  Both
  names stay valid so CLI choices, report ``hb_backend`` fields and ledger
  digests keep their meaning; :data:`ChainBackedGraph` is kept as an alias;
* ``"crosscheck"`` — :class:`CrosscheckGraph`: answers every query from the
  clocks *and* from the frozen ancestor sets of
  :class:`~repro.core.hb.graph.AncestorSetGraph` (the paper's traversal
  representation) and raises :class:`BackendDisagreement` on any mismatch.
  Slow; exists to validate the clocks against the reference;
* ``"shb"`` — :class:`~repro.core.hb.shb.ShbGraph`: answers online
  queries exactly like ``graph`` but marks the run as *predictive* —
  pipelines that see ``is_predictive`` follow detection with the offline
  schedulable-happens-before sweep (:func:`repro.core.hb.shb.predict_races`)
  and report races predicted for other schedules of the same trace.

Every backend exposes the :class:`HBBackend` interface, so detectors and
experiment code never care which one is live.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, runtime_checkable

from .graph import AncestorSetGraph, HBGraph

HB_BACKENDS = ("graph", "chains", "crosscheck", "shb")


@runtime_checkable
class HBBackend(Protocol):
    """What detectors and experiments require of a happens-before store.

    ``predecessors``/``edge_rule`` are the witness-query surface
    (:mod:`repro.core.hb.witness`): enough rule-labeled edge provenance to
    reconstruct the HB ancestry evidence behind a race report.  Both the
    graph and the standalone chain clocks retain it.
    """

    def add_operation(self, op_id: int) -> None: ...

    def add_edge(self, src: int, dst: int, rule: str = "") -> bool: ...

    def happens_before(self, a: int, b: int) -> bool: ...

    def concurrent(self, a: int, b: int) -> bool: ...

    def chc(self, a: int, b: int) -> bool: ...

    def memory_cells(self) -> int: ...

    def predecessors(self, op_id: int) -> List[int]: ...

    def edge_rule(self, src: int, dst: int) -> Optional[str]: ...


class BackendDisagreement(AssertionError):
    """The chain clocks and the ancestor-set reference answered one query
    differently."""


#: The ``chains`` backend's former class, kept for existing imports: the
#: graph now answers from chain clocks itself.
ChainBackedGraph = HBGraph


class CrosscheckGraph(AncestorSetGraph):
    """Answers every query from both engines and demands they agree."""

    def __init__(self, assert_forward: bool = True, obs=None):
        super().__init__(assert_forward=assert_forward, obs=obs)
        self.queries_checked = 0

    # Construction is the reference's, which refuses edges into an
    # operation either engine has answered for.  Bound here, like
    # HBGraph's queries, so the class defines its whole surface itself.
    add_operation = AncestorSetGraph.add_operation
    add_edge = AncestorSetGraph.add_edge

    def happens_before(self, a: int, b: int) -> bool:
        graph_answer = AncestorSetGraph.happens_before(self, a, b)
        chain_answer = HBGraph.happens_before(self, a, b)
        self.queries_checked += 1
        if graph_answer != chain_answer:
            raise BackendDisagreement(
                f"happens_before({a}, {b}): ancestor sets say {graph_answer}, "
                f"chain clocks say {chain_answer}"
            )
        return graph_answer

    def concurrent(self, a: int, b: int) -> bool:
        # Goes through our happens_before, so both directions are checked.
        if a == b:
            return False
        return not self.happens_before(a, b) and not self.happens_before(b, a)

    def memory_cells(self) -> int:
        return AncestorSetGraph.memory_cells(self) + HBGraph.memory_cells(self)


def make_backend(name: str, assert_forward: bool = True, obs=None) -> HBGraph:
    """Build the happens-before store selected by ``name``.

    Every backend *is* an :class:`HBGraph` (structure included), so
    serialization and rule audits work unchanged regardless of selection.
    ``obs`` is the instrumentation sink edge/chain counters report to.
    """
    if name in ("graph", "chains"):
        return HBGraph(assert_forward=assert_forward, obs=obs)
    if name == "crosscheck":
        return CrosscheckGraph(assert_forward=assert_forward, obs=obs)
    if name == "shb":
        from .shb import ShbGraph

        return ShbGraph(assert_forward=assert_forward, obs=obs)
    raise ValueError(
        f"unknown hb backend {name!r}; expected one of {', '.join(HB_BACKENDS)}"
    )
