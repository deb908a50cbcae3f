"""Witness-path queries over rule-labeled happens-before edges.

A race report that just names two operation ids answers *what* raced but
not *why the detector believes it*.  The witness queries here turn the
happens-before structure into checkable evidence, in the spirit of
race-prediction work that ships a certificate with every report:

* :func:`ancestor_closure` — the full HB cone above one operation;
* :func:`nearest_common_ancestor` — the latest operation ordered before
  *both* racing operations (the point where their orderings diverge);
* :func:`hb_path` — a shortest chain of direct edges from an ancestor down
  to a descendant, each step labeled with the paper rule (Section 3.3 /
  Appendix A) that introduced it;
* :func:`race_witness` — the bundle race evidence is built from: the
  nearest common ancestor plus one rule-labeled path to each racing
  operation, and the verdict that *no* chain connects the pair.

Every function is generic over the backend: it only needs
``predecessors(op_id)`` and ``edge_rule(src, dst)``, which both
:class:`~repro.core.hb.graph.HBGraph` (and therefore every
:func:`~repro.core.hb.backend.make_backend` product) and the standalone
:class:`~repro.core.hb.chains.IncrementalChainClocks` provide.

The functions above walk the graph afresh on every call: O(V) per race,
which is the reference behaviour.  A page can have thousands of races
over a few hundred operations (``repro predict`` on n timers that all
update one global reports O(n²) pairs), so batch callers use
:class:`WitnessIndex` instead.  It walks each racing operation's cone
once, as one backward-BFS parent tree, and answers every witness from
the cached trees with results equal to :func:`race_witness`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Set


@dataclass(frozen=True)
class WitnessStep:
    """One direct happens-before edge on a witness path."""

    src: int
    dst: int
    rule: str = ""

    def describe(self) -> str:
        """Human-readable one-line description."""
        rule = self.rule or "?"
        return f"{self.src} ≺ {self.dst} [{rule}]"


@dataclass
class RaceWitness:
    """HB evidence for one pair of operations reported as racing.

    ``path_a``/``path_b`` run from :attr:`nca` down to each operation; an
    empty path with a non-``None`` nca means the operation *is* the nca's
    direct frontier (should not happen for genuine races).  ``ordered``
    flags pairs that are not actually concurrent — a sanity bit consumers
    can assert on.
    """

    a: int
    b: int
    nca: Optional[int]
    common_ancestor_count: int
    path_a: List[WitnessStep] = field(default_factory=list)
    path_b: List[WitnessStep] = field(default_factory=list)
    ordered: bool = False

    def rules_a(self) -> List[str]:
        """Rule labels along the nca → a path."""
        return [step.rule for step in self.path_a]

    def rules_b(self) -> List[str]:
        """Rule labels along the nca → b path."""
        return [step.rule for step in self.path_b]


def ancestor_closure(hb, op_id: int) -> Set[int]:
    """All operations that happen before ``op_id``, by predecessor walk."""
    seen: Set[int] = set()
    stack = list(hb.predecessors(op_id))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(hb.predecessors(node))
    return seen


def nearest_common_ancestor(hb, a: int, b: int) -> Optional[int]:
    """The highest-id common HB ancestor of ``a`` and ``b``.

    Under the forward edge discipline (edges point old → new) the max-id
    common ancestor is HB-maximal among common ancestors: any other common
    ancestor has a smaller id and therefore cannot be *after* it.  Returns
    ``None`` when the cones are disjoint.
    """
    common = ancestor_closure(hb, a) & ancestor_closure(hb, b)
    return max(common) if common else None


def hb_path(hb, src: int, dst: int) -> Optional[List[WitnessStep]]:
    """A shortest direct-edge chain ``src ≺ ... ≺ dst``, rule-labeled.

    BFS backward from ``dst`` over predecessors; returns ``None`` when no
    chain exists (i.e. ``src`` does not happen before ``dst``).
    """
    if src == dst:
        return []
    parent: Dict[int, int] = {}
    queue = deque([dst])
    seen = {dst}
    while queue:
        node = queue.popleft()
        for pred in hb.predecessors(node):
            if pred in seen:
                continue
            parent[pred] = node
            if pred == src:
                steps: List[WitnessStep] = []
                at = src
                while at != dst:
                    nxt = parent[at]
                    steps.append(
                        WitnessStep(at, nxt, hb.edge_rule(at, nxt) or "")
                    )
                    at = nxt
                return steps
            seen.add(pred)
            queue.append(pred)
    return None


def race_witness(hb, a: int, b: int) -> RaceWitness:
    """The full witness bundle for an (allegedly racing) operation pair."""
    cone_a = ancestor_closure(hb, a)
    cone_b = ancestor_closure(hb, b)
    ordered = a in cone_b or b in cone_a
    common = cone_a & cone_b
    nca = max(common) if common else None
    path_a = hb_path(hb, nca, a) if nca is not None else []
    path_b = hb_path(hb, nca, b) if nca is not None else []
    return RaceWitness(
        a=a,
        b=b,
        nca=nca,
        common_ancestor_count=len(common),
        path_a=path_a or [],
        path_b=path_b or [],
        ordered=ordered,
    )


class WitnessIndex:
    """:func:`race_witness` answers for many pairs over one fixed graph.

    Each operation's ancestor cone is walked once, as a backward BFS that
    keeps the parent through which it first discovered every ancestor.
    The tree's keys are :func:`ancestor_closure`, and following parents
    from ``src`` reads off exactly the path :func:`hb_path` returns: that
    BFS visits nodes in the same order and also records a node's parent on
    first discovery, it merely stops once it reaches ``src``.

    The graph must not change while the index is in use; create one per
    batch and drop it afterwards.
    """

    def __init__(self, hb):
        self.hb = hb
        #: op → {ancestor: the successor it was discovered from}.
        self._trees: Dict[int, Dict[int, int]] = {}
        #: op → its ancestor cone (the tree's keys, plus op on a cycle).
        self._cones: Dict[int, AbstractSet[int]] = {}

    def _walk(self, dst: int) -> None:
        parent: Dict[int, int] = {}
        cyclic = False
        queue = deque([dst])
        while queue:
            node = queue.popleft()
            for pred in self.hb.predecessors(node):
                if pred == dst:
                    cyclic = True
                elif pred not in parent:
                    parent[pred] = node
                    queue.append(pred)
        self._trees[dst] = parent
        self._cones[dst] = parent.keys() | {dst} if cyclic else parent.keys()

    def cone(self, op_id: int) -> AbstractSet[int]:
        """Equal to :func:`ancestor_closure` (read-only view)."""
        if op_id not in self._cones:
            self._walk(op_id)
        return self._cones[op_id]

    def path(self, src: int, dst: int) -> Optional[List[WitnessStep]]:
        """Equal to :func:`hb_path`."""
        if src == dst:
            return []
        if dst not in self._trees:
            self._walk(dst)
        parent = self._trees[dst]
        if src not in parent:
            return None
        steps: List[WitnessStep] = []
        at = src
        while at != dst:
            nxt = parent[at]
            steps.append(WitnessStep(at, nxt, self.hb.edge_rule(at, nxt) or ""))
            at = nxt
        return steps

    def witness(self, a: int, b: int) -> RaceWitness:
        """Equal to :func:`race_witness`."""
        cone_a = self.cone(a)
        cone_b = self.cone(b)
        common = cone_a & cone_b
        nca = max(common) if common else None
        return RaceWitness(
            a=a,
            b=b,
            nca=nca,
            common_ancestor_count=len(common),
            path_a=(self.path(nca, a) or []) if nca is not None else [],
            path_b=(self.path(nca, b) or []) if nca is not None else [],
            ordered=a in cone_b or b in cone_a,
        )
