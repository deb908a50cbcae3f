"""Tests for witness-path queries over rule-labeled HB edges."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hb.backend import make_backend
from repro.core.hb.chains import IncrementalChainClocks
from repro.core.hb.graph import HBGraph
from repro.core.hb.witness import (
    WitnessIndex,
    ancestor_closure,
    hb_path,
    nearest_common_ancestor,
    race_witness,
)

#: The classic diamond-with-race shape: 1 orders 2 and 3 via different
#: rules; 4 joins only 2's side, so (3, 4) and (2, 3) are concurrent.
EDGES = [
    (1, 2, "1a:static-order"),
    (1, 3, "8:target-created-before-dispatch"),
    (2, 4, "2:create-before-exe"),
]


def build(store):
    for src, dst, rule in EDGES:
        store.add_edge(src, dst, rule)
    return store


@pytest.fixture(params=["graph", "chains", "crosscheck", "standalone-clocks"])
def hb(request):
    """Every HB store variant answers witness queries identically."""
    if request.param == "standalone-clocks":
        return build(IncrementalChainClocks())
    return build(make_backend(request.param))


class TestAncestorClosure:
    def test_transitive(self, hb):
        assert ancestor_closure(hb, 4) == {1, 2}

    def test_root_has_no_ancestors(self, hb):
        assert ancestor_closure(hb, 1) == set()


class TestNearestCommonAncestor:
    def test_diamond_sides_share_the_root(self, hb):
        assert nearest_common_ancestor(hb, 3, 4) == 1

    def test_max_id_common_ancestor_wins(self):
        graph = HBGraph()
        for src, dst in [(1, 2), (2, 5), (2, 6), (1, 3), (3, 5), (3, 6)]:
            graph.add_edge(src, dst)
        # 1, 2 and 3 all precede both 5 and 6; 3 is the nearest (highest
        # id, hence HB-maximal under the forward discipline).
        assert nearest_common_ancestor(graph, 5, 6) == 3

    def test_disjoint_cones(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_edge(3, 4)
        assert nearest_common_ancestor(graph, 2, 4) is None


class TestHbPath:
    def test_path_carries_rule_labels(self, hb):
        steps = hb_path(hb, 1, 4)
        assert [(s.src, s.dst) for s in steps] == [(1, 2), (2, 4)]
        assert [s.rule for s in steps] == [
            "1a:static-order", "2:create-before-exe",
        ]

    def test_no_path_returns_none(self, hb):
        assert hb_path(hb, 3, 4) is None
        assert hb_path(hb, 4, 3) is None

    def test_trivial_path_is_empty(self, hb):
        assert hb_path(hb, 2, 2) == []

    def test_shortest_path_preferred(self):
        graph = HBGraph()
        for src, dst, rule in [
            (1, 2, "long-a"), (2, 3, "long-b"), (3, 9, "long-c"),
            (1, 9, "direct"),
        ]:
            graph.add_edge(src, dst, rule)
        steps = hb_path(graph, 1, 9)
        assert len(steps) == 1
        assert steps[0].rule == "direct"


class TestRaceWitness:
    def test_concurrent_pair(self, hb):
        witness = race_witness(hb, 3, 4)
        assert not witness.ordered
        assert witness.nca == 1
        assert witness.common_ancestor_count == 1
        assert witness.rules_a() == ["8:target-created-before-dispatch"]
        assert witness.rules_b() == [
            "1a:static-order", "2:create-before-exe",
        ]

    def test_ordered_pair_flagged(self, hb):
        witness = race_witness(hb, 2, 4)
        assert witness.ordered

    def test_disjoint_pair(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_edge(3, 4)
        witness = race_witness(graph, 2, 4)
        assert witness.nca is None
        assert witness.common_ancestor_count == 0
        assert witness.path_a == [] and witness.path_b == []
        assert not witness.ordered

    @pytest.mark.parametrize(
        "backend", ["graph", "chains", "crosscheck", "shb"]
    )
    def test_disjoint_pair_on_every_backend(self, backend):
        """Two root dispatches with no common HB ancestor (e.g. two
        unrelated event sources) must yield an empty-prefix witness on
        every backend — never raise."""
        store = make_backend(backend)
        store.add_edge(1, 2, "8:target-created-before-dispatch")
        store.add_edge(3, 4, "8:target-created-before-dispatch")
        witness = race_witness(store, 2, 4)
        assert witness.nca is None
        assert witness.common_ancestor_count == 0
        assert witness.path_a == [] and witness.path_b == []
        assert not witness.ordered

    def test_disjoint_pair_isolated_roots(self):
        """Roots with no edges at all (operations known to the store but
        never ordered) are the degenerate disjoint case."""
        graph = HBGraph()
        graph.add_operation(1)
        graph.add_operation(2)
        witness = race_witness(graph, 1, 2)
        assert witness.nca is None
        assert witness.path_a == [] and witness.path_b == []


class TestEdgeRuleProvenance:
    def test_graph_edge_rule(self):
        graph = build(HBGraph())
        assert graph.edge_rule(1, 2) == "1a:static-order"
        assert graph.edge_rule(2, 1) is None
        assert graph.edge_rule(1, 99) is None

    def test_chains_retain_edge_rules(self):
        clocks = build(IncrementalChainClocks())
        assert clocks.edge_rule(1, 3) == "8:target-created-before-dispatch"
        assert sorted(clocks.predecessors(4)) == [2]

    def test_duplicate_edge_keeps_first_rule(self):
        graph = HBGraph()
        assert graph.add_edge(1, 2, "first")
        assert not graph.add_edge(1, 2, "second")
        assert graph.edge_rule(1, 2) == "first"


@st.composite
def forward_dags(draw):
    """A backend kind plus a random forward DAG over ops ``1..n`` whose
    edges carry one of a few rule labels."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(src, dst) for dst in range(2, n + 1) for src in range(1, dst)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [
        (src, dst, draw(st.sampled_from(["1a", "2", "8", "13"])))
        for src, dst in chosen
    ]
    return draw(st.sampled_from(["graph", "chains"])), n, edges


class TestWitnessIndex:
    """The batch index answers exactly like the uncached queries."""

    @settings(max_examples=150, deadline=None)
    @given(forward_dags())
    def test_equals_uncached_queries_on_every_pair(self, dag):
        backend, n, edges = dag
        store = make_backend(backend)
        for op_id in range(1, n + 1):
            store.add_operation(op_id)
        for src, dst, rule in edges:
            store.add_edge(src, dst, rule)
        index = WitnessIndex(store)
        ops = range(1, n + 1)
        for a in ops:
            assert set(index.cone(a)) == ancestor_closure(store, a)
            for b in ops:
                assert index.witness(a, b) == race_witness(store, a, b)
                assert index.path(a, b) == hb_path(store, a, b)

    def test_cycle_puts_the_op_in_its_own_cone(self):
        graph = HBGraph(assert_forward=False)
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_edge(3, 2)
        index = WitnessIndex(graph)
        assert set(index.cone(2)) == ancestor_closure(graph, 2) == {1, 2, 3}
        assert index.witness(2, 3) == race_witness(graph, 2, 3)
