"""Tests for the happens-before graph, including hypothesis properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hb.graph import (
    AncestorSetGraph,
    HBGraph,
    chc,
    transitive_closure_pairs,
)


class TestBasics:
    def test_direct_edge(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        assert graph.happens_before(1, 2)
        assert not graph.happens_before(2, 1)

    def test_transitivity(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        assert graph.happens_before(1, 3)

    def test_no_self_ordering(self):
        graph = HBGraph()
        graph.add_operation(1)
        assert not graph.happens_before(1, 1)
        assert not graph.concurrent(1, 1)

    def test_unrelated_are_concurrent(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_edge(1, 3)
        assert graph.concurrent(2, 3)

    def test_self_edge_ignored(self):
        graph = HBGraph()
        assert not graph.add_edge(4, 4)

    def test_duplicate_edge_rejected(self):
        graph = HBGraph()
        assert graph.add_edge(1, 2)
        assert not graph.add_edge(1, 2)
        assert graph.edge_count() == 1

    def test_backward_edge_raises(self):
        graph = HBGraph()
        with pytest.raises(ValueError):
            graph.add_edge(5, 3)

    def test_backward_edge_allowed_when_unchecked(self):
        graph = HBGraph(assert_forward=False)
        graph.add_edge(5, 3)
        assert 5 in graph.predecessors(3)

    def test_edge_rules_recorded(self):
        graph = HBGraph()
        graph.add_edge(1, 2, rule="16:settimeout-before-cb")
        assert graph.edges_by_rule("16:settimeout-before-cb")[0].dst == 2

    def test_ancestors(self):
        graph = AncestorSetGraph()
        graph.add_edge(1, 3)
        graph.add_edge(2, 3)
        graph.add_edge(3, 4)
        assert graph.ancestors(4) == {1, 2, 3}
        assert graph.ancestors(1) == frozenset()

    def test_reference_rejects_edge_into_cached_operation(self):
        graph = AncestorSetGraph()
        graph.add_edge(1, 3)
        graph.ancestors(3)
        with pytest.raises(ValueError, match="queried"):
            graph.add_edge(2, 3)

    def test_cycle_is_reported_not_looped(self):
        graph = HBGraph(assert_forward=False)
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_edge(3, 2)
        with pytest.raises(ValueError, match="cycle"):
            graph.happens_before(1, 3)

    def test_edge_into_cached_operation_raises(self):
        graph = HBGraph()
        graph.add_edge(1, 3)
        graph.happens_before(1, 3)  # finalizes 3
        with pytest.raises(ValueError):
            graph.add_edge(2, 3)

    def test_edge_out_of_cached_operation_is_fine(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.happens_before(1, 2)
        graph.add_edge(2, 5)
        assert graph.happens_before(1, 5)


class TestChc:
    def test_bottom_never_races(self):
        graph = HBGraph()
        graph.add_operation(1)
        assert not chc(graph, 0, 1)
        assert not chc(graph, 1, 0)

    def test_concurrent_ops_chc(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_edge(1, 3)
        assert chc(graph, 2, 3)
        assert not chc(graph, 1, 2)


# ----------------------------------------------------------------------
# hypothesis properties

forward_edges = st.lists(
    st.tuples(st.integers(1, 30), st.integers(1, 30)).map(
        lambda pair: (min(pair), max(pair))
    ).filter(lambda pair: pair[0] != pair[1]),
    max_size=60,
)


@given(forward_edges)
@settings(max_examples=150, deadline=None)
def test_cached_reachability_matches_plain_dfs(edges):
    """The chain clocks must agree with a reference DFS."""
    graph = HBGraph()
    for src, dst in edges:
        graph.add_edge(src, dst)
    nodes = graph.operation_ids()
    for b in nodes:
        for a in nodes:
            if a < b:
                assert graph.happens_before(a, b) == graph.has_path_uncached(a, b)


@given(forward_edges)
@settings(max_examples=100, deadline=None)
def test_happens_before_is_transitive_and_antisymmetric(edges):
    graph = HBGraph()
    for src, dst in edges:
        graph.add_edge(src, dst)
    pairs = transitive_closure_pairs(graph)
    for a, b in pairs:
        assert (b, a) not in pairs  # antisymmetry
    for a, b in pairs:
        for c, d in pairs:
            if b == c:
                assert (a, d) in pairs  # transitivity


@given(forward_edges)
@settings(max_examples=100, deadline=None)
def test_concurrent_is_symmetric(edges):
    graph = HBGraph()
    for src, dst in edges:
        graph.add_edge(src, dst)
    nodes = graph.operation_ids()
    for a in nodes:
        for b in nodes:
            assert graph.concurrent(a, b) == graph.concurrent(b, a)


@given(forward_edges, st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_chc_is_exactly_not_ordered(edges, a, b):
    graph = HBGraph()
    graph.add_operation(a)
    graph.add_operation(b)
    for src, dst in edges:
        graph.add_edge(src, dst)
    if a != b and a in graph.operation_ids() and b in graph.operation_ids():
        expected = not (
            graph.has_path_uncached(a, b) or graph.has_path_uncached(b, a)
        )
        assert chc(graph, a, b) == (expected and a != b)


NODES = 12

interleaved_steps = st.lists(
    st.tuples(
        st.sampled_from(["edge", "edge", "query", "backward"]),
        st.integers(1, NODES),
        st.integers(1, NODES),
    ),
    max_size=80,
)


@given(interleaved_steps)
@settings(max_examples=200, deadline=None)
def test_fused_engine_matches_reference_under_interleaving(steps):
    """Edges and queries interleaved as a live run issues them: every
    ``HBGraph`` answer equals the plain DFS and the ancestor-set
    reference, and the construction contract still fires — a backward
    edge, or an edge into an operation that was already queried (its
    clock finalized), raises and leaves the graph unchanged."""
    graph = HBGraph()
    reference = AncestorSetGraph()
    for op_id in range(1, NODES + 1):
        graph.add_operation(op_id)
        reference.add_operation(op_id)
    for kind, x, y in steps:
        src, dst = min(x, y), max(x, y)
        if kind == "query":
            expected = graph.has_path_uncached(x, y)
            assert graph.happens_before(x, y) == expected
            assert reference.happens_before(x, y) == expected
            assert graph.concurrent(x, y) == reference.concurrent(x, y)
            assert graph.chc(x, y) == chc(reference, x, y)
            if x != y:
                # Both queried operations are now closed to new edges.
                assert x in graph.position and y in graph.position
            continue
        if src == dst:
            assert not graph.add_edge(src, dst)
            continue
        edges_before = graph.edge_count()
        if kind == "backward":
            with pytest.raises(ValueError, match="backward"):
                graph.add_edge(dst, src)
        elif dst in graph.position:
            with pytest.raises(ValueError, match="queried"):
                graph.add_edge(src, dst)
        else:
            # The reference only caches operations the clocks finalized.
            assert graph.add_edge(src, dst) == reference.add_edge(src, dst)
            continue
        assert graph.edge_count() == edges_before
    for a in range(1, NODES + 1):
        for b in range(1, NODES + 1):
            expected = graph.has_path_uncached(a, b)
            assert graph.happens_before(a, b) == expected
            assert reference.happens_before(a, b) == expected
