"""Cross-validation of the three happens-before representations.

``AncestorSetGraph`` (the frozen-ancestor-set reference), the offline
``ChainVectorClocks`` ablation, and the online ``IncrementalChainClocks``
engine behind ``HBGraph`` must answer every ``happens_before``/
``concurrent`` query identically — on random DAGs, under online
interleaving of construction and queries, and on real traces produced by
corpus page loads.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.core.hb.backend import (
    BackendDisagreement,
    ChainBackedGraph,
    CrosscheckGraph,
    make_backend,
)
from repro.core.hb.chains import IncrementalChainClocks
from repro.core.hb.graph import AncestorSetGraph, HBGraph
from repro.core.hb.vector_clock import ChainVectorClocks


def build_all(edges, nodes=()):
    """The same DAG as the reference graph, offline clocks, and
    incremental clocks."""
    graph = AncestorSetGraph()
    chains = IncrementalChainClocks()
    for node in nodes:
        graph.add_operation(node)
        chains.add_operation(node)
    for src, dst in edges:
        graph.add_edge(src, dst)
        chains.add_edge(src, dst)
    return graph, ChainVectorClocks(graph), chains


forward_edges = st.lists(
    st.tuples(st.integers(1, 25), st.integers(1, 25)).map(
        lambda pair: (min(pair), max(pair))
    ).filter(lambda pair: pair[0] != pair[1]),
    max_size=60,
)


@given(forward_edges)
@settings(max_examples=200, deadline=None)
def test_three_representations_agree_on_random_dags(edges):
    graph, offline, incremental = build_all(edges)
    nodes = graph.operation_ids()
    for a in nodes:
        for b in nodes:
            expected = graph.happens_before(a, b)
            assert offline.happens_before(a, b) == expected, (a, b, edges)
            assert incremental.happens_before(a, b) == expected, (a, b, edges)
    for a in nodes:
        for b in nodes:
            expected = graph.concurrent(a, b)
            assert offline.concurrent(a, b) == expected
            assert incremental.concurrent(a, b) == expected


@given(forward_edges)
@settings(max_examples=100, deadline=None)
def test_online_queries_match_offline_answers(edges):
    """Frozen-prefix discipline: deliver edges grouped by destination in
    increasing order, querying after each group — the answers given mid-
    construction must equal the answers computed from the finished DAG."""
    reference = AncestorSetGraph()
    for src, dst in edges:
        reference.add_edge(src, dst)

    incremental = IncrementalChainClocks()
    online_answers = []
    seen = []
    for dst in sorted({d for _s, d in edges}):
        for src, edge_dst in edges:
            if edge_dst == dst:
                incremental.add_edge(src, dst)
        seen.append(dst)
        for a in seen:
            online_answers.append((a, dst, incremental.happens_before(a, dst)))

    for a, b, answer in online_answers:
        assert answer == reference.happens_before(a, b), (a, b, edges)


@pytest.mark.parametrize("site_index", [0, 3])
def test_backends_agree_on_real_corpus_traces(site_index):
    """Replay-level agreement on genuine page-load traces: identical race
    streams and identical answers for every operation pair."""
    from repro import WebRacer
    from repro.sites import build_corpus

    site = build_corpus(master_seed=0, limit=site_index + 1)[site_index]

    baseline = WebRacer(seed=0, hb_backend="graph").check_site(site)
    checked = WebRacer(seed=0, hb_backend="crosscheck").check_site(site)

    def signature(report):
        return [
            (race.kind, race.op_pair(), type(race.location).__name__)
            for race in report.raw_races
        ]

    # The crosscheck run already raised if any single CHC query disagreed;
    # the race streams must also match the graph run exactly.
    assert signature(baseline) == signature(checked)
    assert checked.page.monitor.graph.queries_checked > 0

    # Exhaustive pairwise agreement on the finished trace: the live
    # engine, fresh clocks and the ancestor-set reference.
    graph = baseline.page.monitor.graph
    rebuilt = IncrementalChainClocks()
    reference = AncestorSetGraph()
    for op_id in graph.operation_ids():
        rebuilt.add_operation(op_id)
        reference.add_operation(op_id)
    for edge in graph.edges:
        rebuilt.add_edge(edge.src, edge.dst, edge.rule)
        reference.add_edge(edge.src, edge.dst, edge.rule)
    nodes = graph.operation_ids()
    for a in nodes:
        for b in nodes:
            expected = reference.happens_before(a, b)
            assert rebuilt.happens_before(a, b) == expected
            assert graph.happens_before(a, b) == expected


class TestIncrementalInvariants:
    def test_backward_edge_raises(self):
        chains = IncrementalChainClocks()
        with pytest.raises(ValueError, match="backward"):
            chains.add_edge(5, 3)

    def test_edge_into_finalized_operation_raises(self):
        chains = IncrementalChainClocks()
        chains.add_edge(1, 2)
        chains.add_operation(3)
        assert chains.happens_before(1, 2)
        with pytest.raises(ValueError, match="finalized"):
            chains.add_edge(1, 2, rule="late")
        # A fresh edge into a not-yet-queried operation is still fine.
        assert chains.add_edge(2, 3)

    def test_duplicate_edges_are_idempotent(self):
        chains = IncrementalChainClocks()
        assert chains.add_edge(1, 2)
        assert not chains.add_edge(1, 2)
        assert chains.happens_before(1, 2)

    def test_self_edge_rejected(self):
        chains = IncrementalChainClocks()
        assert not chains.add_edge(4, 4)

    def test_unknown_operations_unordered(self):
        chains = IncrementalChainClocks()
        chains.add_edge(1, 2)
        assert not chains.happens_before(1, 99)
        assert not chains.happens_before(99, 1)
        assert not chains.concurrent(7, 7)

    def test_chc_bottom_handling(self):
        chains = IncrementalChainClocks()
        chains.add_operation(0)
        chains.add_edge(1, 2)
        assert not chains.chc(0, 2)
        assert not chains.chc(1, 0)
        chains.add_operation(3)
        assert chains.chc(2, 3)

    def test_lazy_finalization_is_partial(self):
        chains = IncrementalChainClocks()
        chains.add_edge(1, 2)
        chains.add_edge(3, 4)
        chains.happens_before(1, 2)
        assert chains.finalized_count() == 2  # 3 and 4 untouched
        chains.finalize_all()
        assert chains.finalized_count() == 4

    def test_chains_partition_finalized_operations(self):
        chains = IncrementalChainClocks()
        for src, dst in [(1, 2), (1, 3), (3, 5), (2, 4)]:
            chains.add_edge(src, dst)
        chains.finalize_all()
        seen = sorted(op for chain in chains.chains() for op in chain)
        assert seen == chains.operation_ids()

    def test_memory_cells_counts_clock_entries(self):
        chains = IncrementalChainClocks()
        chains.add_edge(1, 2)
        chains.add_edge(2, 3)
        assert chains.memory_cells() == 0  # nothing finalized yet
        chains.finalize_all()
        assert chains.memory_cells() >= 3


class TestBackendFactory:
    def test_names(self):
        assert isinstance(make_backend("graph"), HBGraph)
        assert isinstance(make_backend("chains"), ChainBackedGraph)
        # "graph" and "chains" name one engine.
        assert type(make_backend("graph")) is type(make_backend("chains"))
        assert isinstance(make_backend("crosscheck"), CrosscheckGraph)
        with pytest.raises(ValueError, match="unknown hb backend"):
            make_backend("nope")

    def test_chain_backed_graph_keeps_structure(self):
        backend = make_backend("chains")
        backend.add_edge(1, 2, rule="1a:static-order")
        backend.add_edge(2, 3, rule="2:create-before-exe")
        assert backend.edge_count() == 2
        assert [e.rule for e in backend.edges_by_rule("1a:static-order")]
        assert backend.happens_before(1, 3)
        assert not backend.concurrent(1, 2)
        # Queries are answered by clocks, never by ancestor sets: one
        # clock entry per operation on this single chain.
        assert not isinstance(backend, AncestorSetGraph)
        assert backend.memory_cells() == 3

    def test_crosscheck_detects_disagreement(self):
        backend = make_backend("crosscheck")
        backend.add_edge(1, 2)
        assert backend.happens_before(1, 2)
        assert backend.queries_checked == 1
        # Sabotage the chain side: claim op 1 sits unreachably high on its
        # chain, so the two engines must now disagree on 1 ≺ 2.
        backend.position[1] = (0, 99)
        with pytest.raises(BackendDisagreement):
            backend.happens_before(1, 2)

    def test_crosscheck_concurrent_checks_both_directions(self):
        backend = make_backend("crosscheck")
        backend.add_edge(1, 2)
        backend.add_operation(3)
        assert backend.concurrent(2, 3)
        assert backend.queries_checked >= 2
