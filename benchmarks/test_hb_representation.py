"""E9 — Section 5.2.1 ablation: graph traversal vs. vector clocks.

The paper stores happens-before as a graph and notes that repeated graph
traversals contribute to its overhead, planning "a more efficient
vector-clock representation in the future".  This benchmark builds the
representations from the same large execution and replays an identical CHC
query stream against each, validating they agree and comparing throughput
and memory shape.  Three representations compete:

* ``AncestorSetGraph``: the graph with frozen-prefix ancestor caching (the
  paper's traversal representation, kept as the reference);
* the offline ``ChainVectorClocks`` ablation (build-once, then query);
* the online ``IncrementalChainClocks`` engine that answers every live
  ``--hb-backend`` query, fed edge by edge exactly as a live run would.
"""

import random
import time

from repro.browser.page import Browser
from repro.core.hb.chains import IncrementalChainClocks
from repro.core.hb.graph import AncestorSetGraph
from repro.core.hb.vector_clock import ChainVectorClocks


def big_page_graph():
    """A real HB graph from an operation-heavy page load with genuine
    concurrency: async scripts, timers, and images racing with parsing."""
    parts = []
    resources = {}
    for i in range(500):
        parts.append(f"<div id='d{i}'></div>")
        if i % 3 == 0:
            parts.append(f"<script>g{i % 11} = {i};</script>")
        if i % 25 == 0:
            parts.append(f"<img src='p{i}.png'>")
            resources[f"p{i}.png"] = "bin"
        if i % 40 == 0:
            parts.append(f"<script src='a{i}.js' async='true'></script>")
            resources[f"a{i}.js"] = f"as{i} = setTimeout('tm{i} = 1;', {i % 17});"
    page = Browser(seed=0, resources=resources).load("".join(parts))
    return page.monitor.graph


def query_stream(graph, count=20_000, seed=1):
    rng = random.Random(seed)
    nodes = graph.operation_ids()
    return [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(count)
    ]


def test_graph_chc_throughput(benchmark):
    graph = big_page_graph()
    reference = rebuilt(graph, AncestorSetGraph())
    queries = query_stream(graph)

    def run():
        hits = 0
        for a, b in queries:
            if reference.concurrent(a, b):
                hits += 1
        return hits

    hits = benchmark(run)
    assert hits > 0


def test_vector_clock_chc_throughput(benchmark):
    graph = big_page_graph()
    clocks = ChainVectorClocks(graph)
    queries = query_stream(graph)

    def run():
        hits = 0
        for a, b in queries:
            if clocks.concurrent(a, b):
                hits += 1
        return hits

    hits = benchmark(run)
    assert hits > 0


def test_incremental_chains_chc_throughput(benchmark):
    graph = big_page_graph()
    chains = incremental_from(graph)
    chains.finalize_all()
    queries = query_stream(graph)

    def run():
        hits = 0
        for a, b in queries:
            if chains.concurrent(a, b):
                hits += 1
        return hits

    hits = benchmark(run)
    assert hits > 0


def rebuilt(graph, store):
    """Feed a finished graph's operations and edges into a fresh ``store``,
    in the order a live run would deliver them."""
    for op_id in graph.operation_ids():
        store.add_operation(op_id)
    for edge in sorted(graph.edges, key=lambda e: e.dst):
        store.add_edge(edge.src, edge.dst, edge.rule)
    return store


def incremental_from(graph):
    """The finished graph fed through the online clock engine."""
    return rebuilt(graph, IncrementalChainClocks())


def test_representations_agree_and_compare(benchmark):
    graph = benchmark.pedantic(big_page_graph, rounds=1, iterations=1)
    build_start = time.perf_counter()
    clocks = ChainVectorClocks(graph)
    build_time = time.perf_counter() - build_start
    queries = query_stream(graph, count=30_000)

    reference = rebuilt(graph, AncestorSetGraph())
    start = time.perf_counter()
    graph_answers = [reference.concurrent(a, b) for a, b in queries]
    graph_time = time.perf_counter() - start

    start = time.perf_counter()
    clock_answers = [clocks.concurrent(a, b) for a, b in queries]
    clock_time = time.perf_counter() - start

    start = time.perf_counter()
    chains = incremental_from(graph)
    chain_answers = [chains.concurrent(a, b) for a, b in queries]
    chain_time = time.perf_counter() - start

    assert graph_answers == clock_answers
    assert graph_answers == chain_answers

    ops = len(graph.operation_ids())
    print()
    print("HB representation ablation (E9):")
    print(f"  operations: {ops}, edges: {graph.edge_count()}, "
          f"chains: {clocks.chain_count}")
    print(f"  graph (cached ancestors): {len(queries) / graph_time:12.0f} queries/s")
    print(f"  vector clocks:            {len(queries) / clock_time:12.0f} queries/s "
          f"(+{build_time * 1000:.1f} ms one-time build)")
    print(f"  incremental chains:       {len(queries) / chain_time:12.0f} queries/s "
          f"(online build included)")
    print(f"  VC memory: {clocks.memory_cells()} clock cells "
          f"(vs. worst-case {ops * ops} for per-op ancestor sets)")
    concurrent_fraction = sum(graph_answers) / len(graph_answers)
    print(f"  concurrent pairs in stream: {concurrent_fraction:.1%}")


def online_replay(graph, rep, queries_per_op=3, seed=1):
    """Drive ``rep`` exactly as the live monitor does: deliver each
    operation's incoming edges before the operation runs, then issue CHC
    queries against operations seen earlier (one per memory access in a
    real run).  Returns (seconds, queries, hits) — maintenance included."""
    rng = random.Random(seed)
    edges_by_dst = {}
    for edge in graph.edges:
        edges_by_dst.setdefault(edge.dst, []).append(edge)
    prior = []
    hits = queries = 0
    start = time.perf_counter()
    for op in graph.operation_ids():
        rep.add_operation(op)
        for edge in edges_by_dst.get(op, ()):
            rep.add_edge(edge.src, edge.dst, edge.rule)
        for _ in range(min(queries_per_op, len(prior))):
            a = prior[rng.randrange(len(prior))]
            hits += rep.chc(a, op)
            queries += 1
        prior.append(op)
    return time.perf_counter() - start, queries, hits


def test_online_backend_cost_at_corpus_scale(corpus, ancestor_set_store):
    """The tentpole measurement, two halves.

    Live half: run real corpus sites through both engines and require
    identical detection output at lower representation memory (the
    reference stores frozen ancestor sets, chains store one small clock
    per op).

    Replay half: re-drive the recorded graphs through fresh instances of
    each representation in live delivery order, timing only HB maintenance
    plus CHC queries — whole-page wall time is dominated by the JS
    interpreter and cannot resolve the difference.  The reference pays
    O(ancestor-set) to freeze each newly queried operation; chains pay
    O(chains) per operation.  Chains must win per-query cost and memory."""
    from repro import WebRacer

    sites = corpus[:8]
    live = {}

    def run_live(engine):
        reports = [WebRacer(seed=0).check_site(site) for site in sites]
        live[engine] = {
            "queries": sum(r.page.monitor.detector.chc_queries for r in reports),
            "cells": sum(r.page.monitor.graph.memory_cells() for r in reports),
            "races": sum(len(r.raw_races) for r in reports),
        }
        return [r.page.monitor.graph for r in reports]

    with ancestor_set_store():
        graphs = run_live("ancestor sets")
    assert all(isinstance(graph, AncestorSetGraph) for graph in graphs)
    run_live("chains")

    replay = {}
    factories = {
        "ancestor sets": lambda: AncestorSetGraph(),
        "chains": lambda: IncrementalChainClocks(),
    }
    for name, factory in factories.items():
        best = None
        for _round in range(5):
            total = queries = hits = 0
            for graph in graphs:
                seconds, q, h = online_replay(graph, factory())
                total += seconds
                queries += q
                hits += h
            if best is None or total < best[0]:
                best = (total, queries, hits)
        replay[name] = best

    ops = sum(len(g.operation_ids()) for g in graphs)
    print()
    print(f"Online HB backend cost on corpus-scale traces "
          f"({len(graphs)} sites, {ops} operations):")
    for name in ("ancestor sets", "chains"):
        seconds, queries, _hits = replay[name]
        print(f"  {name:13s}: {seconds * 1e6 / queries:6.2f} us/query "
              f"(maintenance incl., {queries} queries), "
              f"{live[name]['cells']} live memory cells")

    # Identical detection output on the live runs...
    assert live["ancestor sets"]["races"] == live["chains"]["races"]
    assert live["ancestor sets"]["queries"] == live["chains"]["queries"]
    # ...identical answers on the replayed query stream...
    assert replay["ancestor sets"][1:] == replay["chains"][1:]
    # ...at lower per-query cost and a fraction of the memory.
    assert replay["chains"][0] < replay["ancestor sets"][0]
    assert live["chains"]["cells"] < live["ancestor sets"]["cells"]
