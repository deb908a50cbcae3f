"""E8 — Section 6 "Performance": instrumentation overhead.

The paper reports WebRacer handles pages with tens of thousands of
operations in under a minute, and that heavy JavaScript sees a large
slowdown (≈500× on SunSpider vs. JIT-enabled, uninstrumented WebKit —
most of which was the disabled JIT).  Our analogue compares the same
compute-heavy page with instrumentation+detection on vs. off, and measures
throughput on an operation-heavy page.
"""

import time

from repro.browser.page import Browser

#: A SunSpider-flavoured compute kernel (loops, recursion, arrays, strings).
HEAVY_SCRIPT = """
function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
var acc = 0;
for (var i = 0; i < 200; i++) { acc += i * i % 7; }
var arr = [];
for (var j = 0; j < 150; j++) { arr.push(j); }
var sum = 0;
for (var k = 0; k < arr.length; k++) { sum += arr[k]; }
var s = '';
for (var m = 0; m < 60; m++) { s += 'x'; }
result = fib(13) + acc + sum + s.length;
"""

HEAVY_PAGE = f"<script>{HEAVY_SCRIPT}</script>"


def run_page(instrument):
    browser = Browser(seed=0, instrument=instrument)
    page = browser.load(HEAVY_PAGE)
    assert page.interpreter.global_object.get_own("result") is not None
    return page


def test_instrumented_page_load(benchmark):
    page = benchmark(run_page, True)
    assert len(page.trace.accesses) > 500


def test_uninstrumented_page_load(benchmark):
    page = benchmark(run_page, False)
    assert len(page.trace.accesses) == 0


def test_overhead_ratio(benchmark):
    """Report the instrumentation slowdown (the paper's 500× figure
    includes the disabled JIT; ours isolates detection overhead only)."""
    benchmark.pedantic(run_page, args=(True,), rounds=1, iterations=1)
    rounds = 5
    start = time.perf_counter()
    for _ in range(rounds):
        run_page(False)
    base = (time.perf_counter() - start) / rounds
    start = time.perf_counter()
    for _ in range(rounds):
        run_page(True)
    instrumented = (time.perf_counter() - start) / rounds
    ratio = instrumented / base

    print()
    print("Instrumentation overhead (E8):")
    print(f"  uninstrumented: {base * 1000:8.2f} ms/page")
    print(f"  instrumented:   {instrumented * 1000:8.2f} ms/page")
    print(f"  slowdown:       {ratio:8.2f}x")
    print("  paper: ~500x on SunSpider (incl. JIT disabled); pages with")
    print("  tens of thousands of operations handled in under a minute")
    assert ratio >= 1.0


def test_operation_heavy_page_under_a_minute(benchmark):
    """Section 6: 'handling pages with tens of thousands of operations in
    less than a minute' — reproduce with a 10k+ operation page."""
    blocks = "".join(
        f"<div id='d{i}'></div><script>t{i % 7} = {i};</script>" for i in range(2500)
    )

    def load_heavy():
        return Browser(seed=0).load(blocks)

    start = time.perf_counter()
    page = benchmark.pedantic(load_heavy, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    ops = len(page.trace.operations)

    print()
    print(f"Operation-heavy page: {ops} operations, "
          f"{len(page.trace.accesses)} accesses in {elapsed:.2f}s")
    assert ops >= 5000
    assert elapsed < 60.0


def test_hb_backend_overhead(benchmark, ancestor_set_store):
    """E8 extension: chain clocks vs. frozen ancestor sets on an
    operation-heavy page.

    The chain-clock engine (every ``--hb-backend`` name's live store) must
    produce the identical trace and race stream while holding far less
    query-engine state than the paper's frozen ancestor sets; wall time
    per page is reported for both."""
    from repro.core.hb.graph import AncestorSetGraph

    blocks = "".join(
        f"<div id='d{i}'></div><script>t{i % 7} = {i};</script>" for i in range(1200)
    )
    benchmark.pedantic(lambda: Browser(seed=0).load(blocks), rounds=1, iterations=1)

    def measure():
        start = time.perf_counter()
        page = Browser(seed=0).load(blocks)
        elapsed = time.perf_counter() - start
        return page, {
            "time": elapsed,
            "queries": page.monitor.detector.chc_queries,
            "cells": page.monitor.graph.memory_cells(),
            "accesses": len(page.trace.accesses),
            "races": len(page.monitor.detector.races),
        }

    with ancestor_set_store():
        reference_page, reference_r = measure()
    chains_page, chains_r = measure()
    assert isinstance(reference_page.monitor.graph, AncestorSetGraph)
    assert not isinstance(chains_page.monitor.graph, AncestorSetGraph)
    results = {"ancestor sets": reference_r, "chains": chains_r}

    print()
    print("HB engine overhead on an operation-heavy page (E8 extension):")
    for name, r in results.items():
        print(f"  {name:13s}: {r['time'] * 1000:8.1f} ms/page, "
              f"{r['queries']} CHC queries, {r['cells']} query-engine cells")

    assert chains_r["accesses"] == reference_r["accesses"]
    assert chains_r["races"] == reference_r["races"]
    assert chains_r["queries"] == reference_r["queries"]
    assert chains_r["cells"] < reference_r["cells"]
    # ~2x end-to-end on this page (O(V) ancestor freezes dominate the
    # reference at this scale); assert with generous headroom.
    assert chains_r["time"] < reference_r["time"] * 1.5
