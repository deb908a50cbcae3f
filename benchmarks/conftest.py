"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper (see the
per-experiment index in DESIGN.md) and prints the reproduced rows next to
the paper's published values.  Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import contextlib

import pytest

from repro import WebRacer
from repro.sites import build_corpus

MASTER_SEED = 0


@pytest.fixture(scope="session")
def corpus():
    """The 100-site synthetic Fortune-100 corpus (built once per run)."""
    return build_corpus(master_seed=MASTER_SEED)


@pytest.fixture(scope="session")
def corpus_report(corpus):
    """WebRacer's full corpus run (shared by the Table 1/2 benchmarks)."""
    racer = WebRacer(seed=MASTER_SEED)
    return racer.check_corpus(corpus)


@pytest.fixture
def ancestor_set_store(monkeypatch):
    """A context manager under which live page loads keep happens-before
    in :class:`~repro.core.hb.graph.AncestorSetGraph` — the paper's
    frozen-ancestor-set representation — instead of the chain clocks every
    backend name now selects.  The E8/E9 ablations compare the two."""
    from repro.browser import instrument
    from repro.core.hb.graph import AncestorSetGraph

    def reference(_name, assert_forward=True, obs=None):
        return AncestorSetGraph(assert_forward=assert_forward, obs=obs)

    @contextlib.contextmanager
    def use():
        with monkeypatch.context() as patch:
            patch.setattr(instrument, "make_backend", reference)
            yield

    return use


def print_header(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
