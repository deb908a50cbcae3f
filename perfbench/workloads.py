"""The benchmark's three workloads: inputs, one closed-loop pass, oracles.

Every workload is closed-loop with one client: a page starts when the
previous page's verdict is in.  The workload seed shapes the generated
pages only; the program runs with its default configuration (seed 0,
``graph`` backend, exact detector) and sees nothing but the pages.

``repro`` is imported inside :meth:`setup` so that set-up can be timed
from a cold module cache, and so that the functions the oracles call
(``race_fingerprint``) are bound before the tracer wraps anything: the
checks never show up in a traced pass.
"""

from __future__ import annotations

import gc
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from speed import Speedometer, normalised

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_PATH = os.path.join(HERE, "golden.json")
EXAMPLE_PAGES = os.path.join(ROOT, "examples", "pages")


@dataclass
class PageOutcome:
    """One page's time to verdict, the verdict, and what the oracles say."""

    label: str
    #: CPU time to verdict, and the mean reference-loop time over it.
    #: Untraced, the speed samples' own time is taken out; traced, it is
    #: left in, as it is in the tracer's spans the samples interrupt.
    seconds: float
    loop_s: float
    verdict: Any
    #: The page's size on the workload's growth axis (None: not on it).
    size: Optional[float] = None
    problems: List[str] = field(default_factory=list)

    @property
    def normalised_s(self) -> float:
        return normalised(self.seconds, self.loop_s)


@dataclass
class PassResult:
    pages: List[PageOutcome]
    #: Oracle failures about the pass as a whole (not one page).
    problems: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(page.seconds for page in self.pages)

    @property
    def normalised_s(self) -> float:
        """The pass's time at the reference machine speed (``speed.py``)."""
        return sum(page.normalised_s for page in self.pages)


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _timed(tracer, label, call):
    """Run ``call()`` as one page; returns ``(result, seconds, loop_s)``."""
    meter = Speedometer()
    if tracer is None:
        return meter.time(call)
    tracer.mark_page(label)
    result, seconds, loop_s = meter.time(call)
    return result, seconds + meter.handler_s, loop_s


class Corpus:
    """The synthetic Fortune-100 corpus (paper §6, Tables 1/2), eight
    100-site corpora per pass.

    One corpus has 20 heavy sites whose sizes the seed draws, so the
    90th-percentile site of a single corpus moves with the seed; eight
    corpora per pass hold that spread down (quartile distance of
    ``page_ms_p90`` over seeds: 17% of the median for one corpus, 8-15%
    for five, 6% for eight).
    """

    name = "corpus"
    CORPORA = 8
    #: Sites run once during set-up so lazy imports and first-call costs
    #: are paid before timing.
    WARMUP_SITES = 2

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro.explain.fingerprint import race_fingerprint
        from repro.sites.corpus import build_corpus, expected_table2_totals
        from repro.webracer import CorpusReport, WebRacer

        corpora = [
            build_corpus(master_seed=seed + index * 1_000_003)
            for index in range(self.CORPORA)
        ]
        warm = WebRacer(seed=0)
        for index in range(self.WARMUP_SITES):
            warm.run_site_guarded(corpora[0][index], index, index * 101)
        return {
            "corpora": corpora,
            "WebRacer": WebRacer,
            "CorpusReport": CorpusReport,
            "fingerprint": race_fingerprint,
            "table2": expected_table2_totals(),
            "golden": load_golden()["corpus"],
        }

    def run_pass(self, state, tracer=None) -> PassResult:
        pages: List[PageOutcome] = []
        problems: List[str] = []
        for sites in state["corpora"]:
            corpus_pages, results = self._run_corpus(state, sites, tracer)
            pages.extend(corpus_pages)
            report = state["CorpusReport"](reports=results)
            totals = {t: list(v) for t, v in report.table2_totals().items()}
            expected = {t: list(v) for t, v in state["table2"].items()}
            if totals != expected:
                problems.append(f"Table 2 totals {totals} != seeded {expected}")
            if report.sites_with_filtered_races() != 41:
                problems.append(
                    f"{report.sites_with_filtered_races()} sites with races, not 41"
                )
        return PassResult(pages, problems)

    def _run_corpus(self, state, sites, tracer):
        """One corpus, the way ``repro corpus`` runs it sequentially."""
        racer = state["WebRacer"](seed=0)
        fingerprint = state["fingerprint"]
        pages: List[PageOutcome] = []
        results = []
        for index, site in enumerate(sites):
            result, seconds, loop_s = _timed(
                tracer,
                site.name,
                lambda: racer.run_site_guarded(
                    site, index, index * 101, keep_page=True
                ),
            )
            verdict: Dict[str, Any] = {"error": result.error}
            if result.ok:
                report = result.page_report
                verdict.update(
                    filtered=_nonzero(result.filtered_by_type),
                    harmful=_nonzero(result.harmful_by_type),
                    fingerprints=sorted(
                        {fingerprint(race, report.trace) for race in report.filtered_races}
                    ),
                )
                result.page_report = None
            pages.append(
                PageOutcome(
                    site.name,
                    seconds,
                    loop_s,
                    verdict,
                    size=result.operations,
                    problems=self._site_problems(site, verdict, state["golden"]),
                )
            )
            results.append(result)
        return pages, results

    @staticmethod
    def _site_problems(site, verdict, golden) -> List[str]:
        if verdict["error"] is not None:
            return [f"error: {verdict['error']}"]
        problems = []
        expected = _nonzero({t: count for t, (count, _h) in site.expected.items()})
        harmful = _nonzero({t: harm for t, (_c, harm) in site.expected.items()})
        if verdict["filtered"] != expected:
            problems.append(f"filtered {verdict['filtered']} != seeded {expected}")
        if verdict["harmful"] != harmful:
            problems.append(f"harmful {verdict['harmful']} != seeded {harmful}")
        if site.name in golden and verdict["fingerprints"] != golden[site.name]:
            problems.append("fingerprints differ from golden")
        return problems


class OpHeavy:
    """The §6 operation-heavy page, ``<div id=dI></div><script>tK = I;</script>``
    repeated n times, at three sizes that differ only in n."""

    name = "opheavy"
    SIZES = (625, 1250, 2500)
    WARMUP_BLOCKS = 60

    @staticmethod
    def page(blocks: int, rng: random.Random) -> str:
        """The page shape drawn from ``rng``: names, quoting, and how many
        globals the scripts cycle through.  Every draw gives 3 operations
        and 10 accesses per block."""
        globals_count = rng.randint(5, 9)
        element = rng.choice(["d", "box", "item", "row"])
        variable = rng.choice(["t", "g", "v", "acc"])
        quote = rng.choice(["", "'", '"'])
        return "".join(
            f"<div id={quote}{element}{i}{quote}></div>"
            f"<script>{variable}{i % globals_count} = {i};</script>"
            for i in range(blocks)
        )

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro.browser.page import Browser

        shape_seed = random.Random(seed).getrandbits(32)
        pages = [
            (blocks, self.page(blocks, random.Random(shape_seed)))
            for blocks in self.SIZES
        ]
        Browser(seed=0).load(self.page(self.WARMUP_BLOCKS, random.Random(shape_seed)))
        return {"Browser": Browser, "pages": pages}

    def run_pass(self, state, tracer=None) -> PassResult:
        Browser = state["Browser"]
        pages: List[PageOutcome] = []
        for blocks, html in state["pages"]:
            page, seconds, loop_s = _timed(
                tracer, f"blocks{blocks}", lambda: Browser(seed=0).load(html)
            )
            verdict = {
                "operations": len(page.trace.operations),
                "accesses": len(page.trace.accesses),
                "races": len(page.races),
            }
            del page
            gc.collect()
            expected = {
                "operations": 3 * blocks + 2,
                "accesses": 10 * blocks + 2,
                "races": 0,
            }
            problems = [] if verdict == expected else [f"{verdict} != {expected}"]
            pages.append(
                PageOutcome(
                    f"blocks{blocks}",
                    seconds,
                    loop_s,
                    verdict,
                    size=verdict["operations"],
                    problems=problems,
                )
            )
        return PassResult(pages)


class Predict:
    """SHB prediction with replay confirmation over the example pages plus
    one read-modify-write timer page per size."""

    name = "predict"
    TIMERS = (25, 50, 100)
    BUDGET = 2

    @staticmethod
    def timer_page(timers: int, rng: random.Random):
        """``timers`` timers, each ``x = x + c`` on one global; the global's
        name, ``c`` and the strictly increasing delays come from ``rng``.
        Returns ``(html, variable)``."""
        variable = rng.choice(["x", "count", "hits", "total"])
        step = rng.randint(1, 9)
        delay = rng.randint(1, 20)
        parts = [f"<script>{variable} = 0;</script>"]
        for _ in range(timers):
            parts.append(
                "<script>setTimeout(function () { "
                f"{variable} = {variable} + {step}; }}, {delay});</script>"
            )
            delay += rng.randint(1, 5)
        return "".join(parts), variable

    def setup(self, seed: int) -> Dict[str, Any]:
        import repro.predict
        from repro.schedule_runner import PageInput, load_page_inputs

        examples = load_page_inputs(EXAMPLE_PAGES)
        shape_seed = random.Random(seed).getrandbits(32)
        timer_pages = []
        for timers in self.TIMERS:
            html, variable = self.timer_page(timers, random.Random(shape_seed))
            timer_pages.append(
                (timers, variable, PageInput(url=f"timers{timers}.html", html=html))
            )
        repro.predict.predict_page(examples[0], seed=0, budget=self.BUDGET)
        return {
            # The module, not the function: the tracer counts calls made
            # through the module attribute.
            "predict": repro.predict,
            "examples": examples,
            "timer_pages": timer_pages,
            "golden": load_golden()["predict"],
        }

    def run_pass(self, state, tracer=None) -> PassResult:
        predict = state["predict"]
        pages: List[PageOutcome] = []

        def run(page):
            return _timed(
                tracer,
                os.path.basename(page.url),
                lambda: predict.predict_page(page, seed=0, budget=self.BUDGET),
            )

        for page in state["examples"]:
            report, seconds, loop_s = run(page)
            label = os.path.basename(page.url)
            verdict = self.verdict(report)
            expected = state["golden"].get(label)
            problems = []
            if expected is not None and verdict != expected:
                problems.append(f"{verdict} != golden {expected}")
            if label == "widget_poll.html" and len(verdict["confirmed"]) != 1:
                problems.append("widget_poll.html: not exactly one confirmed race")
            pages.append(
                PageOutcome(label, seconds, loop_s, verdict, problems=problems)
            )
        for timers, variable, page in state["timer_pages"]:
            report, seconds, loop_s = run(page)
            verdict = self.verdict(report)
            expected = {
                "error": None,
                "observed": [],
                "predicted": [[f"prop #1.{variable}", "variable"]],
                "confirmed": [],
            }
            problems = [] if verdict == expected else [f"{verdict} != {expected}"]
            pages.append(
                PageOutcome(
                    page.url,
                    seconds,
                    loop_s,
                    verdict,
                    size=timers,
                    problems=problems,
                )
            )
        return PassResult(pages)

    @staticmethod
    def verdict(report) -> Dict[str, Any]:
        """The page's ``(location, race type)`` sets: observed, predicted,
        confirmed.  Sets, so they hold if predictions are ever reported
        once per location."""
        observed = report.observed_races.values()
        return {
            "error": report.error,
            "observed": _pairs((race["location"], race["race_type"]) for race in observed),
            "predicted": _pairs((p.location, p.race_type) for p in report.predictions),
            "confirmed": _pairs((p.location, p.race_type) for p in report.confirmed()),
        }


def _pairs(pairs) -> List[List[str]]:
    """Distinct pairs as sorted lists (the shape they have in JSON)."""
    return [list(pair) for pair in sorted(set(pairs))]


def _nonzero(counts: Dict[str, int]) -> Dict[str, int]:
    return {key: value for key, value in sorted(counts.items()) if value}


WORKLOADS = {workload.name: workload for workload in (Corpus(), OpHeavy(), Predict())}
