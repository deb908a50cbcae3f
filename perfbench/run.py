"""Pipeline benchmark for WebRacer: ``corpus``, ``opheavy`` and ``predict``.

Run from the repository root::

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

One run sets the workload up five times (importing ``repro`` from a cold
module cache, generating the pages from ``--seed`` and warming up), then
runs closed-loop passes over the pages until ``--seconds`` have gone by,
checking every verdict against the oracles in ``workloads.py``.  Every
time it reports is normalised to a reference machine speed measured
alongside the program (see ``speed.py``).

``--trace 0`` prints the end-to-end metrics (see :func:`end_to_end`).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see ``tracer.py``), the tracing
overhead, and writes the last traced pass's spans to
``.perfbench-out/``.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5

sys.path.insert(0, HERE)

from speed import Speedometer, normalised  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def forget_repro() -> None:
    """Drop every loaded ``repro`` module so the next import is cold."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def setup(workload, seed: int):
    """Set the workload up :data:`SETUP_REPEATS` times; returns the last
    state and the median normalised set-up time."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        forget_repro()
        gc.collect()
        state, seconds, loop_s = Speedometer().time(lambda: workload.setup(seed))
        times.append(normalised(seconds, loop_s))
    return state, statistics.median(times)


def run_pass(workload, state, tracer=None) -> PassResult:
    gc.collect()
    if tracer is None:
        return workload.run_pass(state)
    tracer.install()
    try:
        return workload.run_pass(state, tracer)
    finally:
        tracer.uninstall()


def nearest_rank(values: List[float], share: float) -> float:
    """The smallest value with at least ``share`` of ``values`` at or
    below it (p90 of 100 values leaves exactly 10 above)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def growth_exponent(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def end_to_end(passes: List[PassResult], setup_s: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of a run's untraced passes.

    Every time is normalised to the reference machine speed (``speed.py``).
    A page's time to verdict is its median over the passes, and ``wall_s``
    is the median pass.
    """
    page_s = [
        statistics.median(run.pages[index].normalised_s for run in passes)
        for index in range(len(passes[0].pages))
    ]
    sized = [
        (page.size, seconds)
        for page, seconds in zip(passes[0].pages, page_s)
        if page.size is not None
    ]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(run.normalised_s for run in passes), "s"),
        "page_ms_p50": (nearest_rank(page_s, 0.5) * 1000.0, "ms"),
        "page_ms_p90": (nearest_rank(page_s, 0.9) * 1000.0, "ms"),
        "growth_exp": (growth_exponent(sized), "slope"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def check(passes: List[PassResult], reference: PassResult) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over ``passes``.  A page fails when
    an oracle rejects it or its verdict differs from the same page in
    ``reference`` (the first untraced pass)."""
    attempted = failed = 0
    problems: List[str] = []
    for run in passes:
        problems.extend(run.problems)
        for page, first in zip(run.pages, reference.pages):
            attempted += 1
            page_problems = list(page.problems)
            if page.verdict != first.verdict:
                page_problems.append("verdict differs between passes")
            if page_problems:
                failed += 1
                problems.append(f"{page.label}: {'; '.join(page_problems)}")
    return attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    state, setup_s = setup(workload, args.seed)

    untraced: List[PassResult] = []
    traced: List[Tuple[PassResult, Tracer]] = []
    # Passes run while the next one, as long as the last, still ends
    # within --seconds; there is always at least one.
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        untraced.append(run_pass(workload, state))
        if args.trace:
            tracer = Tracer()
            traced.append((run_pass(workload, state, tracer), tracer))
        now = time.perf_counter()
        if now - started + (now - pass_started) > args.seconds:
            break

    reference = untraced[0]
    attempted, failed, problems = check(
        untraced + [run for run, _ in traced], reference
    )
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    print(
        f"{args.workload} seed={args.seed}: {len(untraced)} untraced, "
        f"{len(traced)} traced pass(es) of {len(reference.pages)} pages; "
        f"median pass {statistics.median(run.wall_s for run in untraced):.3f} s"
        " of CPU time before normalisation"
    )
    print(f"failed_frac = {failed / attempted:.4f} fraction ({failed} of {attempted} pages)")

    if args.trace:
        traced_wall = statistics.median(run.wall_s for run, _ in traced)
        per_pass = [layer_metrics(tracer, run.wall_s) for run, tracer in traced]
        metrics = {
            name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_value, unit) in per_pass[0].items()
        }
        metrics["trace.overhead"] = (
            statistics.median(run.normalised_s for run, _ in traced)
            / statistics.median(run.normalised_s for run in untraced),
            "ratio",
        )
        for name, (value, unit) in metrics.items():
            share = (
                f"  ({value / traced_wall:6.1%} of traced wall)"
                if name.endswith(".self_s")
                else ""
            )
            print(f"{name} = {value:.6g} {unit}{share}")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans")
        traced[-1][1].write(spans)
        print(f"spans of the last traced pass written to {os.path.relpath(spans, ROOT)}")
    else:
        metrics = end_to_end(untraced, setup_s)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")

    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
