"""Regenerate ``golden.json``, the verdicts the benchmark's oracles expect.

The goldens pin what the program reports, so capture them from a commit
whose output is trusted, never from a change under test::

    python3 perfbench/capture_golden.py

``corpus`` holds each site's filtered-race fingerprint set (the same for
every corpus seed); ``predict`` holds each example page's observed,
predicted and confirmed ``(location, race type)`` sets.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> None:
    workloads.load_golden = lambda: {"corpus": {}, "predict": {}}
    corpus = workloads.Corpus()
    corpus_pass = corpus.run_pass(corpus.setup(0))
    predict = workloads.Predict()
    predict_state = predict.setup(0)
    predict_pass = predict.run_pass(predict_state)
    golden = {
        "corpus": {
            page.label: page.verdict["fingerprints"] for page in corpus_pass.pages
        },
        "predict": {
            page.label: page.verdict
            for page in predict_pass.pages[: len(predict_state["examples"])]
        },
    }
    with open(workloads.GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
