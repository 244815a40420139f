#!/usr/bin/env python3
"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size (small maps, a fraction of a second),
untraced and traced, and asserts that:

* the last line printed has exactly the keys of the result contract, with
  every operation correct;
* the metric names and units printed match BENCHMARK.json (``end_to_end``
  untraced, ``per_layer`` traced);
* a deliberately wrong expected output is counted as a failure and raises
  the error rate, so the correctness check cannot pass vacuously.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SECONDS = "0.2"


def printed(workload: str, trace: int) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", SECONDS,
                         "--trace", str(trace)], size="tiny")
    assert code == 0, f"{workload}: exit code {code}"
    return [json.loads(line) for line in out.getvalue().splitlines()]


def wrong(expect):
    if isinstance(expect, int):
        return expect + 1
    if isinstance(expect, tuple):
        return (expect[0] + 1,) + expect[1:]
    return expect + "0"


def check_corrupted(workload: str) -> None:
    """Corrupt the expected output of the first query of the first cycle."""
    import workloads

    wl = workloads.WORKLOADS[workload]
    real_setup = wl.setup

    def setup(*args, **kwargs):
        state = real_setup(*args, **kwargs)
        first = state["cycles"][0]
        first[0] = dataclasses.replace(first[0], expect=wrong(first[0].expect))
        return state

    wl.setup = setup
    try:
        result, report = run.measure(workload, 7, float(SECONDS), False, "tiny")
    finally:
        del wl.setup
    assert result["failed"] >= 1 and not result["correct"], f"{workload}: wrong output passed"
    assert report["error_rate"]["value"] > 0, f"{workload}: error rate stayed 0"


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            lines = printed(name, trace)
            result = lines[-1]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == wanted[trace], f"{name} trace={trace}: {sorted(set(units) ^ set(wanted[trace]))}"
            if trace == 0:
                assert lines[-2]["report"]["error_rate"]["value"] == 0
        check_corrupted(name)
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
