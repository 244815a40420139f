#!/usr/bin/env python3
"""Run one braidcode benchmark workload and print its metrics.

    python3 perfbench/run.py --workload locate --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, and the line before
it reports the same run under the workload's own metric names, with sample
counts and the error rate.  With ``--trace 1`` the package's public
functions are wrapped for the run and the metrics are the per-layer ones.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from array import array
from collections import defaultdict
from pathlib import Path

import speed
from spans import LAYERS, Tracer
from stats import median, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MAX_TRACEBACKS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class Run:
    """Outcome of one timed loop, raw and scaled to the reference speed of
    ``speed.REF_S``.

    An operation is booked when the speed probe after it has run: its wall
    time adds to its cycle's time, and its latency sample, if it was
    correct, to the samples.  Arrays keep the benchmark's own memory small
    next to the program's.
    """

    def __init__(self):
        self.by_label: dict[str, array] = defaultdict(lambda: array("d"))
        self.probes: list[float] = []
        self.pending: list[tuple[int, float, float, bool]] = []  # (cycle, wall, latency, correct)
        self.cycle_s = {True: array("d"), False: array("d")}  # keyed by scaled
        self.op_lat = {True: array("d"), False: array("d")}
        self.ok = 0
        self.failed = 0

    def probe(self) -> None:
        self.probes.append(speed.probe())
        if len(self.probes) < 2:
            return
        f = speed.factor(self.probes[-2], self.probes[-1])
        for cycle, wall, dt, good in self.pending:
            for scaled, k in ((False, 1.0), (True, f)):
                cycles = self.cycle_s[scaled]
                while len(cycles) <= cycle:
                    cycles.append(0.0)
                cycles[cycle] += wall * k
                if good:
                    self.op_lat[scaled].append(dt * k)
        self.pending.clear()

    def timings(self, wl, scaled: bool) -> tuple[float, array]:
        """(seconds of all operations, latency samples)."""
        cycles = self.cycle_s[scaled]
        return sum(cycles), (cycles if wl.latency_per_cycle else self.op_lat[scaled])


def timed_loop(wl, state, seconds: float, tracer) -> Run:
    """Run whole cycles of the workload until ``seconds`` have passed,
    probing the machine's speed between operations."""
    run = Run()
    cycles = state["cycles"]
    run.probe()
    t_start = last_probe = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds:
        for q in cycles[i % len(cycles)]:
            t0 = time.perf_counter()
            dt = 0.0
            try:
                if tracer is None:
                    dt, good = wl.op(state, q, None)
                else:
                    with tracer.span(f"bench.{wl.name}"):
                        dt, good = wl.op(state, q, tracer)
            except Exception:  # a failed operation is counted, not fatal
                if run.failed < MAX_TRACEBACKS:
                    traceback.print_exc()
                good = False
            t1 = time.perf_counter()
            run.pending.append((i, t1 - t0, dt, good))
            if good:
                run.ok += 1
                run.by_label[q.label].append(dt)
            else:
                run.failed += 1
            if t1 - last_probe >= speed.EVERY_S:
                run.probe()
                last_probe = time.perf_counter()
        i += 1
    run.probe()
    return run


def peak_rss_mb(wl) -> float:
    return resource.getrusage(wl.rusage).ru_maxrss / 1024


def end_to_end(wl, run: Run, setup_s: list[float]) -> dict:
    """Times scaled to the reference speed (see speed.py)."""
    seconds, lat = run.timings(wl, scaled=True)
    values = {
        "setup_s": median(setup_s),
        "ops_per_s": run.ok / seconds,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb(wl),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def workload_report(wl, run: Run, setup_s: list[float]) -> dict:
    """The run under the workload's own metric names, with sample counts.
    Its times are raw clock time, except set-up, which is as in the result."""
    attempted = run.ok + run.failed
    seconds, lat = run.timings(wl, scaled=False)
    rows = dict(wl.report(run.ok / seconds, run.ok, lat))
    rows["error_rate"] = (run.failed / attempted, "ratio", attempted)
    rows["peak_rss_mb"] = (peak_rss_mb(wl), "MB", 1)
    rows["setup_s"] = (median(setup_s), "s", len(setup_s))
    rows["speed_probe_ms"] = (median(run.probes) * 1e3, "ms", len(run.probes))
    return {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in rows.items()}


def layer_metrics(wl, tracer, setup_end: int, setup_counters, run: Run, base: Run) -> dict:
    """Per-layer metrics from the spans of the traced phase [setup_end, end)."""
    from workloads import DECODE_LABELS

    spans = tracer.summarize(setup_end, len(tracer))
    setup = tracer.summarize(0, setup_end)
    c = tracer.counters - setup_counters
    m: dict[str, tuple[float, str]] = {}

    def row(name):
        return spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "under": {}})

    for fn in ("decode_1d", "decode_nd", "decode_1d_general", "erasure_decode"):
        r = row(f"codec.{fn}")
        m[f"codec.{fn}.calls"] = (r["calls"], "count")
        m[f"codec.{fn}.p50_us"] = (median(r["durations"]) * 1e6, "us")
    erasures = row("codec.erasure_decode")["calls"]
    m["codec.erasure_decode.candidates_per_call"] = (
        c["codec.erasure_decode.candidates"] / erasures if erasures else 0.0, "count")
    # a decode is one call the benchmark makes; nested decodes belong to it
    decodes = sum(row(f"codec.{fn}")["calls"] - row(f"codec.{fn}")["under"].get("codec", 0)
                  for fn in ("decode_1d", "decode_nd", "decode_1d_general", "erasure_decode"))
    m["codec.encodes_per_decode"] = (
        row("core.encode")["under"].get("codec", 0) / decodes if decodes else 0.0, "count")
    m["codec.not_a_codeword"] = (
        sum(v for k, v in c.items() if k.startswith("codec.") and k.endswith(".raised.NotACodeword")),
        "count")
    by_map = run.by_label if wl.decodes else {}
    for label in DECODE_LABELS:
        m[f"codec.decode.p50_us.{label}"] = (median(by_map.get(label, [])) * 1e6, "us")

    m["core.encode.calls"] = (row("core.encode")["calls"], "count")
    m["core.encode.self_s"] = (row("core.encode")["self_s"], "s")
    m["core.to_json.s"] = (row("core.to_json")["s"], "s")
    m["core.from_json.s"] = (row("core.from_json")["s"] + c["cli.from_json.s"], "s")
    m["core.json.bytes"] = (c["core.json.bytes"] + c["cli.json.bytes"], "bytes")

    dist_s = row("oracle.is_distinguishable")["s"]
    m["oracle.is_distinguishable.s"] = (dist_s, "s")
    m["oracle.blocks_checked"] = (c["oracle.blocks_checked"], "count")
    m["oracle.blocks_per_s"] = (c["oracle.blocks_checked"] / dist_s if dist_s else 0.0, "1/s")
    m["oracle.check_structure.s"] = (row("oracle.check_structure")["s"], "s")

    m["braid1d.construct.calls"] = (row("braid1d.construct")["calls"], "count")
    m["braid1d.construct.s"] = (row("braid1d.construct")["s"], "s")
    m["braid1d.optimize_generators.s"] = (row("braid1d.optimize_generators")["s"], "s")
    m["braid1d.restrict_modify.s"] = (
        row("braid1d.restrict")["s"] + row("braid1d.modify_general_size")["s"], "s")
    m["generators.find_generator.calls"] = (row("generators.find_generator")["calls"], "count")
    m["generators.find_generator.s"] = (row("generators.find_generator")["s"], "s")
    m["generators.search.nodes"] = (c["generators.search.nodes"], "count")
    m["sunmao.synthesize.s"] = (row("sunmao.synthesize")["s"], "s")
    m["braidnd.construct_unitary_nd.s"] = (row("braidnd.construct_unitary_nd")["s"], "s")
    m["braidnd.extend_arbitrary_size.s"] = (row("braidnd.extend_arbitrary_size")["s"], "s")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(r["self_s"] for n, r in spans.items() if n.split(".", 1)[0] == layer), "s")
        m[f"setup.{layer}.self_s"] = (
            sum(r["self_s"] for n, r in setup.items() if n.split(".", 1)[0] == layer)
            / SETUP_REPEATS, "s")

    m["cli.python_start_ms"] = (median(tracer.samples["cli.python_start_ms"]), "ms")
    m["cli.import_ms"] = (median(tracer.samples["cli.import_ms"]), "ms")
    m["cli.command_self_ms"] = (median(tracer.samples["cli.command_self_ms"]), "ms")

    m["run.ops"] = (run.ok + run.failed, "count")
    traced_s = run.timings(wl, scaled=True)[0]
    m["run.timed_s"] = (run.timings(wl, scaled=False)[0], "s")
    # seconds per operation traced, over seconds per operation untraced,
    # both scaled to the reference speed
    m["trace.overhead_ratio"] = (
        (traced_s / max(run.ok, 1)) / (base.timings(wl, scaled=True)[0] / max(base.ok, 1)), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def measure(name: str, seed: int, seconds: float, traced: bool, size: str = "full") -> tuple[dict, dict | None]:
    """Set up and run one workload; returns (result line, report or None)."""
    import workloads

    wl = workloads.WORKLOADS[name]
    tracer = Tracer() if traced else None
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        if tracer is not None:
            tracer.install()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            before = speed.probe()
            t0 = time.perf_counter()
            state = wl.setup(seed, size, workdir, tracer)
            wall = time.perf_counter() - t0
            setup_s.append(wall * speed.factor(before, speed.probe()))
        if tracer is None:
            run = timed_loop(wl, state, seconds, None)
            metrics = end_to_end(wl, run, setup_s)
            report = workload_report(wl, run, setup_s)
        else:
            # a third of the time untraced, as the base of the overhead ratio
            tracer.uninstall()
            base = timed_loop(wl, state, seconds / 3, None)
            setup_end, setup_counters = len(tracer), tracer.counters.copy()
            tracer.install()
            run = timed_loop(wl, state, seconds - seconds / 3, tracer)
            tracer.uninstall()
            metrics = layer_metrics(wl, tracer, setup_end, setup_counters, run, base)
            report = None
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = run.ok + run.failed
    result = {"correct": run.failed == 0 and attempted > 0, "attempted": attempted,
              "failed": run.failed, "metrics": metrics}
    return result, report


def main(argv=None, size: str = "full") -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "braidcode" / "__init__.py").is_file():
        print(f"error: no braidcode package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    # One CPU for the benchmark and the CLI children it starts, so that the
    # speed probe runs where the measured work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace), size)
    if report is not None:
        print(json.dumps({"workload": args.workload, "seed": args.seed, "report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
