#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and write both sides' statistics.

    python3 scripts/bench_pairs.py --pairs cli=10 --pairs locate=2 --out BENCH.json
    python3 scripts/bench_pairs.py --base HEAD~1 --head HEAD --pairs cli=10 --out BENCH.json

Run from the root of a checkout.  The two sides are ``--base`` (a commit,
by default ``HEAD``) and ``--head`` (a commit or tree; by default the
staged tree, what ``git commit`` would record: stage the change first).
Each side is extracted with ``git archive`` into its own temporary
directory, so it holds the committed files alone, and the unchanged
``perfbench/run.py`` of that side runs there with ``--trace 0`` for the
``run_seconds`` of BENCHMARK.json.

Pair i of a workload runs both sides with seed ``--seed + i``; even pairs
run the base first, odd pairs the change.  Both sides see this
process's ``PYTHONDONTWRITEBYTECODE`` value (set it empty to measure with
bytecode caching on), and every ``__pycache__`` in a copy is deleted
before each run, so no side starts with bytecode another run left behind.

The output holds, per workload and end-to-end metric of BENCHMARK.json,
each side's runs, median and quartiles, the pairs the change won (ties
count for neither) and the change of the median against the metric's
bound; and the seeds, the Python version, both SHAs and the bytecode
setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(tree: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(metric: dict, base: list[float], head: list[float]) -> dict:
    sign = 1 if metric["better"] == "lower" else -1
    b, h = summarize(base), summarize(head)
    worse_by = sign * (h["median"] / b["median"] - 1) if b["median"] else 0.0
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "base": b,
        "head": h,
        "head_wins": sum(sign * (y - x) < 0 for x, y in zip(base, head)),
        "head_worse_by": worse_by,  # relative change of the median, positive = worse
        "bound": metric["bound"],
        "within_bound": worse_by <= metric["bound"],
        "beats_base_iqr": sign * (b["median"] - h["median"]) > b["q3"] - b["q1"],
    }


def parse_pairs(items: list[str]) -> dict[str, int]:
    pairs = {}
    for item in items:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 2:  # quartiles need two runs a side
            raise SystemExit(f"error: --pairs takes WORKLOAD=N with N >= 2, got {item!r}")
        pairs[name] = int(count)
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="parent commit (default HEAD)")
    ap.add_argument("--head", default=None, help="change: commit or tree (default: the staged tree)")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--seed", type=int, default=7301, help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    pairs = parse_pairs(args.pairs)
    unknown = set(pairs) - {w["name"] for w in bench["workloads"]}
    if unknown:
        raise SystemExit(f"error: workloads not in BENCHMARK.json: {sorted(unknown)}")
    sides = {"base": git("rev-parse", f"{args.base}^{{tree}}"),
             "head": git("rev-parse", f"{args.head}^{{tree}}") if args.head else git("write-tree")}
    dont_write = os.environ.get("PYTHONDONTWRITEBYTECODE", "")
    # each side's run.py finds its own src/; nothing of this checkout may leak in
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    # ``src`` names the package source alone: it stays valid when docs change after a run
    out = {
        "base": {"rev": args.base, "commit": git("rev-parse", args.base), "tree": sides["base"],
                 "src": git("rev-parse", f"{sides['base']}:src")},
        "head": {"rev": args.head or "staged tree",
                 "commit": git("rev-parse", args.head) if args.head else None,
                 "tree": sides["head"], "src": git("rev-parse", f"{sides['head']}:src")},
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": dont_write,
        "run_seconds": seconds,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in sides}
        for side, tree in sides.items():
            extract(tree, checkouts[side])
        for workload, n in pairs.items():
            seeds = [args.seed + i for i in range(n)]
            results = {"base": [], "head": []}
            for i, seed in enumerate(seeds):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    r = run_once(checkouts[side], workload, seed, seconds, env)
                    results[side].append(r)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"p50 {r['metrics']['latency_p50_ms']['value']:.2f} ms, "
                          f"failed {r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
            out["workloads"][workload] = {
                "pairs": n,
                "seeds": seeds,
                "failed": {side: sum(r["failed"] for r in rs) for side, rs in results.items()},
                "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in results.items()},
                "metrics": {
                    name: compare(metric, *([r["metrics"][name]["value"] for r in results[side]]
                                            for side in ("base", "head")))
                    for name, metric in metrics.items()
                },
            }
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n")  # keep finished workloads
    return 0


if __name__ == "__main__":
    sys.exit(main())
