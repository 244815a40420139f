#!/usr/bin/env python3
"""Time two trees of the package side by side, so a gap can be told from host drift.

    python3 scripts/ab.py --base REV [--rounds N]

Run from the root of a checkout, with the standard library alone.  The
``src/`` of commit ``--base`` (default ``HEAD``) is exported with ``git
archive`` to a temporary directory and imported as the package
``braidcode_base``, beside this checkout's ``src/`` as ``braidcode`` (the
working tree, uncommitted edits included).  Each side builds its own
copies of the full-size ``locate`` and ``locate-edge`` maps, and takes
the build functions of the full-size ``certify`` maps, from this
checkout's ``perfbench/workloads.py``, so both build the same maps.

Per map, ``TAGS`` seeded tags, a quarter of them in the last two block
lengths of one axis (``opcount.tags``), give the codewords; an erasure
map keeps one color of each of its first ``ERASURE_TAGS``.  Before any
timing, both sides encode every tag, decode every codeword and build
every ``certify`` map, and the results are compared: the codewords and
decode results by ``repr``, the built maps by ``to_json``.  The rounds are then shared among ``PROCESSES`` fresh
processes, run one after another, which build the two sides in turn in
either order.  In one process, where each side's code, types and maps
land in memory moves its time by up to 2%, the same way in every round
(single-process A/A runs read ratios of 0.975 to 1.018); many processes
average that out.  Each round times four batches per operation, in the
order base, head, head, base, and the next round head, base, base, head,
so a drift linear in time cancels and neither side always opens a round.
Every ``RESEAT`` rounds both sides build the map and its codewords
afresh, in turn in either order.  A decode batch runs the map's decoder
on the codewords in turn, and an encode batch ``encode`` on the tags,
with the garbage collector off; a compile batch runs ``compile_decoder``
on the map with its kept decoder dropped, and a build batch a
``certify`` map's build function, each call after ``gc.collect()``.  A batch makes as many calls as last
about ``BATCH_NS``, a count fixed by one base call: short batches, many
rounds, so a burst of load on the host spoils few rounds and the median
ratio stays put.  A round's ratio is the head's time over the base's,
both of its batches summed.

Prints, per map and operation, each side's median time per call over all
rounds, the median ratio, the rounds the head won, and each side's
bytecode count as ``scripts/opcount.py`` counts it (the median over the
codewords or tags for a decode or an encode, one call for a compile or a
build).  Run against the tree's
own commit with no edit, or with ``--base $(git write-tree)`` against
the staged tree (an A/A run), every ratio should read within
±1% of 1; a gap no larger than that is not shown by this script.  The
default 400 rounds take about five minutes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import itertools
import multiprocessing
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import opcount

ROOT = Path(__file__).resolve().parent.parent
TAGS, ERASURE_TAGS, SEED = 200, 20, 1
BATCH_NS = 2_000_000  # a batch makes as many calls as last about 2 ms
RESEAT = 10  # rounds on one copy of a map
MAP_BATCHES = ("decode_batch", "encode_batch", "compile_batch")  # batches on a seated map
PROCESSES = 20  # fresh processes, run one after another, that share the rounds


def export_src(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def load_package(src: Path, name: str):
    """The package in ``src/braidcode`` imported under ``name``; its
    relative imports resolve to its own modules."""
    init = src / "braidcode" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def load_workloads(pkg, name: str):
    """``perfbench/workloads.py`` imported as ``name``, with ``braidcode``
    bound to ``pkg`` while it imports, so its builders call ``pkg``."""
    head = sys.modules.get("braidcode")
    sys.modules["braidcode"] = pkg
    try:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.modules["braidcode"] = head
    return module


class Side:
    """One tree's maps, codewords and operations."""

    def __init__(self, pkg, workloads):
        self.codec = importlib.import_module(".codec", pkg.__name__)
        self.core = importlib.import_module(".core", pkg.__name__)
        self.builds = {label: entry for table in (workloads.LOCATE_MAPS, workloads.EDGE_MAPS)
                       for label, entry in table["full"].items()}
        self.maps = {}
        for label in self.builds:
            self.seat(label)
        self.certify = {label: build for label, (build, _) in workloads._certify_specs("full").items()}
        for build in self.certify.values():
            build()  # warm: the optimizer's generator search is cached

    def seat(self, label: str) -> None:
        """Build the map and its codewords afresh, and compile its decoder."""
        self.maps[label] = None  # so the new copy may reuse the old one's memory
        build, op = self.builds[label]
        cmap = build()
        tags = opcount.tags(cmap, TAGS, SEED)
        words = [self.core.encode(cmap, t) for t in tags]
        if op == "erasure_decode":  # one color of each codeword survives
            words = [w[i % len(w):][:1] for i, w in enumerate(words[:ERASURE_TAGS])]
        getattr(self.codec, op)(cmap, words[0])
        self.maps[label] = (cmap, op, words, tags)

    def decode_batch(self, label: str, calls: int) -> int:
        cmap, op, words, _ = self.maps[label]
        decoder = getattr(self.codec, op)
        t0 = time.perf_counter_ns()
        for w in itertools.islice(itertools.cycle(words), calls):
            decoder(cmap, w)
        return time.perf_counter_ns() - t0

    def encode_batch(self, label: str, calls: int) -> int:
        cmap, tags, encode = self.maps[label][0], self.maps[label][3], self.core.encode
        t0 = time.perf_counter_ns()
        for t in itertools.islice(itertools.cycle(tags), calls):
            encode(cmap, t)
        return time.perf_counter_ns() - t0

    def compile_batch(self, label: str, calls: int) -> int:
        cmap, total = self.maps[label][0], 0
        for _ in range(calls):
            vars(cmap).pop("_decoder", None)
            gc.collect()
            t0 = time.perf_counter_ns()
            self.codec.compile_decoder(cmap)
            total += time.perf_counter_ns() - t0
        return total

    def build_batch(self, label: str, calls: int) -> int:
        build, total = self.certify[label], 0
        for _ in range(calls):
            cmap = None  # the last map is freed before the clock starts
            gc.collect()
            t0 = time.perf_counter_ns()
            cmap = build()
            total += time.perf_counter_ns() - t0
        return total

    def results(self, label: str) -> list[str]:
        cmap, op, words, tags = self.maps[label]
        return ([repr(getattr(self.codec, op)(cmap, w)) for w in words]
                + [repr(self.core.encode(cmap, t)) for t in tags])

    def decode_count(self, label: str) -> float:
        cmap, op, words, _ = self.maps[label]
        decoder = getattr(self.codec, op)
        return statistics.median(opcount.count(decoder, cmap, w) for w in words)

    def encode_count(self, label: str) -> float:
        cmap, tags = self.maps[label][0], self.maps[label][3]
        return statistics.median(opcount.count(self.core.encode, cmap, t) for t in tags)

    def compile_count(self, label: str) -> int:
        cmap = self.maps[label][0]
        vars(cmap).pop("_decoder", None)
        return opcount.count(self.codec.compile_decoder, cmap)

    def build_count(self, label: str) -> int:
        return opcount.count(self.certify[label])


def rounds(base: Side, head: Side, batch: str, label: str, n: int) -> dict:
    """``n`` rounds of base, head, head, base or head, base, base, head
    batches, in turn, of as many calls as last about ``BATCH_NS``: each
    side's times per call and each round's ratio."""
    calls = max(1, round(BATCH_NS / max(getattr(base, batch)(label, 1), 1)))
    sides = {"base": base, "head": head}
    times = {"base": [], "head": [], "ratio": []}
    for i in range(n):
        if i and not i % RESEAT and batch in MAP_BATCHES:  # new copies, in turn in either order
            for side in (head, base) if i // RESEAT % 2 else (base, head):
                side.seat(label)
        outer, inner = ("head", "base") if i % 2 else ("base", "head")
        total = dict.fromkeys(sides, 0)
        for name in (outer, inner, inner, outer):
            ns = getattr(sides[name], batch)(label, calls)
            times[name].append(ns / calls)
            total[name] += ns
        times["ratio"].append(total["head"] / total["base"])
    return times


def load_sides(base_src: Path, head_first: bool = False) -> tuple[Side, Side]:
    """The package in ``base_src`` as the base and this checkout's as the
    head, each with its maps, the head's built first if ``head_first``."""
    if str(ROOT / "src") not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    pkgs = {"base": load_package(base_src, "braidcode_base"),
            "head": importlib.import_module("braidcode")}
    if Path(pkgs["head"].__file__).resolve().parent != ROOT / "src" / "braidcode":
        raise SystemExit(f"error: braidcode imported from {pkgs['head'].__file__}")
    sides = {name: Side(pkgs[name], load_workloads(pkgs[name], f"workloads_{name}"))
             for name in (("head", "base") if head_first else ("base", "head"))}
    return sides["base"], sides["head"]


def measure(base_src: str, n: int, head_first: bool) -> dict:
    """Run in a fresh process: ``n`` rounds of each map's decode, encode
    and compile batches, and of each ``certify`` map's build batches."""
    base, head = load_sides(Path(base_src), head_first)
    gc.collect()
    gc.freeze()  # the maps: a collection in a compile or build batch need not walk them
    gc.disable()
    out = {(label, batch): rounds(base, head, batch, label, n)
           for label in base.maps for batch in MAP_BATCHES}
    out.update({(label, "build_batch"): rounds(base, head, "build_batch", label, n)
                for label in base.certify})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare with (default HEAD)")
    ap.add_argument("--rounds", type=int, default=400, help="rounds per operation (default 400)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        raise SystemExit("error: --rounds must be positive")
    commit = subprocess.run(["git", "rev-parse", "--short", args.base], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    per_process = -(-args.rounds // PROCESSES)

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        export_src(args.base, Path(tmp))
        base_src = Path(tmp) / "src"
        base, head = load_sides(base_src)
        differ = [(label, sum(a != b for a, b in zip(base.results(label), head.results(label))))
                  for label in base.maps]
        differ += [(f"build {label}", int(base.core.to_json(base.certify[label]())
                                          != head.core.to_json(head.certify[label]())))
                   for label in base.certify]
        words = sum(len(words) for _, _, words, _ in base.maps.values())
        tags = sum(len(tags) for *_, tags in base.maps.values())
        if any(n for _, n in differ):
            print("results differ: " + ", ".join(f"{label} on {n}" for label, n in differ if n))
        else:
            print(f"results equal on all {words} codewords, {tags} tags and "
                  f"{len(base.certify)} certify maps")
        print(f"base {args.base} ({commit}), head the working tree; {per_process * PROCESSES} "
              f"rounds in {PROCESSES} processes of base, head, head, base or head, base, base, "
              f"head batches; times in us per call", flush=True)

        spawn = multiprocessing.get_context("spawn")
        runs = []
        for k in range(PROCESSES):  # one at a time, so no two share the host's cores
            with ProcessPoolExecutor(1, mp_context=spawn) as pool:
                runs.append(pool.submit(measure, str(base_src), per_process, k % 2 == 1).result())

    print(f"{'map':<14}{'operation':<19}{'base':>10}{'head':>10}{'ratio':>8}{'wins':>10}"
          f"{'bytecodes base -> head':>26}")
    rows = [(label, batch, name, counts) for label, (_, op, _, _) in base.maps.items()
            for batch, name, counts in (
                ("decode_batch", op, (base.decode_count, head.decode_count)),
                ("encode_batch", "encode", (base.encode_count, head.encode_count)),
                ("compile_batch", "compile_decoder", (base.compile_count, head.compile_count)))]
    rows += [(label, "build_batch", "build", (base.build_count, head.build_count))
             for label in base.certify]
    for label, batch, name, counts in rows:
        base_us, head_us, ratio = (statistics.median(t for run in runs for t in run[label, batch][key])
                                   for key in ("base", "head", "ratio"))
        wins = sum(r < 1 for run in runs for r in run[label, batch]["ratio"])
        b, h = (count(label) for count in counts)
        print(f"{label:<14}{name:<19}{base_us / 1e3:>10.2f}{head_us / 1e3:>10.2f}{ratio:>8.3f}"
              f"{f'{wins}/{per_process * PROCESSES}':>10}{f'{b:,g} -> {h:,g}':>26}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
