#!/usr/bin/env python3
"""Bytecodes executed per operation, with the standard library alone.

    PYTHONPATH=src python3 scripts/opcount.py

Counts the bytecodes an operation executes, its callees included, with a
``sys.settrace`` tracer that sets ``frame.f_trace_opcodes`` on every frame.
The count of a pure-Python path is exact and the same on every run of one
Python version, so it shows whether a cost grows with the map, as time
cannot on a noisy host.  But a call into C (``sorted``, a dict lookup,
``operator.itemgetter``) counts as one bytecode however much it does: work
moved into C shows a larger drop in the count than in time.  Quote a count
beside a time, never alone.

The maps are those of the benchmark's ``locate`` and ``locate-edge``
workloads (``perfbench/workloads.py``, at full size).  Prints one JSON
object: the Python version, and per map the median and maximum count of
the map's decode (``erasure_decode`` of one surviving color on an erasure
map) and of ``encode`` over 200 seeded tags, a quarter of them in the last two
block lengths of one axis, where cut maps change; and the count of
``compile_decoder`` on a freshly built copy of the map.

``count`` chains to any tracer already set (a coverage tracer, say) and
restores it afterwards.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count(fn, *args) -> int:
    """Bytecodes executed by ``fn(*args)``, its callees included.  Events
    other than opcodes go on to the tracer set before, if any.  The garbage
    collector is off meanwhile: a collection could run the finalizers of
    objects that other code left behind, and count their bytecodes."""
    prev = sys.gettrace()
    n = 0

    def local(chained):
        def trace(frame, event, arg):
            nonlocal n, chained
            if event == "opcode":
                n += 1
            elif chained is not None:
                chained = chained(frame, event, arg)
            return trace
        return trace

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local(prev(frame, event, arg) if prev is not None else None)

    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(prev)
        if collecting:
            gc.enable()
    return n


def tags(cmap, n: int, seed: int) -> list[tuple[int, ...]]:
    """``n`` seeded tags of a cyclic map; every fourth lies in the last two
    block lengths of one axis."""
    rng = random.Random(seed)
    dims, block = cmap.grid.dims, cmap.block.dims
    out = []
    for i in range(n):
        tag = [rng.randrange(d) for d in dims]
        if i % 4 == 3:
            axis = rng.randrange(len(dims))
            tag[axis] = rng.randrange(dims[axis] - 2 * block[axis], dims[axis])
        out.append(tuple(tag))
    return out


def spread(counts: list[int]) -> dict:
    return {"median": statistics.median(counts), "max": max(counts)}


SIZE, TAGS, SEED = "full", 200, 1


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from braidcode import codec, core

    out = {"python": platform.python_version(), "size": SIZE, "tags": TAGS, "seed": SEED,
           "decode": {}, "encode": {}, "compile_decoder": {}}
    for table in (workloads.LOCATE_MAPS, workloads.EDGE_MAPS):
        for label, (build, op) in table[SIZE].items():
            cmap, decoder = build(), getattr(codec, op)
            out["compile_decoder"][label] = count(codec.compile_decoder, cmap)
            seeded = tags(cmap, TAGS, SEED)
            words = [core.encode(cmap, t) for t in seeded]
            if op == "erasure_decode":  # one color of each codeword survives
                words = [w[i % len(w):][:1] for i, w in enumerate(words)]
            out["decode"][label] = {"op": op, **spread([count(decoder, cmap, w) for w in words])}
            out["encode"][label] = spread([count(core.encode, cmap, t) for t in seeded])
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
