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

The maps are those of the benchmark's ``locate``, ``locate-edge`` and
``certify`` workloads (``perfbench/workloads.py``, at full size).  Prints
one JSON object: the Python version; per ``locate`` and ``locate-edge``
map, the median and maximum count of the map's decode (``erasure_decode``
of one surviving color on an erasure map) and of ``encode`` over 200
seeded tags, a quarter of them in the last two block lengths of one axis,
where cut maps change, and the count of ``compile_decoder`` on a freshly
built copy of the map (``compile_decoder``) and on its
``from_json(to_json(...))`` copy (``compile_decoder_loaded``), which must
prove its colors where a constructed map need not; per ``certify`` map,
the count of each step of a certify pass: ``build`` (the map's build
function, so the cost of a construction shows), ``is_distinguishable``,
``check_structure`` (standard 1D maps only), ``to_json`` and
``from_json``; the certify steps are also counted on ``1d-4620``, built
as ``1d-41612`` is, with fixed params (``opt-4620``'s build runs the
optimizer first).  ``slope_per_point`` gives, per operation, the rise of
its count per grid point from the 4620-point to the 41612-point two-part
unitary 1D map (``1d-4620`` to ``1d-41612``): a closed-form step has
slope 0.

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


def slope(counts: dict, small: str, large: str, points: dict) -> dict:
    """The rise of a count per grid point from map ``small`` to map ``large``."""
    per_point = (counts[large] - counts[small]) / (points[large] - points[small])
    return {"maps": [small, large], "per_point": per_point}


CERTIFY_STEPS = ("build", "is_distinguishable", "check_structure", "to_json", "from_json")


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from braidcode import codec, core, oracle

    out = {"python": platform.python_version(), "size": SIZE, "tags": TAGS, "seed": SEED,
           "decode": {}, "encode": {}, "compile_decoder": {}, "compile_decoder_loaded": {},
           **{step: {} for step in CERTIFY_STEPS}, "slope_per_point": {}}
    points = {}
    for table in (workloads.LOCATE_MAPS, workloads.EDGE_MAPS):
        for label, (build, op) in table[SIZE].items():
            cmap, decoder = build(), getattr(codec, op)
            points[label] = cmap.grid.volume
            out["compile_decoder"][label] = count(codec.compile_decoder, cmap)
            loaded = core.from_json(core.to_json(build()))
            out["compile_decoder_loaded"][label] = count(codec.compile_decoder, loaded)
            seeded = tags(cmap, TAGS, SEED)
            words = [core.encode(cmap, t) for t in seeded]
            if op == "erasure_decode":  # one color of each codeword survives
                words = [w[i % len(w):][:1] for i, w in enumerate(words)]
            out["decode"][label] = {"op": op, **spread([count(decoder, cmap, w) for w in words])}
            out["encode"][label] = spread([count(core.encode, cmap, t) for t in seeded])
    for op in ("decode", "encode"):
        medians = {label: row["median"] for label, row in out[op].items()}
        out["slope_per_point"][op] = slope(medians, "1d-4620", "1d-41612", points)
    for op in ("compile_decoder", "compile_decoder_loaded"):
        out["slope_per_point"][op] = slope(out[op], "1d-4620", "1d-41612", points)
    certify_points = {}
    certify_maps = {**workloads._certify_specs(SIZE), "1d-4620": (workloads.MAP_4620, 4620)}
    for label, (build, _) in certify_maps.items():
        cmap = build()  # warm: the count is of a build the workload's passes repeat
        certify_points[label] = cmap.grid.volume
        out["build"][label] = count(build)
        out["is_distinguishable"][label] = count(oracle.is_distinguishable, cmap)
        if cmap.params["kind"] == "braid1d":  # as the certify workload checks
            out["check_structure"][label] = count(oracle.check_structure, cmap)
        text = core.to_json(cmap)
        out["to_json"][label] = count(core.to_json, cmap)
        out["from_json"][label] = count(core.from_json, text)
    for step in CERTIFY_STEPS:
        out["slope_per_point"][step] = slope(out[step], "1d-4620", "1d-41612", certify_points)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
