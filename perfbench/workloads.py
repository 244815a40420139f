"""The benchmark's workloads: seeded inputs, the measured operation, and
the check of every output.

All four are single-process closed loops with one client: the next
operation starts only when the previous one has returned.  A run repeats
*cycles*; a cycle holds one operation per map or command (a sparse map
only every n-th cycle), so every run measures the same mix whatever its
length.

The package is imported from the checkout's ``src/`` by ``run.py`` before
this module is loaded.  Calls go through module attributes
(``codec.decode_1d``, not a name bound at import) so the traced run sees
them.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from braidcode import braid1d, braidnd, codec, core, oracle
from stats import median, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

QTABLE_140 = {(0, 0): (5, 7), (0, 1): (7, 5), (1, 0): (1, 5), (1, 1): (7, 1)}
QTABLE_24 = {(0, 0): (1, 3), (0, 1): (2, 1), (1, 0): (1, 2), (1, 1): (3, 1)}

# The 140x140 map re-cut to 137x137 is not distinguishable (the oracle
# finds tags (0,136) and (20,136) share a codeword): 137 is not a multiple
# of the block size, so the re-cut is a plain restriction.  138 is a
# multiple, so the fresh-band construction applies and every block decodes.
EXT_L = 138

CYCLES = 4096  # cycles of seeded inputs made per set-up; longer runs reuse them


def unitary_1d(M: int, q: tuple[int, ...]):
    parts = (1,) * len(q)
    return braid1d.construct(braid1d.BraidParams1D(M=M, parts=parts, g=2, c=parts, q=q))


def unitary_2d(qtable):
    return braidnd.construct_unitary_nd(braidnd.UnitaryBraidParamsND(m=(2, 2), g=2, qtable=qtable))


def optimized_1d(M: int, parts: tuple[int, ...]):
    return braid1d.construct(braid1d.optimize_generators(M, parts).params)


def reference_75(g: int, c: tuple[int, int], q: tuple[int, int]):
    return braid1d.construct(braid1d.BraidParams1D(M=75, parts=(2, 3), g=g, c=c, q=q))


def restricted(base, M_r: int):
    return braid1d.restrict(base(), M_r)


def modified(base, M_r: int):
    return braid1d.modify_general_size(base(), M_r)


def extended(base, L: tuple[int, ...]):
    return braidnd.extend_arbitrary_size(base(), L)


def block_codeword(cmap, tag: tuple[int, ...]) -> tuple[int, ...]:
    """Codeword at ``tag`` read straight from the color array (cyclic grid),
    independently of ``core.encode``."""
    dims = cmap.grid.dims
    out = []
    for off in itertools.product(*(range(m) for m in cmap.block.dims)):
        idx = 0
        for t, o, d in zip(tag, off, dims):
            idx = idx * d + (t + o) % d
        out.append(cmap.colors[idx])
    return tuple(sorted(out))


@dataclass(frozen=True)
class Query:
    label: str
    tag: tuple[int, ...] = ()
    expect: object = None
    pick: int = 0  # erasure: which color of the codeword survives
    argv: tuple[str, ...] = ()  # cli: command arguments


# ---------------------------------------------------------------------------
# locate, locate-edge: encode -> decode round trips


def _std(M, q):
    return partial(unitary_1d, M, q)


MAP_4620 = _std(4620, (15, 77))
MAP_41612 = _std(41612, (101, 103))
MAP_140 = partial(unitary_2d, QTABLE_140)
MAP_24 = _std(24, (2, 3))
MAP_2D_24 = partial(unitary_2d, QTABLE_24)

# label -> (build function, decoder); labels name the per-map layer metrics.
LOCATE_MAPS = {
    "full": {
        "1d-4620": (MAP_4620, "decode_1d"),
        "1d-41612": (MAP_41612, "decode_1d"),
        "1d-6006": (_std(6006, (7, 11, 13)), "decode_1d"),
        "2d-140": (MAP_140, "decode_nd"),
    },
    "tiny": {
        "1d-24": (MAP_24, "decode_1d"),
        "1d-36": (_std(36, (1, 2, 3)), "decode_1d"),
        "2d-24": (MAP_2D_24, "decode_nd"),
    },
}

EDGE_MAPS = {
    "full": {
        "r-4001": (partial(restricted, MAP_4620, 4001), "decode_1d_general"),
        "mod-4000": (partial(modified, MAP_4620, 4000), "decode_1d_general"),
        "r-41605": (partial(restricted, MAP_41612, 41605), "decode_1d_general"),
        f"ext-{EXT_L}": (partial(extended, MAP_140, (EXT_L, EXT_L)), "decode_nd"),
        "erasure-4620": (MAP_4620, "erasure_decode"),
    },
    "tiny": {
        "r-23": (partial(restricted, MAP_24, 23), "decode_1d_general"),
        "mod-20": (partial(modified, MAP_24, 20), "decode_1d_general"),
        "ext-22": (partial(extended, MAP_2D_24, (22, 22)), "decode_nd"),
        "erasure-24": (MAP_24, "erasure_decode"),
    },
}

# Per-map decode latency is a layer metric under these names (erasure has its own).
DECODE_LABELS = [label for table in (LOCATE_MAPS, EDGE_MAPS)
                 for label, (_, decoder) in table["full"].items() if decoder != "erasure_decode"]


class Locate:
    """Round trips over seeded tags: encode, decode, compare with the source.

    ``boundary_every``: every such cycle draws its tags from the last two
    block lengths of an axis, where restricted, modified and extended maps
    wrap, so that share of the tags is fixed while the tags are seeded.
    ``sparse``: a map decoded only in every n-th cycle, the cycles that
    end each run of n, so that some of them are boundary cycles.
    """

    decodes = True  # an operation's latency is one decode call, by map label
    latency_per_cycle = False
    rusage = resource.RUSAGE_SELF

    def __init__(self, name: str, maps: dict, boundary_every: int | None = None,
                 sparse: dict[str, int] | None = None):
        self.name = name
        self.maps = maps
        self.boundary_every = boundary_every
        self.sparse = sparse or {}

    def setup(self, seed: int, size: str, workdir: Path, tracer):
        maps = {label: (build(), decoder) for label, (build, decoder) in self.maps[size].items()}
        rng = random.Random(seed)
        cycles = []
        for i in range(CYCLES):
            edge = self.boundary_every is not None and i % self.boundary_every == self.boundary_every - 1
            cycle = []
            for label, (cmap, decoder) in maps.items():
                every = self.sparse.get(label, 1)
                if i % every != every - 1:
                    continue
                tag = self._tag(rng, cmap, edge)
                expect = tag if cmap.grid.n > 1 else tag[0]
                pick = rng.randrange(cmap.block.volume) if decoder == "erasure_decode" else 0
                cycle.append(Query(label, tag, expect, pick))
            cycles.append(cycle)
        state = {"maps": maps, "cycles": cycles}
        period = math.lcm(self.boundary_every or 1, *self.sparse.values())
        for q in {q.label: q for cycle in cycles[:period] for q in cycle}.values():  # warm-up
            self.op(state, q, tracer)
        return state

    @staticmethod
    def _tag(rng, cmap, edge: bool) -> tuple[int, ...]:
        dims, block = cmap.grid.dims, cmap.block.dims
        tag = [rng.randrange(d) for d in dims]
        if edge:
            axis = rng.randrange(len(dims))
            tag[axis] = rng.randrange(dims[axis] - 2 * block[axis], dims[axis])
        return tuple(tag)

    def op(self, state, q: Query, tracer) -> tuple[float, bool]:
        cmap, decoder = state["maps"][q.label]
        w = core.encode(cmap, q.tag)
        if decoder == "erasure_decode":
            w = (w[q.pick],)
        t0 = time.perf_counter()
        res = getattr(codec, decoder)(cmap, w)
        dt = time.perf_counter() - t0
        if decoder == "erasure_decode":
            return dt, q.expect in res.candidates
        return dt, res.tag == q.expect

    def report(self, rate: float, ok: int, lat: list[float]) -> dict:
        return {
            "roundtrip_per_s": (rate, "1/s", ok),
            "decode_p50_us": (percentile(lat, 50) * 1e6, "us", len(lat)),
            "decode_p90_us": (percentile(lat, 90) * 1e6, "us", len(lat)),
        }


# ---------------------------------------------------------------------------
# certify: build -> structure -> oracle -> JSON round trip


def _certify_specs(size: str) -> dict:
    """label -> (build function, coding-area size): the fixed map set of one pass."""
    specs = {
        "75-set1": (partial(reference_75, 3, (2, 3), (1, 5)), 75),
        "75-set2": (partial(reference_75, 3, (1, 3), (1, 5)), 75),
        "75-set3": (partial(reference_75, 5, (1, 1), (3, 1)), 75),
    }
    if size == "tiny":
        specs.update({
            "opt-24": (partial(optimized_1d, 24, (1, 1)), 24),
            "2d-24": (MAP_2D_24, 24 * 24),
            "r-23": (partial(restricted, MAP_24, 23), 23),
        })
        return specs
    specs.update({
        "opt-4620": (partial(optimized_1d, 4620, (1, 1)), 4620),
        "1d-41612": (MAP_41612, 41612),
        "2d-140": (MAP_140, 140 * 140),
        f"ext-{EXT_L}": (partial(extended, MAP_140, (EXT_L, EXT_L)), EXT_L * EXT_L),
        "r-4001": (partial(restricted, MAP_4620, 4001), 4001),
        "mod-4000": (partial(modified, MAP_4620, 4000), 4000),
    })
    return specs


class Certify:
    """One pass certifies every map of a fixed set, in a seeded order.

    The set is fixed, so the seed only permutes the order of each pass.
    """

    name = "certify"
    decodes = False
    # A latency sample is one pass.  Per-map times would form one mode per
    # map, with a percentile falling between two of them.
    latency_per_cycle = True
    rusage = resource.RUSAGE_SELF

    def setup(self, seed: int, size: str, workdir: Path, tracer):
        specs = _certify_specs(size)
        rng = random.Random(seed)
        labels = sorted(specs)
        cycles = []
        for _ in range(64):
            rng.shuffle(labels)
            cycles.append([Query(label, expect=specs[label][1]) for label in labels])
        state = {"specs": specs, "cycles": cycles}
        warm = "opt-4620" if size == "full" else "opt-24"
        self.op(state, Query(warm, expect=specs[warm][1]), tracer)
        return state

    def op(self, state, q: Query, tracer) -> tuple[float, bool]:
        build = state["specs"][q.label][0]
        t0 = time.perf_counter()
        cmap = build()
        ok = True
        if cmap.params["kind"] == "braid1d":
            ok = oracle.check_structure(cmap).ok
        rep = oracle.is_distinguishable(cmap)
        ok = ok and rep.ok and rep.checked == q.expect
        ok = ok and core.from_json(core.to_json(cmap)) == cmap
        return time.perf_counter() - t0, ok


    def report(self, rate: float, ok: int, lat: list[float]) -> dict:
        return {"certify_s": (median(lat), "s", len(lat))}


# ---------------------------------------------------------------------------
# cli: the command-line entry point in a child process

# Run in a traced child instead of ``-m braidcode.cli``: the same command,
# with the import, the command itself and the map load timed from inside.
CHILD = """\
import sys, time
t0 = time.perf_counter()
import braidcode.cli as cli
t1 = time.perf_counter()
from braidcode import core
load = [0.0, 0]
_from_json = core.from_json
def from_json(text):
    t = time.perf_counter()
    try:
        return _from_json(text)
    finally:
        load[0] += time.perf_counter() - t
        load[1] += len(text)
core.from_json = from_json
code = cli.main(sys.argv[1:])
t2 = time.perf_counter()
print("perfbench", t1 - t0, t2 - t1, load[0], load[1], file=sys.stderr)
sys.exit(code)
"""

CLI_MAPS = {
    "full": {"24": MAP_24, "4620": MAP_4620, "140": MAP_140},
    "tiny": {"24": MAP_24, "2d-24": MAP_2D_24},
}

CALL_TIMEOUT_S = 60


class Cli:
    """Subprocess calls of ``python -m braidcode.cli``, one at a time.

    A cycle runs ``encode`` and ``decode`` on every map file and ``verify``
    on the 1D ones.  ``verify`` on the 2D map is left out: at about twice
    the cost of any other call it would form a mode of its own right at the
    90th percentile.
    """

    name = "cli"
    decodes = False
    latency_per_cycle = False  # a latency sample is spawn to exit of one call
    rusage = resource.RUSAGE_CHILDREN  # peak memory is that of the CLI children

    def setup(self, seed: int, size: str, workdir: Path, tracer):
        files = {}
        for label, build in CLI_MAPS[size].items():
            cmap = build()
            path = workdir / f"map-{label}.json"
            path.write_text(core.to_json(cmap) + "\n")
            files[label] = (cmap, str(path))
        rng = random.Random(seed)
        cycles = []
        for _ in range(256):
            cycle = []
            for label, (cmap, path) in files.items():
                tag = tuple(rng.randrange(d) for d in cmap.grid.dims)
                point = ",".join(map(str, tag))
                word = ",".join(map(str, block_codeword(cmap, tag)))
                cycle.append(Query(f"encode-{label}", argv=("encode", "--map", path, "--point", point),
                                   expect=word))
                cycle.append(Query(f"decode-{label}", argv=("decode", "--map", path, "--codeword", word),
                                   expect=point))
                if cmap.grid.n == 1:
                    cycle.append(Query(f"verify-{label}", argv=("verify", "--map", path),
                                       expect=f"ok checked={math.prod(cmap.grid.dims)}"))
            cycles.append(cycle)
        state = {"cycles": cycles, "env": dict(os.environ, PYTHONPATH=str(SRC))}
        self.op(state, cycles[0][0], None)  # warm-up: writes bytecode caches
        if tracer is not None:
            for _ in range(3):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CALL_TIMEOUT_S)
                tracer.samples["cli.python_start_ms"].append((time.perf_counter() - t0) * 1e3)
        return state

    def op(self, state, q: Query, tracer) -> tuple[float, bool]:
        entry = ("-c", CHILD) if tracer is not None else ("-m", "braidcode.cli")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *entry, *q.argv], capture_output=True, text=True,
                              cwd=ROOT, env=state["env"], timeout=CALL_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if tracer is not None and proc.returncode == 0:
            fields = proc.stderr.split()
            import_s, command_s, load_s, load_bytes = (float(v) for v in fields[1:5])
            tracer.samples["cli.import_ms"].append(import_s * 1e3)
            tracer.samples["cli.command_self_ms"].append(command_s * 1e3)
            tracer.counters["cli.from_json.s"] += load_s
            tracer.counters["cli.json.bytes"] += int(load_bytes)
        return dt, proc.returncode == 0 and proc.stdout.strip() == q.expect

    def report(self, rate: float, ok: int, lat: list[float]) -> dict:
        return {"cli_call_p50_ms": (percentile(lat, 50) * 1e3, "ms", len(lat))}


WORKLOADS = {
    "locate": Locate("locate", LOCATE_MAPS),
    # r-41605 decodes cost about 8x the others; decoded in every cycle, they
    # would hold the 90th percentile and most of the time.  Erasure decodes
    # (under 1 ms, like ext-138) come in every other cycle, so that the
    # median falls inside the 12-14 ms mode of r-4001 and mod-4000, not at
    # its lower edge, and the 90th percentile inside their boundary mode.
    "locate-edge": Locate("locate-edge", EDGE_MAPS, boundary_every=4,
                          sparse={"r-41605": 3, "erasure-4620": 2}),
    "certify": Certify(),
    "cli": Cli(),
}
