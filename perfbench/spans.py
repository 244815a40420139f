"""Span tracer for the traced benchmark run.

The tracer wraps the package's public functions at every module attribute
that holds them (``braidcode.codec.encode`` as well as
``braidcode.core.encode``), so a call is recorded whether the benchmark
makes it or another module of the package does.  Nothing under ``src/`` is
edited: the wrappers are installed for the traced run and removed after it.

Each call becomes a span (name, start, end, parent), kept in compact arrays
in memory.  Self time is a span's duration minus the time its child spans
cover.  Functions that report work in their result (blocks checked, search
nodes, candidates, JSON bytes) feed named counters through an observer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, observer): the public functions traced, by home module.
# An observer receives (counters, args, result) after a call returns.
TARGETS = [
    ("core", "encode", None),
    ("core", "to_json", lambda c, a, r: c.update({"core.json.bytes": len(r)})),
    ("core", "from_json", None),
    ("sunmao", "synthesize", None),
    ("generators", "find_generator", None),
    ("generators", "search_distinguishable",
     lambda c, a, r: c.update({"generators.search.nodes": r.nodes})),
    ("braid1d", "construct", None),
    ("braid1d", "optimize_generators", None),
    ("braid1d", "restrict", None),
    ("braid1d", "modify_general_size", None),
    ("braidnd", "construct_unitary_nd", None),
    ("braidnd", "extend_arbitrary_size", None),
    ("codec", "decode_1d", None),
    ("codec", "decode_1d_general", None),
    ("codec", "decode_nd", None),
    ("codec", "erasure_decode",
     lambda c, a, r: c.update({"codec.erasure_decode.candidates": len(r.candidates)})),
    ("oracle", "is_distinguishable",
     lambda c, a, r: c.update({"oracle.blocks_checked": r.checked})),
    ("oracle", "check_structure", None),
]

LAYERS = ("core", "sunmao", "generators", "braid1d", "braidnd", "codec", "oracle")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around the block, e.g. a benchmark operation."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name: str, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                self.counters[f"{name}.raised.{type(e).__name__}"] += 1
                raise
            finally:
                self._close(i)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each ``braidcode`` module attribute holding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "braidcode" or n.startswith("braidcode."))]
        for home, fname, observe in TARGETS:
            fn = getattr(sys.modules[f"braidcode.{home}"], fname)
            wrapped = self._wrap(fn, f"{home}.{fname}", observe)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)

    def summarize(self, lo: int, hi: int) -> dict[str, dict]:
        """Per span name over spans [lo, hi): calls, total and self seconds,
        durations, and how many of its spans are nested in each layer."""
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            name = self.names[self.name_of[i]]
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                                   "under": Counter()}
            d = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += d
            row["self_s"] += d - child[i]
            row["durations"].append(d)
            layers = set()
            p = self.parent[i]
            while p >= lo:
                layers.add(self.names[self.name_of[p]].split(".", 1)[0])
                p = self.parent[p]
            row["under"].update(layers)
        return out
