"""Command-line interface.

Exit codes: 0 success, 2 invalid parameters (also a map file that cannot
be read or an output path that cannot be written), 3 infeasible request,
4 verification failure (also a decode whose codeword more than one tag
carries), 5 not a codeword, 6 counterexample found.  Commands let the
library's errors propagate; ``main`` maps each to its code in one place.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# Only ``core`` is imported here.  Each command imports the modules it
# runs, so that a call pays for compiling and loading those alone:
# ``encode`` needs no other module, ``verify`` and ``bench`` the oracle,
# the decoders the codec (which loads ``params`` and no construction).
from . import core

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY_FAILED = 4
EXIT_NOT_A_CODEWORD = 5
EXIT_COUNTEREXAMPLE = 6


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(core.parse_int, text.split(",")))
    except ValueError:
        raise ValueError(f"expected comma-separated ints, got {text!r}") from None


def _int(text: str) -> int:
    """An int option, spelled as ``core.parse_int`` reads it."""
    try:
        return core.parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _load_map(path: str) -> core.ColorMap:
    try:
        with open(path) as f:
            return core.from_json(f.read())
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot load map {path}: {e}") from e


def _emit(args, payload: dict, plain: str):
    if args.json:
        print(json.dumps(payload))
    else:
        print(plain)


def _write_map(args, cmap: core.ColorMap):
    text = core.to_json(cmap)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _size_1d(text: str) -> int:
    dims = _ints(text)
    if len(dims) != 1:
        raise ValueError(f"a 1D map takes one --dims value, got {text!r}")
    return dims[0]


def _refuse_ignored_options(args) -> None:
    """Refuse an option that the map being built would silently ignore."""
    if args.qtable:
        what = "an n-dim map (--qtable)"
        ignored = {"--dims": args.dims, "--parts": args.parts, "--c": args.c, "--q": args.q,
                   "--restrict": args.restrict, "--modify": args.modify}
    elif args.g is None:
        what = "a 1D map built by the optimizer (no --g)"
        ignored = {"--block": args.block, "--target": args.target, "--c": args.c, "--q": args.q}
    else:
        what = "a 1D map"
        ignored = {"--block": args.block, "--target": args.target}
    for name, value in ignored.items():
        if value is not None:
            raise ValueError(f"{name} does not apply to {what}")
    if args.g is not None and args.klass != "auto":
        raise ValueError("--class applies only to the optimizer (no --g)")
    if args.fresh and args.modify is None:
        raise ValueError("--fresh applies only with --modify")


def cmd_construct(args) -> int:
    _refuse_ignored_options(args)
    cmap = _construct_nd(args) if args.qtable else _construct_1d(args)
    _write_map(args, cmap)
    return EXIT_OK


def _construct_nd(args) -> core.ColorMap:
    from . import braidnd

    if args.block is None or args.g is None:
        raise ValueError("--qtable needs --block and --g")
    m = _ints(args.block)
    try:
        raw = json.loads(args.qtable)
        if not isinstance(raw, dict):
            raise TypeError("--qtable must be a JSON object")
        params = braidnd.UnitaryBraidParamsND(m=m, g=args.g, qtable=braidnd.parse_qtable(raw))
    except (ValueError, TypeError) as e:
        raise ValueError(f"bad n-dim parameters: {e}") from e
    cmap = braidnd.construct_unitary_nd(params)
    if args.target:
        cmap = braidnd.extend_arbitrary_size(cmap, _ints(args.target))
    return cmap


def _construct_1d(args) -> core.ColorMap:
    from . import braid1d

    if args.dims is None or args.parts is None:
        raise ValueError("a 1D map needs --dims and --parts (an n-dim one --qtable)")
    M = _size_1d(args.dims)
    parts = _ints(args.parts)
    if args.g is None:
        params = braid1d.optimize_generators(M, parts, klass=args.klass).params
    else:
        if args.q is None:
            raise ValueError("--q required with explicit --g")
        c = _ints(args.c) if args.c else tuple(1 for _ in parts)
        params = braid1d.BraidParams1D(M=M, parts=parts, g=args.g, c=c, q=_ints(args.q))
        errs = braid1d.validate(params)
        if errs:
            raise ValueError("; ".join(errs))
    cmap = braid1d.construct(params)
    if args.restrict is not None:
        cmap = braid1d.restrict(cmap, args.restrict)
    elif args.modify is not None:
        cmap = braid1d.modify_general_size(cmap, args.modify, fresh=args.fresh)
    return cmap


def cmd_encode(args) -> int:
    cmap = _load_map(args.map)
    w = core.encode(cmap, _ints(args.point))
    _emit(args, {"codeword": list(w)}, core.format_codeword(w))
    return EXIT_OK


def cmd_decode(args) -> int:
    from . import codec

    cmap = _load_map(args.map)
    w = core.parse_codeword(args.codeword)
    t0 = time.perf_counter()
    dec = codec.compile_decoder(cmap)
    compile_ms = (time.perf_counter() - t0) * 1e3
    res = codec.decode(cmap, w)
    if args.dump_matrices:
        print(codec.dump_matrices(cmap))
    tag = res.tag
    plain = ",".join(map(str, tag)) if isinstance(tag, tuple) else str(tag)
    payload = core.asdict(res)
    payload.update(compile_ms=compile_ms, seam_codewords=len(dec.table))
    _emit(args, payload, plain)
    return EXIT_OK


def cmd_erasure_decode(args) -> int:
    from . import codec

    cmap = _load_map(args.map)
    partial = core.parse_codeword(args.codeword)
    if args.erasures is not None and args.erasures != cmap.block.volume - len(partial):
        raise ValueError(
            f"--erasures {args.erasures} does not match {len(partial)} surviving colors "
            f"of a block of {cmap.block.volume}"
        )
    res = codec.erasure_decode(cmap, partial)
    _emit(
        args,
        {"candidates": list(res.candidates), "resolution": res.resolution},
        f"candidates={','.join(map(str, res.candidates))} resolution={res.resolution}",
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle

    cmap = _load_map(args.map)
    limit = 10**9 if args.exhaustive else oracle.DEFAULT_LIMIT
    report = oracle.is_distinguishable(cmap, limit=limit)
    cost = {"elapsed_s": report.elapsed_s, "blocks_per_s": report.blocks_per_s}
    if report.ok:
        _emit(args, {"ok": True, "checked": report.checked, **cost}, f"ok checked={report.checked}")
        return EXIT_OK
    a, b, w = report.counterexample
    _emit(
        args,
        {"ok": False, "tags": [list(a), list(b)], "codeword": list(w), "checked": report.checked,
         **cost},
        f"counterexample tags={a},{b} codeword={core.format_codeword(w)}",
    )
    return EXIT_COUNTEREXAMPLE


def cmd_optimize(args) -> int:
    from . import braid1d

    res = braid1d.optimize_generators(_size_1d(args.dims), _ints(args.parts), klass=args.klass)
    p = res.params
    payload = {
        "cost": res.cost,
        "costs": list(res.costs),
        "g": p.g,
        "c": list(p.c),
        "q": list(p.q),
        "ells": list(p.ells),
        "exact": res.exact,
    }
    _emit(args, payload, f"cost={res.cost} g={p.g} ells={','.join(map(str, p.ells))}")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import oracle

    rows = oracle.order_bench(args.m, _ints(args.s))
    if args.json:
        print(json.dumps([core.asdict(row) for row in rows]))
    else:
        print(oracle.bench_tsv(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="braidcode", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a braid code map")
    p.add_argument("--dims", help="grid size M (1D)")
    p.add_argument("--parts", help="comma-separated parts m_i (1D)")
    p.add_argument("--g", type=_int, help="shared factor g (1D: the optimizer picks g, c, q "
                   "when omitted)")
    p.add_argument("--c", help="comma-separated c_i")
    p.add_argument("--q", help="comma-separated q_i")
    p.add_argument("--class", dest="klass", choices=["1", "2", "auto"], default="auto")
    p.add_argument("--block", help="block dims (n-dim unitary)")
    p.add_argument("--qtable", help='JSON like {"0,0": [1,3], ...} (n-dim unitary)')
    p.add_argument("--target", help="target dims L for n-dim extension")
    cut = p.add_mutually_exclusive_group()
    cut.add_argument("--restrict", type=_int, help="restrict 1D map to M_r points")
    cut.add_argument("--modify", type=_int, help="shrink 1D unitary map to M_r = J*m points")
    p.add_argument("--fresh", action="store_true", help="use a fresh color when modifying")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("encode", help="codeword of the block at a point")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="tag of a codeword")
    p.add_argument("--map", required=True)
    p.add_argument("--codeword", required=True)
    p.add_argument("--dump-matrices", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("erasure-decode", help="locate a block from a partial codeword")
    p.add_argument("--map", required=True)
    p.add_argument("--codeword", required=True, help="surviving colors")
    p.add_argument("--erasures", type=_int, default=None, help="declared erasure count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_erasure_decode)

    p = sub.add_parser("verify", help="brute-force distinguishability check")
    p.add_argument("--map", required=True)
    p.add_argument("--exhaustive", action="store_true", help="ignore the size limit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="cheapest braid parameters for (M, parts)")
    p.add_argument("--dims", required=True)
    p.add_argument("--parts", required=True)
    p.add_argument("--class", dest="klass", choices=["1", "2", "auto"], default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bench", help="prime-window scaling table (TSV)")
    p.add_argument("--m", type=_int, required=True,
                   help="half the block size b = 2m; L is half the standard M = b*g*lcm(q)")
    p.add_argument("--s", default="1,2,3", help="comma-separated window starts")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)
    return ap


def _exit_code(e: Exception) -> int:
    """The documented exit code of a command that raised ``e``.

    The codec's and the constructions' error types are looked up in
    ``sys.modules``, not imported: an error can only come from a module
    the call already loaded, so a failing call loads no more than one
    that succeeds.
    """
    codec = sys.modules.get("braidcode.codec")
    braid1d = sys.modules.get("braidcode.braid1d")
    if isinstance(e, core.NotACodeword):
        return EXIT_NOT_A_CODEWORD
    if codec is not None and isinstance(e, codec.AmbiguousDecode):
        return EXIT_VERIFY_FAILED
    if braid1d is not None and isinstance(e, braid1d.InfeasibleError):
        return EXIT_INFEASIBLE
    return EXIT_INVALID


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)


if __name__ == "__main__":
    sys.exit(main())
