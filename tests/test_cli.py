"""Command-line interface: subcommands, wire formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import braidcode
from braidcode import (
    encode, extend_arbitrary_size, from_json, is_distinguishable, modify_general_size, product,
    restrict, to_json,
)
from braidcode.core import ColorMap, GridSpec
from braidcode.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_NOT_A_CODEWORD,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def m24_path(tmp_path, capsys):
    path = tmp_path / "m24.json"
    code, _, err = run(
        capsys, "construct", "--dims", "24", "--parts", "1,1",
        "--g", "2", "--c", "1,1", "--q", "2,3", "--out", str(path),
    )
    assert code == EXIT_OK, err
    return path


def test_construct_writes_valid_map(m24_path):
    cmap = from_json(m24_path.read_text())
    assert cmap.grid.dims == (24,)


def test_construct_without_out_prints_the_map(m24_path, capsys):
    code, out, _ = run(capsys, "construct", *M24_ARGS)
    assert (code, out) == (EXIT_OK, m24_path.read_text())


def test_construct_rejects_invalid_params(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "--dims", "30", "--parts", "1,1",
        "--g", "2", "--c", "1,1", "--q", "2,3",
    )
    assert code == EXIT_INVALID and err


def test_construct_infeasible(capsys):
    code, _, _ = run(capsys, "construct", "--dims", "12", "--parts", "2,3")
    assert code == EXIT_INFEASIBLE


def test_construct_to_an_unwritable_path_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "construct", *M24_ARGS, "--out", str(out_path))
    assert code == EXIT_INVALID and not out and not out_path.exists()
    assert err.startswith("error:") and "No such file or directory" in err, err


def test_decode_of_a_product_map_exits_2(m24, tmp_path, capsys):
    path = tmp_path / "product.json"
    path.write_text(to_json(product([m24, m24])))
    w = ",".join(map(str, encode(from_json(path.read_text()), (3, 5))))
    code, out, err = run(capsys, "decode", "--map", str(path), "--codeword", w)
    assert code == EXIT_INVALID and not out
    assert err == "error: unsupported map kind 'product'\n"


def test_encode_decode_round_trip(m24_path, capsys):
    code, out, _ = run(capsys, "encode", "--map", str(m24_path), "--point", "7")
    assert code == EXIT_OK
    codeword = out.strip()
    code, out, _ = run(capsys, "decode", "--map", str(m24_path), "--codeword", codeword)
    assert code == EXIT_OK
    assert out == "7\n"
    code, out, _ = run(capsys, "decode", "--map", str(m24_path), "--codeword", codeword, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["tag"], doc["path"]) == (7, "routing")


def test_decode_json_reports_the_compile_cost(m24_path, tmp_path, capsys):
    code, out, _ = run(capsys, "decode", "--map", str(m24_path), "--codeword", "0,4", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["seam_codewords"] == 0  # a standard map has no seam
    assert isinstance(doc["compile_ms"], float) and doc["compile_ms"] > 0
    path = tmp_path / "e12x24.json"
    qtable = json.dumps({"0,0": [1, 3], "0,1": [2, 1], "1,0": [1, 2], "1,1": [3, 1]})
    code, _, err = run(capsys, "construct", "--block", "2,2", "--g", "2",
                       "--qtable", qtable, "--target", "12,24", "--out", str(path))
    assert code == EXIT_OK, err
    w = ",".join(map(str, encode(from_json(path.read_text()), (5, 5))))
    code, out, _ = run(capsys, "decode", "--map", str(path), "--codeword", w, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["tag"] == [5, 5] and doc["seam_codewords"] > 0 and doc["compile_ms"] > 0
    code, out, _ = run(capsys, "decode", "--map", str(path), "--codeword", w)
    assert (code, out) == (EXIT_OK, "5,5\n")


# decode --json output, byte for byte but for the value of compile_ms, a timing.
DECODE_JSON = [
    pytest.param("m24", "0,7", '{"tag": 7, "j_star": 3, "i_star": 1, "r_star": 0, "a_star": 1, '
                 '"b_star": 1, "a_vec": [1, 1], "path": "routing", "seam_codewords": 0}',
                 id="1d-routing"),
    pytest.param("r19", "0,1", '{"tag": 18, "j_star": 9, "i_star": 0, "r_star": 0, "a_star": 0, '
                 '"b_star": 0, "a_vec": [], "path": "seam", "seam_codewords": 1}', id="1d-seam"),
    pytest.param("fig", "9,18,23,32",
                 '{"tag": [5, 5], "per_axis": [{"tag": 5, "j_star": 2, "i_star": 2, "r_star": 0, '
                 '"a_star": 1, "b_star": 0, "a_vec": [0, 1, 0, 1], "path": "routing"}, '
                 '{"tag": 5, "j_star": 2, "i_star": 2, "r_star": 0, "a_star": 1, "b_star": 0, '
                 '"a_vec": [1, 1, 0, 0], "path": "routing"}], "path": "routing", '
                 '"seam_codewords": 0}', id="nd-routing"),
]


@pytest.mark.parametrize("which, codeword, want", DECODE_JSON)
def test_decode_json_bytes(m24, fig_map, tmp_path, capsys, which, codeword, want):
    cmap = {"m24": m24, "r19": restrict(m24, 19), "fig": fig_map}[which]
    path = tmp_path / "map.json"
    path.write_text(to_json(cmap))
    code, out, _ = run(capsys, "decode", "--map", str(path), "--codeword", codeword, "--json")
    assert code == EXIT_OK
    timing = re.compile(r'"compile_ms": [0-9.e+-]+, (?="seam_codewords": \d+\}\n$)')
    assert timing.search(out)
    assert timing.sub("", out) == want + "\n"


def test_encode_json_output(m24_path, capsys):
    code, out, _ = run(capsys, "encode", "--map", str(m24_path), "--point", "7", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["codeword"]) == 2


def test_encode_rejects_point_of_wrong_arity(m24_path, capsys):
    code, out, err = run(capsys, "encode", "--map", str(m24_path), "--point", "1,2")
    assert code == EXIT_INVALID and not out and "coordinates" in err


def test_decode_not_a_codeword(m24_path, capsys):
    code, _, err = run(capsys, "decode", "--map", str(m24_path), "--codeword", "0,1")
    assert code == EXIT_NOT_A_CODEWORD and err
    code, _, err = run(capsys, "decode", "--map", str(m24_path), "--codeword", "0,x")
    assert code == EXIT_NOT_A_CODEWORD and "parse" in err


def test_decode_rejects_a_map_whose_generators_contradict_its_colors(m24_path, capsys):
    doc = json.loads(m24_path.read_text())
    doc["params"]["gens"][0]["colors"].reverse()
    m24_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "decode", "--map", str(m24_path), "--codeword", "2,5")
    assert code == EXIT_INVALID and not out and "contradicts its generators: point 0 " in err


@pytest.mark.parametrize("cut, codeword, tags", [
    # a re-cut of the 24x24 map along both axes; the oracle's counterexample
    (lambda m24, fig: extend_arbitrary_size(fig, (7, 5)), None, ("(0, 4)", "(4, 4)")),
    # a restriction of the 24-point map whose tags 0 and 13 share a codeword
    (lambda m24, fig: restrict(m24, 14), "0,4", ("[0, 13]",)),
], ids=["extended-7x5", "restricted-14"])
def test_decode_ambiguous_codeword_exits_4(tmp_path, capsys, m24, fig_map, cut, codeword, tags):
    cmap = cut(m24, fig_map)
    path = tmp_path / "cut.json"
    path.write_text(to_json(cmap))
    if codeword is None:
        codeword = ",".join(map(str, is_distinguishable(cmap).counterexample[2]))
    code, out, err = run(capsys, "decode", "--map", str(path), "--codeword", codeword)
    assert code == EXIT_VERIFY_FAILED and not out
    assert all(tag in err for tag in tags)


def test_decode_dump_matrices(m24_path, capsys):
    code, out, _ = run(
        capsys, "decode", "--map", str(m24_path), "--codeword", "0,4", "--dump-matrices"
    )
    assert code == EXIT_OK
    assert "0 1 2 3 0 1 2 3 0 1 2 3" in out
    assert "0 1 2 0 1 2" in out


def test_erasure_decode(m24_path, capsys):
    cmap = from_json(m24_path.read_text())
    survivor = encode(cmap, (5,))[0]
    code, out, _ = run(
        capsys, "erasure-decode", "--map", str(m24_path),
        "--codeword", str(survivor), "--erasures", "1",
    )
    assert code == EXIT_OK
    assert "5" in out


def test_erasure_decode_finds_the_wrapped_block_of_a_restriction(tmp_path, capsys):
    path = tmp_path / "r19.json"
    code, _, err = run(
        capsys, "construct", "--dims", "24", "--parts", "1,1",
        "--g", "2", "--c", "1,1", "--q", "2,3", "--restrict", "19", "--out", str(path),
    )
    assert code == EXIT_OK, err
    code, out, err = run(capsys, "erasure-decode", "--map", str(path), "--codeword", "0,1")
    assert code == EXIT_OK, err
    assert out == "candidates=18 resolution=0\n"


@pytest.mark.parametrize("command,codeword", [("decode", "0,4"), ("erasure-decode", "0")])
def test_a_map_whose_generator_is_not_distinguishable_exits_2(m24_path, capsys, command, codeword):
    doc = json.loads(m24_path.read_text())
    doc["params"]["gens"][0]["colors"] = [0, 0, 2, 3]
    doc["colors"] = [0 if c == 1 else c for c in doc["colors"]]
    m24_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--map", str(m24_path), "--codeword", codeword)
    assert code == EXIT_INVALID and not out
    assert "generator 0 is not 1-distinguishable" in err


@pytest.mark.parametrize("command,codeword", [("decode", "0,9"), ("erasure-decode", "0")])
def test_a_map_on_a_flat_grid_exits_2(m24_path, capsys, command, codeword):
    # tag 23's block wraps past the end of a flat grid; decoding used to return it
    doc = json.loads(m24_path.read_text())
    doc["grid"]["cyclic"] = False
    m24_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--map", str(m24_path), "--codeword", codeword)
    assert code == EXIT_INVALID and not out
    assert "decoding requires a cyclic grid" in err


M24_ARGS = ("--dims", "24", "--parts", "1,1", "--g", "2", "--q", "2,3")
BAD_BUILD_ARGS = [
    ("construct", *M24_ARGS, "--restrict", "50"),
    ("construct", *M24_ARGS, "--restrict", "0"),
    ("construct", *M24_ARGS, "--modify", "7"),
    ("construct", "--parts", "1,1"),
    ("construct", "--dims", "24"),
    ("construct", "--block", "2,2", "--g", "2", "--qtable", "[1]"),
    ("construct", "--g", "2", "--qtable", '{"0": [1], "1": [2]}'),
    # a q of 1.5, which int() read as 1
    ("construct", "--block", "2", "--g", "2", "--qtable", '{"0": [1.5], "1": [2]}'),
    ("construct", "--dims", "24", "--parts", "0"),
    ("construct", "--dims", "24", "--parts", "1,-1"),
    ("construct", "--dims", "24", "--parts", "1,1", "--g", "2", "--c", "1", "--q", "2,3"),
    ("construct", "--dims", "24", "--parts", "1,1", "--g", "2", "--q", "2,3,5"),
    ("construct", "--dims", "24", "--parts", "1,1", "--g", "2"),
    ("construct", "--dims", "x", "--parts", "1,1"),
    ("optimize", "--dims", "24", "--parts", "0"),
    ("optimize", "--dims", "24", "--parts", "1,-1"),
]


@pytest.mark.parametrize("argv", BAD_BUILD_ARGS, ids=" ".join)
def test_bad_build_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID and not out
    assert err.startswith("error:") and "Traceback" not in err, err


ND8_ARGS = ("--block", "2", "--g", "2", "--qtable", '{"0": [1], "1": [2]}')
IGNORED_OPTION_ARGS = [
    ("construct", *M24_ARGS, "--fresh"),
    ("construct", *ND8_ARGS, "--restrict", "5"),
    ("construct", *ND8_ARGS, "--modify", "4"),
    ("construct", *M24_ARGS, "--target", "12"),
    ("construct", *M24_ARGS, "--block", "2"),
    ("construct", "--dims", "24,7", "--parts", "1,1", "--g", "2", "--q", "2,3"),
    ("construct", "--dims", "24", "--parts", "1,1", "--c", "1,1"),
    ("construct", "--dims", "24", "--parts", "1,1", "--q", "2,3"),
    ("construct", *M24_ARGS, "--class", "1"),
    ("construct", *ND8_ARGS, "--dims", "8"),
    ("construct", *ND8_ARGS, "--parts", "1"),
    ("construct", *ND8_ARGS, "--c", "1"),
    ("construct", *ND8_ARGS, "--q", "1"),
    ("optimize", "--dims", "24,7", "--parts", "1,1"),
]


@pytest.mark.parametrize("argv", IGNORED_OPTION_ARGS, ids=" ".join)
def test_an_option_the_map_would_ignore_exits_2(tmp_path, capsys, argv):
    out_path = tmp_path / "map.json"
    out_args = ("--out", str(out_path)) if argv[0] == "construct" else ()
    code, out, err = run(capsys, *argv, *out_args)
    assert code == EXIT_INVALID and not out and not out_path.exists()
    assert err.startswith("error:") and "Traceback" not in err, err


def test_erasure_decode_rejects_wrong_erasure_count(m24_path, capsys):
    cmap = from_json(m24_path.read_text())
    survivor = encode(cmap, (5,))[0]
    for erasures in ("0", "2"):
        code, out, err = run(
            capsys, "erasure-decode", "--map", str(m24_path),
            "--codeword", str(survivor), "--erasures", erasures,
        )
        assert code == EXIT_INVALID and not out and "--erasures" in err


def test_verify_ok(m24_path, capsys):
    code, out, _ = run(capsys, "verify", "--map", str(m24_path), "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True and doc["checked"] == 24
    assert doc["elapsed_s"] > 0 and doc["blocks_per_s"] > 0
    code, out, _ = run(capsys, "verify", "--map", str(m24_path))
    assert code == EXIT_OK and out == "ok checked=24\n"


def test_verify_counterexample(tmp_path, capsys):
    path = tmp_path / "bad.json"
    code, _, _ = run(
        capsys, "construct", "--dims", "24", "--parts", "1,1",
        "--g", "2", "--c", "1,1", "--q", "2,3", "--restrict", "20", "--out", str(path),
    )
    assert code == EXIT_OK
    code, out, _ = run(capsys, "verify", "--map", str(path), "--json")
    assert code == EXIT_COUNTEREXAMPLE
    doc = json.loads(out)
    assert doc["ok"] is False and doc["tags"]
    assert doc["checked"] > 0 and doc["blocks_per_s"] > 0


def test_optimize_reports_reference_solution(capsys):
    code, out, _ = run(capsys, "optimize", "--dims", "75", "--parts", "2,3", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["cost"] == 8
    assert doc["ells"] == [15, 5]


def test_bench_tsv_output(capsys):
    code, out, _ = run(capsys, "bench", "--m", "2", "--s", "1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("L\tK")
    assert lines[1].split("\t")[:2] == ["840", "34"]


def test_bench_json_output(capsys):
    code, out, _ = run(capsys, "bench", "--m", "2", "--s", "1,2", "--json")
    assert code == EXIT_OK
    assert out == ('[{"s": 1, "L": 840, "K": 34, "ratio": 6.315519719705423}, '
                   '{"s": 2, "L": 4620, "K": 52, "ratio": 6.307290727114723}]\n')


def test_bench_runs_without_sympy():
    src = Path(braidcode.__file__).resolve().parents[1]
    script = (
        "import sys; sys.modules['sympy'] = None; from braidcode.cli import main; "
        "sys.exit(main(['bench', '--m', '2', '--s', '1,2,3']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "L\tK\tratio\n840\t34\t6.315520\n4620\t52\t6.307291\n20020\t72\t6.052942\n"


# A child runs one command under ``python -S`` and prints, on its last
# stderr line, the package modules the call loaded, whether sympy was
# loaded, and which of the slow-to-import standard modules it loaded.
# ``-S`` keeps ``site`` from loading them first (a .pth file of an
# installed package may import ``typing``); the child puts site-packages
# back on its path without running those files, so that an optional
# ``import sympy`` in the package would still succeed and show.
LOADED_MODULES = """\
import json, site, sys
sys.path.extend(site.getsitepackages())
import braidcode.cli as cli
code = cli.main(sys.argv[1:])
modules = sorted(m for m in sys.modules if m.split(".")[0] == "braidcode")
stdlib = sorted(m for m in ("dataclasses", "inspect", "typing") if m in sys.modules)
print(json.dumps({"modules": modules, "sympy": "sympy" in sys.modules, "stdlib": stdlib}),
      file=sys.stderr)
sys.exit(code)
"""
BASE = {"braidcode", "braidcode.core", "braidcode.cli"}
CONSTRUCTION = {"braidcode.braid1d", "braidcode.generators", "braidcode.sunmao"}
DECODE = BASE | {"braidcode.codec", "braidcode.params"}
FIG = "fig.json"  # stands for the 24x24 map file; other decodes read the 24-point one


@pytest.mark.parametrize("argv, code, loaded, not_loaded", [
    pytest.param(("encode", "--point", "7"), EXIT_OK, BASE, None, id="encode"),
    pytest.param(("encode", "--point", "1,2"), EXIT_INVALID, BASE, None, id="encode-bad-point"),
    pytest.param(("verify",), EXIT_OK, BASE | {"braidcode.oracle"}, None, id="verify"),
    pytest.param(("bench", "--m", "2", "--s", "1"), EXIT_OK, BASE | {"braidcode.oracle"}, None,
                 id="bench"),
    pytest.param(("decode", "--codeword", "3,6"), EXIT_OK, DECODE, None, id="decode"),
    pytest.param(("decode", "--codeword", "3,x"), EXIT_NOT_A_CODEWORD, DECODE, None,
                 id="decode-unparsable"),
    pytest.param(("erasure-decode", "--codeword", "3"), EXIT_OK, DECODE, None,
                 id="erasure-decode"),
    pytest.param(("decode", "--map", FIG, "--codeword", "9,18,23,32"), EXIT_OK, DECODE, None,
                 id="decode-nd"),
    pytest.param(("optimize", "--dims", "75", "--parts", "2,3"), EXIT_OK,
                 BASE | CONSTRUCTION | {"braidcode.params"}, None, id="optimize"),
    pytest.param(("construct", "--dims", "24", "--parts", "1,1", "--g", "2", "--q", "2,3"),
                 EXIT_OK, BASE | CONSTRUCTION | {"braidcode.params"}, None, id="construct"),
    pytest.param(("construct", *ND8_ARGS), EXIT_OK,
                 BASE | {"braidcode.braidnd", "braidcode.params"}, None, id="construct-nd"),
])
def test_each_command_loads_only_the_modules_it_runs(m24_path, fig_map, tmp_path, argv, code,
                                                      loaded, not_loaded):
    if FIG in argv:
        (tmp_path / FIG).write_text(to_json(fig_map))
        argv = tuple(str(tmp_path / FIG) if a == FIG else a for a in argv)
    elif argv[0] not in ("bench", "optimize", "construct"):
        argv = (argv[0], "--map", str(m24_path), *argv[1:])
    src = Path(braidcode.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_MODULES, *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["sympy"] is False  # the package has no sympy dependency
    if argv[0] in ("encode", "decode", "verify"):
        assert report["stdlib"] == []  # the calls a tracker makes most pay for none of them
    modules = set(report["modules"])
    if loaded is not None:
        assert modules == loaded
    if not_loaded is not None:
        assert modules >= BASE and not modules & not_loaded


@pytest.mark.parametrize("argv", [("--m", "2", "--s", "0"), ("--m", "0", "--s", "1")])
def test_bench_rejects_a_window_out_of_range(capsys, argv):
    code, out, err = run(capsys, "bench", *argv)
    assert code == EXIT_INVALID and not out and err.startswith("error:")


DELETE = object()


def _edited(doc, path, value):
    """``doc`` with the entry at ``path`` set to ``value`` (removed if DELETE,
    updated with it if ``value`` is a dict)."""
    if not path:
        return value
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is DELETE:
        del target[last]
    elif isinstance(value, dict):
        target[last].update(value)
    else:
        target[last] = value
    return doc


# Map files whose document has the wrong shape: every command that loads one exits 2.
MALFORMED_DOCUMENTS = [
    (("grid", "M"), "abc"),
    (("grid", "M"), None),
    (("colors",), None),
    (("palette", 0), "a_1"),
    ((), [1, 2]),
    # not integers or booleans: dims were truncated by int() and "false" read as cyclic
    (("grid", "M"), [24.9]),
    (("block", "m"), [2.2]),
    (("grid", "cyclic"), "false"),
    (("block", "m"), [0]),
    # true for 1: encode read a 1-point block and printed one color
    (("block", "m"), [True]),
    # ids equal to an int id but not ints: encode printed 4.0 or True, which no codeword parses
    (("colors", 1), 4.0),
    (("colors", 2), True),
    (("palette", 4, "id"), 4.0),
    (("palette", 1, "id"), True),
    # a third entry is the whole error message, with {file} for the map file's path
    (("block", "m"), [2, 2], "cannot load map {file}: block and grid dimension mismatch"),
    (("block", "m"), [30], "cannot load map {file}: block (30,) exceeds grid (24,)"),
    (("colors", 23), DELETE,
     "cannot load map {file}: colors array has 23 entries, grid has 24 points"),
    (("palette", 1, "id"), 0, "cannot load map {file}: duplicate palette ids"),
    (("colors", 0), 99, "cannot load map {file}: colors reference ids missing from palette: [99]"),
]
# Well-shaped documents whose construction params are not: decode exits 2.
MALFORMED_PARAMS = [
    ("m24", ("params",), [1]),
    ("m24", ("params", "gens", 0, "ell"), DELETE),
    ("m24", ("params", "q"), "ab"),
    ("fig", ("params", "q"), DELETE),
    ("fig", ("params", "g"), "x"),
    # a block size other than the generators': decoded as NotACodeword, or wrong on a cut map
    ("m24", ("block", "m"), [3]),
    ("fig", ("block", "m"), [2, 3]),
    # a color the params contradict: decoded as NotACodeword
    ("fig", ("colors", 0), 12),
    # not braid params, though they keep ells and M: g = 1 leaves the routing no residue to read
    ("m24", ("params",), {"g": 1, "q": [4, 6]}),
    # generators that do not fit the parts and ells
    ("m24", ("params", "gens", 1), DELETE),
    ("m24", ("params", "gens", 0, "ell"), 5),
    # not integers: int() truncated them and the codeword decoded with exit 0
    ("m24", ("params", "c"), [1.9, 1]),
    ("m24", ("params", "parts"), [True, 1]),
    ("fig", ("params", "m"), [2.9, 2]),
    ("fig", ("params", "q", "0,0"), [1.9, 3]),
    # cut fields and generator fields that are not integers, which compared equal or
    # truncated: decoded with exit 0
    ("r19", ("params", "M_r"), 19.5),
    ("mod10", ("params", "shift"), True),
    ("m24", ("params", "gens", 0, "colors"), [0.0, 1.0, 2.0, 3.0]),
    ("m24", ("params", "gens", 0, "m"), True),
    # n-dim params that the reader refuses; a fourth entry is the whole error message
    ("fig", ("params", "g"), 1, "g must exceed 1"),
    ("fig", ("params", "q", "1,1"), DELETE, "qtable must cover every sub-grid index J"),
    ("fig", ("params", "q", "1,1"), [3], "bad q vector (3,) for J=(1, 1)"),
    ("fig", ("params", "q", "1,1"), [3, 0], "bad q vector (3, 0) for J=(1, 1)"),
]


MALFORMED_CASES = [
    ("m24", path, value, command, message[0] if message else None)
    for path, value, *message in MALFORMED_DOCUMENTS for command in ("encode", "decode", "verify")
] + [(name, path, value, "decode", message[0] if message else None)
     for name, path, value, *message in MALFORMED_PARAMS]


@pytest.mark.parametrize(
    "name,path,value,command,message", MALFORMED_CASES,
    ids=[f"{command}-{name}-{'.'.join(map(str, path)) or 'doc'}="
         f"{'deleted' if value is DELETE else json.dumps(value, separators=(',', ':'))}"
         for name, path, value, command, _ in MALFORMED_CASES],
)
def test_malformed_map_file_exits_2(tmp_path, capsys, m24, fig_map, name, path, value, command,
                                    message):
    cmap, tag = {"m24": (m24, (7,)), "fig": (fig_map, (0, 0)), "r19": (restrict(m24, 19), (7,)),
                 "mod10": (modify_general_size(m24, 10), (3,))}[name]
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(_edited(json.loads(to_json(cmap)), path, value)))
    extra = {
        "encode": ("--point", ",".join(map(str, tag))),
        "decode": ("--codeword", ",".join(map(str, encode(cmap, tag)))),
        "verify": (),
    }[command]
    code, out, err = run(capsys, command, "--map", str(file), *extra)
    assert code == EXIT_INVALID and not out
    assert err.startswith("error:"), err
    if message is not None:
        assert err == f"error: {message.format(file=file)}\n"


def test_an_nd_map_longer_than_its_period_exits_2(tmp_path, capsys, fig_map):
    # The 24x24 map's params and colors on a 48x24 grid: tags (0, 0) and
    # (24, 0) share a codeword, which decoded to (0, 0) with exit 0.
    long = ColorMap(GridSpec((48, 24)), fig_map.block, fig_map.colors * 2, fig_map.palette,
                    params={**fig_map.params, "kind": "extended-nd", "L": [48, 24]})
    file = tmp_path / "long.json"
    file.write_text(to_json(long))
    w = ",".join(map(str, encode(long, (24, 0))))
    code, out, err = run(capsys, "decode", "--map", str(file), "--codeword", w)
    assert code == EXIT_INVALID and not out
    assert "does not fit the params' period" in err


def test_a_1d_map_cut_without_a_cut_record_exits_2(tmp_path, capsys, m24):
    # the first 12 points of the 24-point map, under its params unchanged
    cut = ColorMap(GridSpec((12,)), m24.block, m24.colors[:12], m24.palette, m24.params)
    file = tmp_path / "cut.json"
    file.write_text(to_json(cut))
    w = ",".join(map(str, encode(cut, (3,))))
    code, out, err = run(capsys, "decode", "--map", str(file), "--codeword", w)
    assert code == EXIT_INVALID and not out
    assert err == "error: grid (12,) does not fit the generators' period M=24\n"


def test_construct_refuses_a_qtable_key_spelled_another_way(capsys):
    # int() read "0_0,0" as (0, 0), so the map was built with q(0,0) = (1, 1)
    qtable = '{"0,0":[5,7],"0,1":[7,5],"1,0":[1,5],"1,1":[7,1],"0_0,0":[1,1]}'
    code, out, err = run(capsys, "construct", "--block", "2,2", "--g", "2", "--qtable", qtable)
    assert code == EXIT_INVALID and not out
    assert err == ("error: bad n-dim parameters: q-table key '0_0,0' is not a sub-grid index "
                   "like \"0,1\"\n")


def test_construct_nd_and_extend(tmp_path, capsys):
    path = tmp_path / "nd.json"
    qtable = json.dumps({"0,0": [1, 3], "0,1": [2, 1], "1,0": [1, 2], "1,1": [3, 1]})
    code, _, err = run(
        capsys, "construct", "--block", "2,2", "--g", "2",
        "--qtable", qtable, "--target", "12,24", "--out", str(path),
    )
    assert code == EXIT_OK, err
    cmap = from_json(path.read_text())
    assert cmap.grid.dims == (12, 24)
    w = ",".join(map(str, encode(cmap, (5, 5))))
    code, out, _ = run(capsys, "decode", "--map", str(path), "--codeword", w)
    assert code == EXIT_OK
    assert out.strip() == "5,5"
