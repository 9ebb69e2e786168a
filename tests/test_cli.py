"""Command line layer: both input formats, report serialization, subcommand
behavior and exit codes. End-to-end calls go through main(argv) in-process;
two subprocess checks cover the python -m entry point."""

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zmx
from zmx import ORDER_CAP, Matrix, MatrixParseError, bdsw_matrix, inverse, type_d
from zmx.cli import (
    _COMMANDS,
    _full_parser,
    _parse_args,
    emit_report,
    gather_info,
    main,
    parse_matrix,
    serialize_matrix,
)
from zmx.sampling import random_matrix


def mk(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


A3 = mk([[1, -1, -1], [-2, 1, 1], [2, -2, -1]])
A3_TEXT = "3\n1 -1 -1\n-2 1 1\n2 -2 -1\n"
C3_TEXT = "3\n1 -1 -1\n-2 1 1\n2 2 -1\n"
P5_TEXT = (
    "5\n4 4 8 4 4\n1 2 4 2 2\n1 1 4 2 2\n2 2 4 4 4\n2 2 4 2 4\n"
)
W5_TEXT = (
    "5\n-2 -2 -2 -2 -2\n-1 -2 -2 -2 -2\n-1 -1 -2 -2 -2\n"
    "-1 -1 -1 -2 -2\n-1 -1 -1 -1 -2\n"
)


# ---------------------------------------------------------------- parsing


def test_parse_text_golden():
    assert parse_matrix(A3_TEXT) == A3
    assert parse_matrix("1\n5\n") == mk([[5]])
    assert parse_matrix("\n2\n\n1/2 1\n-3/2 5\n\n") == mk(
        [[Fraction(1, 2), 1], [Fraction(-3, 2), 5]]
    )


def parse_error(text):
    with pytest.raises(MatrixParseError) as err:
        parse_matrix(text)
    return err.value


def test_parse_text_errors_carry_positions():
    e = parse_error("2\n1/2 1\n1\n")
    assert e.line == 3
    e = parse_error("2\n1 2\n3 x\n")
    assert (e.line, e.column) == (3, 3)
    e = parse_error("x\n1\n")
    assert e.line == 1
    e = parse_error("0\n")
    assert e.line == 1
    e = parse_error("2 2\n1 2\n3 4\n")
    assert e.line == 1
    e = parse_error("3\n1 2 3\n")
    assert e.line is not None
    e = parse_error("1\n1\n2\n")
    assert e.line == 3
    parse_error("")
    parse_error("   \n \n")
    parse_error("1\n1/0\n")
    parse_error("1\n1.5\n")


def test_parse_json_golden():
    a = parse_matrix('{"n": 2, "entries": [["1", "-1"], ["-2", "3"]]}')
    assert a == mk([[1, -1], [-2, 3]])
    # bare integers are fine, as are rational strings
    a = parse_matrix('{"n": 2, "entries": [[1, "1/2"], [0, 3]]}')
    assert a == mk([[1, Fraction(1, 2)], [0, 3]])


def test_parse_json_errors():
    e = parse_error('{"n": 2, ')
    assert e.line is not None  # decoder position is passed through
    parse_error('{"n": 2}')
    parse_error('{"entries": []}')
    parse_error('{"n": "2", "entries": [["1"]]}')
    parse_error('{"n": true, "entries": [[1]]}')
    parse_error('{"n": 2, "entries": [["1", "2"]]}')
    parse_error('{"n": 1, "entries": [["1", "2"]]}')
    parse_error('{"n": 1, "entries": [[1.5]]}')
    parse_error('{"n": 1, "entries": [[true]]}')
    parse_error('{"n": 1, "entries": [["x"]]}')
    parse_error('{"n":' + "[" * 100_000)  # nesting past the recursion limit


def test_serialize_round_trips():
    assert serialize_matrix(mk([[Fraction(1, 2), 1], [Fraction(-3, 2), 5]])) == (
        "2\n1/2 1\n-3/2 5\n"
    )
    rng = random.Random(808)
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 6))
        assert parse_matrix(serialize_matrix(a)) == a


# ---------------------------------------------------------------- reports


def test_json_report_is_compact_and_stable():
    report, info = gather_info(Matrix.identity(2))
    blob = emit_report(report, info, "json")
    assert blob == emit_report(report, info, "json")
    assert '"l_index":2' in blob
    assert '"is_nonsingular_m":true' in blob
    assert '"verdict":"Neither"' in blob
    assert '"d":"1"' in blob and '"c":"0"' in blob
    assert " " not in blob.split('"determinant"')[0]
    parsed = json.loads(blob)
    assert list(parsed) == [
        "n", "is_z", "is_nonsingular", "determinant", "irreducible", "is_m",
        "is_nonsingular_m", "is_n", "is_n0", "is_f0", "l_index", "is_full",
        "is_inverse_cyclic", "is_bdsw", "d", "c", "d_minus_c", "verdict",
        "inverse", "inverse_is_z", "inverse_is_bdsw",
    ]
    assert parsed["inverse"] == [["1", "0"], ["0", "1"]]


def test_report_inverts_non_z_matrices_above_the_cap():
    # the order cap bounds minor sweeps only; a non-Z matrix needs no sweep
    a = type_d(range(1, ORDER_CAP + 2))
    report, info = gather_info(a)
    assert not report.is_z and report.is_nonsingular
    assert info.inverse == inverse(a)


def test_json_report_verdicts():
    report, info = gather_info(parse_matrix(P5_TEXT))
    blob = emit_report(report, info, "json")
    assert '"verdict":"InverseM"' in blob
    assert '"inverse_is_bdsw":true' in blob
    assert '"is_inverse_cyclic":true' in blob

    report, info = gather_info(parse_matrix(W5_TEXT))
    blob = emit_report(report, info, "json")
    assert '"inverse_is_z":false' in blob
    assert '"verdict":"Neither"' in blob

    report, info = gather_info(Matrix.zeros(2))
    blob = emit_report(report, info, "json")
    assert '"inverse":null' in blob and '"is_nonsingular":false' in blob


def test_text_report_mentions_the_basics():
    report, info = gather_info(A3)
    out = emit_report(report, info, "text")
    assert "order: 3" in out
    assert "Z-matrix: no" in out
    assert "d = -1   c = -2   d - c = 1" in out
    assert "inverse (Z: yes, bdsw: yes):" in out


# ------------------------------------------------------------ subcommands


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_classify_command(tmp_path, capsys):
    path = write(tmp_path, "a3.txt", A3_TEXT)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: Neither" in out
    assert main(["classify", "--json", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{"n":3')


def test_cyclic_check_command(tmp_path, capsys):
    good = write(tmp_path, "a3.txt", A3_TEXT)
    assert main(["cyclic-check", good]) == 0
    out = capsys.readouterr().out
    assert "inverse cyclic: yes" in out
    assert "closed-form determinant: -1" in out

    bad = write(tmp_path, "c3.txt", C3_TEXT)
    assert main(["cyclic-check", bad]) == 1
    out = capsys.readouterr().out
    assert "inverse cyclic: no" in out


def test_invert_methods_agree(tmp_path, capsys):
    path = write(tmp_path, "a3.txt", A3_TEXT)
    outputs = []
    for method in ("oracle", "cyclic", "maybee"):
        assert main(["invert", "--method", method, path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert parse_matrix(outputs[0]) == mk([[-1, -1, 0], [0, -1, -1], [-2, 0, 1]])


def test_invert_failures(tmp_path, capsys):
    singular = write(tmp_path, "s.txt", "2\n1 1\n1 1\n")
    assert main(["invert", singular]) == 1
    assert "error:" in capsys.readouterr().err

    not_cyclic = write(tmp_path, "c3.txt", C3_TEXT)
    assert main(["invert", "--method", "cyclic", not_cyclic]) == 1
    assert "error:" in capsys.readouterr().err


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def zero_heavy_text(draw):
    n = draw(st.integers(1, 7))
    entry = st.sampled_from(("0", "0", "0", "1", "-1", "2", "-3/2", "5/7"))
    return f"{n}\n" + "".join(" ".join(draw(entry) for _ in range(n)) + "\n" for _ in range(n))


@settings(max_examples=100, deadline=None)
@given(zero_heavy_text())
@example("2\n1 2\n2 4\n")  # singular: both fail on it alike
def test_invert_by_maybee_prints_what_invert_prints(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert run_main(["invert", "--method", "maybee", path]) == run_main(["invert", path])


def test_invert_by_maybee_fails_at_order_13(tmp_path):
    n = ORDER_CAP + 1
    singular = write(tmp_path, "z.txt", serialize_matrix(Matrix.zeros(n)))
    assert run_main(["invert", "--method", "maybee", singular]) == (
        1, "", "error: matrix is singular, no inverse exists\n")
    b = write(tmp_path, "b.txt", serialize_matrix(bdsw_matrix([2] * n, [-1] * (n - 1), -1)))
    assert run_main(["invert", "--method", "maybee", b]) == (
        1, "", f"error: order {n} exceeds the enumeration cap {ORDER_CAP};"
               " raise the cap explicitly to proceed\n")


def test_perron_input_errors_exit_2_above_the_cap(tmp_path):
    # bad input is reported before the order cap, as invert --method maybee does
    n = ORDER_CAP + 1
    ident = write(tmp_path, "i.txt", serialize_matrix(Matrix.identity(n)))
    neg = write(tmp_path, "n.txt", serialize_matrix(-Matrix.identity(n)))
    for argv, err in ((["--r", "0", ident], f"submatrix order r = 0 outside 1..{n}"),
                      (["--r", str(n + 1), ident], f"submatrix order r = {n + 1} outside 1..{n}"),
                      (["--r", "1", "--tol", "0", ident], "tol must be positive"),
                      (["--r", "1", neg], "matrix must be entrywise nonnegative")):
        assert run_main(["perron"] + argv) == (2, "", f"error: {err}\n")
    assert run_main(["perron", "--r", "1", ident]) == (
        1, "", f"error: order {n} exceeds the enumeration cap {ORDER_CAP};"
               " raise the cap explicitly to proceed\n")


def test_parse_and_io_failures_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "2\n1 2\n3 x\n")
    assert main(["classify", bad]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and err.count("(line 3, column 3)") == 1
    assert main(["classify", str(tmp_path / "missing.txt")]) == 2
    assert "error:" in capsys.readouterr().err
    deep = write(tmp_path, "deep.json", '{"n":' + "[" * 100_000)
    assert main(["classify", deep]) == 2
    assert "parse error" in capsys.readouterr().err


def test_digraph_command(tmp_path, capsys):
    path = write(tmp_path, "b.txt", "3\n-1 -1 0\n0 -1 -1\n-2 0 1\n")
    assert main(["digraph", path]) == 0
    out = capsys.readouterr().out
    assert "irreducible: yes" in out
    assert "unipathic: yes" in out
    assert "1->1" in out and "3->1" in out

    assert main(["digraph", "--dot", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph {")
    assert "  v1 -> v2;" in out


def test_gen_commands(tmp_path, capsys):
    assert main(["gen", "typed", "--params", "1,2,3,4"]) == 0
    out = capsys.readouterr().out
    assert parse_matrix(out) == mk([[1, 1, 1, 1], [1, 2, 2, 2], [1, 2, 3, 3], [1, 2, 3, 4]])

    assert main(["gen", "bdsw", "--diag=-1,-1,1", "--super=-1,-1", "--corner=-2"]) == 0
    assert parse_matrix(capsys.readouterr().out) == mk(
        [[-1, -1, 0], [0, -1, -1], [-2, 0, 1]]
    )

    assert main(["gen", "cyclic", "--diag=2,1,-2,1", "--super=-2,2,0", "--corner=2"]) == 0
    assert parse_matrix(capsys.readouterr().out) == mk(
        [[2, -2, -4, 0], [0, 1, 2, 0], [0, 0, -2, 0], [2, -2, -4, 1]]
    )

    assert main(["gen", "circulant", "--alpha=-1,-2,-4"]) == 0
    assert parse_matrix(capsys.readouterr().out) == mk(
        [[-1, -2, -4], [-4, -1, -2], [-2, -4, -1]]
    )

    # generator output feeds straight back into classify
    blob = None
    assert main(["gen", "circulant", "--alpha=-1,-2,-4"]) == 0
    blob = capsys.readouterr().out
    path = write(tmp_path, "gen.txt", blob)
    assert main(["classify", "--json", path]) == 0
    assert '"verdict":"InverseN"' in capsys.readouterr().out


def test_gen_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "typed"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen", "circulant"])
    assert exc.value.code == 2
    assert "gen circulant requires --alpha" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["gen", "bdsw", "--diag=1,2"])
    assert exc.value.code == 2
    # bad rational literal inside a parameter list is caught, not a crash
    assert main(["gen", "typed", "--params", "1,x,3"]) == 2


@pytest.mark.parametrize("option, argv", [
    ("--alpha", ["circulant", "--alpha=1,,2"]),
    ("--alpha", ["circulant", "--alpha", "1, ,2"]),
    ("--params", ["typed", "--params=1,,3"]),
    ("--params", ["typed", "--params=,1,2"]),
    ("--params", ["typed", "--params=1,2,"]),
    ("--params", ["typed", "--params="]),
    ("--super", ["bdsw", "--diag=-1,-1,1", "--super=-1,,-1", "--corner=-2"]),
    ("--diag", ["cyclic", "--diag=,2,1", "--super=-2,2", "--corner=2"]),
])
def test_gen_empty_list_field_is_a_usage_error(option, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen"] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"zmx gen: error: argument {option}: empty field in " in captured.err


@pytest.mark.parametrize("alpha", ["1,2,3", "1, 2, 3", "1 2 3", " 1 ,2,  3 ", "1\t2,3"])
def test_gen_list_fields_split_at_commas_and_whitespace(alpha, capsys):
    assert main(["gen", "circulant", f"--alpha={alpha}"]) == 0
    assert parse_matrix(capsys.readouterr().out) == mk([[1, 2, 3], [3, 1, 2], [2, 3, 1]])


def test_verify_command(capsys):
    assert main(["verify", "--theorem", "det-formula", "--n", "2..3",
                 "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "theorem: det-formula" in out
    assert "failures: 0" in out

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "no-such-thing"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "det-formula", "--n", "5..2"])
    assert exc.value.code == 2

    # a single order is the range LO..LO
    assert main(["verify", "--theorem", "det-formula", "--n", "5", "--trials", "2"]) == 0
    assert "orders: 5..5" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "det-formula", "--n", "x"])
    assert exc.value.code == 2
    assert "bad range 'x'" in capsys.readouterr().err


def test_verify_lists_twenty_failures_then_counts_the_rest(capsys, monkeypatch):
    def failing(lo, hi, trials, seed, cap):
        return ((f"check trial={t}", False) for t in range(trials))

    monkeypatch.setitem(zmx.verify.CAMPAIGNS, "det-formula", failing)
    assert main(["verify", "--theorem", "det-formula", "--n", "2", "--trials", "25"]) == 1
    out = capsys.readouterr().out
    assert "failures: 25" in out
    assert "  check trial=19\n" in out and "check trial=20" not in out
    assert out.endswith("  ... and 5 more\n")


# the lowest order each campaign's theorem covers
LOWEST_ORDER = {
    "bdsw-z": 2,
    "cycle-matrix": 2,
    "det-formula": 2,
    "maybee": 2,
    "polyn": 3,
    "type-d": 2,
    "zclass-oracles": 1,
}


@pytest.mark.parametrize("theorem", sorted(zmx.CAMPAIGNS))
def test_verify_order_ranges_outside_a_campaign(theorem, capsys):
    low = LOWEST_ORDER[theorem]
    args = ["verify", "--theorem", theorem, "--trials", "2", "--n"]
    if low > 1:
        # a range below the campaign is bad input, not a vacuous pass
        assert main(args + [f"1..{low - 1}"]) == 2
        assert f"starts at order {low}" in capsys.readouterr().err
    # ranges reaching into the campaign, and ones above maybee's dense orders
    for orders in (f"1..{low}", f"{low}..{low}", "6..7"):
        assert main(args + [orders]) == 0
        out = capsys.readouterr().out
        checks = int(out.split("checks: ")[1].split()[0])
        assert checks > 0 and "failures: 0" in out


def test_perron_command(tmp_path, capsys):
    path = write(tmp_path, "ones.txt", "3\n1 1 1\n1 1 1\n1 1 1\n")
    assert main(["perron", "--r", "3", path]) == 0
    out = capsys.readouterr().out
    assert "r: 3" in out
    assert "bound: 3" in out.splitlines()[1]
    assert "bracket: (" in out
    assert "decimal: 3" in out
    # r beyond the order is a usage problem
    assert main(["perron", "--r", "4", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_order_cap_env(tmp_path, capsys, monkeypatch):
    z3 = write(tmp_path, "z.txt", "3\n1 -1 0\n0 1 -1\n0 0 1\n")
    low3 = write(tmp_path, "low.txt", "3\n-1 0 0\n0 1 0\n0 0 1\n")  # band 0 < n - 2
    monkeypatch.setenv("ZMX_ORDER_CAP", "2")
    assert main(["classify", low3]) == 1
    assert "cap" in capsys.readouterr().err
    # the top bands are polynomial, so an M-matrix is classified above the cap
    assert main(["classify", z3]) == 0
    assert "nonsingular M: yes" in capsys.readouterr().out

    junk = "error: ZMX_ORDER_CAP must be an integer, got 'junk'\n"
    monkeypatch.setenv("ZMX_ORDER_CAP", "junk")
    assert run_main(["classify", z3]) == (2, "", junk)
    # a bad cap wins over a missing file
    assert run_main(["classify", str(tmp_path / "missing.txt")]) == (2, "", junk)

    monkeypatch.setenv("ZMX_ORDER_CAP", "0")
    assert run_main(["classify", z3]) == (2, "", "error: ZMX_ORDER_CAP must be positive\n")

    monkeypatch.setenv("ZMX_ORDER_CAP", "12")
    assert main(["classify", low3]) == 0
    assert "L-band index: 0" in capsys.readouterr().out


def test_order_cap_env_raises_the_cap_for_every_command(tmp_path, capsys, monkeypatch):
    n = ORDER_CAP + 1
    positive = write(tmp_path, "d.txt", serialize_matrix(type_d(range(1, n + 1))))
    z = write(tmp_path, "i.txt", serialize_matrix(Matrix.identity(n)))
    # -1 then ones on the diagonal: band 0, which only the capped sweep finds
    low = write(tmp_path, "l.txt", serialize_matrix(
        Matrix([[-1 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])))
    b = bdsw_matrix([2] * n, [-1] * (n - 1), -1)
    sparse = write(tmp_path, "b.txt", serialize_matrix(b))

    # polynomial work runs above the default cap; exponential work exits 1
    assert main(["perron", "--r", "1", positive]) == 1
    assert "cap" in capsys.readouterr().err
    assert main(["classify", z]) == 0
    assert "nonsingular M: yes" in capsys.readouterr().out
    assert main(["classify", low]) == 1
    assert "cap" in capsys.readouterr().err
    assert main(["digraph", sparse]) == 0
    assert "unipathic: yes" in capsys.readouterr().out
    verify = ["verify", "--n", f"{n}..{n}", "--trials", "1", "--theorem"]
    assert main(verify + ["bdsw-z"]) == 0
    assert "failures: 0" in capsys.readouterr().out
    assert main(verify + ["maybee"]) == 1
    assert "cap" in capsys.readouterr().err

    monkeypatch.setenv("ZMX_ORDER_CAP", str(n))
    assert main(["perron", "--r", "1", positive]) == 0
    assert f"decimal: {n}" in capsys.readouterr().out
    assert main(["classify", positive]) == 0
    assert "Z-matrix: no" in capsys.readouterr().out
    assert main(["classify", z]) == 0
    assert "nonsingular M: yes" in capsys.readouterr().out
    assert main(["classify", low]) == 0
    assert "L-band index: 0" in capsys.readouterr().out
    assert main(["invert", "--method", "maybee", sparse]) == 0
    assert parse_matrix(capsys.readouterr().out) == inverse(b)
    assert main(["digraph", sparse]) == 0
    assert "unipathic: yes" in capsys.readouterr().out
    for theorem in ("bdsw-z", "maybee"):
        assert main(verify + [theorem]) == 0
        out = capsys.readouterr().out
        assert int(out.split("checks: ")[1].split()[0]) > 0 and "failures: 0" in out


# ---------------------------------------------------------------- argparse output

# exit code, stdout and stderr of main for help, usage errors and every
# command's help, at COLUMNS=80; argparse rewords its messages between
# Python minor versions, so the text holds for the ones it was checked on
# (3.13.0 wraps the verify usage line differently)
USAGE_GOLDEN = json.loads((Path(__file__).parent / "cli_usage_golden.json").read_text("utf-8"))


@pytest.mark.skipif(not (3, 10) <= sys.version_info[:2] <= (3, 12),
                    reason="argparse text recorded with 3.11, the same on 3.10 and 3.12")
@pytest.mark.parametrize("case", USAGE_GOLDEN, ids=lambda c: " ".join(c["argv"]) or "(none)")
def test_argparse_output_is_unchanged(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(case["argv"]))
        except SystemExit as exc:
            code = exc.code
    assert (code, out.getvalue(), err.getvalue()) == (case["code"], case["stdout"], case["stderr"])


def test_main_builds_only_the_invoked_commands_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    path = write(tmp_path, "a.txt", A3_TEXT)
    assert main(["classify", path]) == 0
    assert "verdict: Neither" in capsys.readouterr().out
    # the classify parser alone
    assert len(built) == 1
    built.clear()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "cyclic-check" in capsys.readouterr().out
    # the top-level parser and its seven subparsers
    assert len(built) == 8
    built.clear()
    with pytest.raises(SystemExit) as exc:
        main(["classify", path, "extra"])
    assert exc.value.code == 2
    assert "zmx: error: unrecognized arguments: extra" in capsys.readouterr().err
    # the classify parser, then the full parser to report the leftover word
    assert len(built) == 9


def module_env():
    """The environment of a python -m zmx child, which imports the same zmx
    as this process, installed or not."""
    src = str(Path(zmx.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "zmx", "classify", "-"],
        input=A3_TEXT,
        capture_output=True,
        text=True,
        timeout=60,
        env=module_env(),
    )
    assert proc.returncode == 0
    assert "verdict: Neither" in proc.stdout


def test_module_entry_point_exits_141_on_a_closed_stdout():
    # stdout is a pipe whose read end is closed before the child starts, so
    # its first flush fails with EPIPE every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zmx", "classify", "-"],
            input=A3_TEXT,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=module_env(),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


class ClosedStdout:
    """A stdout whose reader has gone. Block buffered, a pipe takes writes
    and fails at the flush; line buffered, it fails at the first write."""

    def __init__(self, fails_on):
        self.fails_on = fails_on

    def write(self, text):
        if self.fails_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


EVERY_COMMAND = [
    ["classify", "A3"],
    ["classify", "--json", "A3"],
    ["invert", "--method", "oracle", "A3"],
    ["invert", "--method", "cyclic", "A3"],
    ["invert", "--method", "maybee", "A3"],
    ["cyclic-check", "A3"],
    ["digraph", "A3"],
    ["digraph", "--dot", "A3"],
    ["gen", "typed", "--params=-4,-3,-2,-1"],
    ["gen", "cyclic", "--diag=2,1,-2,1", "--super=-2,2,0", "--corner=2"],
    ["gen", "bdsw", "--diag=-1,-1,1", "--super=-1,-1", "--corner=-2"],
    ["gen", "circulant", "--alpha=-1,-2,-4"],
    ["verify", "--theorem", "bdsw-z", "--n", "2..3", "--trials", "2"],
    ["perron", "--r", "2", "P5"],
]


@pytest.mark.parametrize("fails_on", ["write", "flush"])
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path, argv, fails_on):
    files = {"A3": write(tmp_path, "a3.txt", A3_TEXT), "P5": write(tmp_path, "p5.txt", P5_TEXT)}
    argv = [files.get(word, word) for word in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(ClosedStdout(fails_on)), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (141, "")


@pytest.mark.parametrize("argv", [["classify"], ["classify", "--json"], ["digraph"],
                                  ["perron", "--r", "2"]])
def test_dash_reads_the_matrix_from_stdin(tmp_path, monkeypatch, argv):
    expected = run_main(argv + [write(tmp_path, "p5.txt", P5_TEXT)])
    assert expected[0] == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(P5_TEXT))
    assert run_main(argv + ["-"]) == expected


def test_a_leading_byte_order_mark_is_dropped(tmp_path, monkeypatch):
    # a UTF-8 file saved with a byte-order mark reads as it does without one,
    # in both formats and on stdin; a mark anywhere else is still bad input
    def utf8(name, text):
        (tmp_path / name).write_text(text, encoding="utf-8")
        return str(tmp_path / name)

    BOM = "\ufeff"
    doc = json.dumps({"n": 3, "entries": [[1, -1, -1], [-2, 1, 1], [2, -2, -1]]})
    for text in (A3_TEXT, doc):
        plain = run_main(["classify", "--json", utf8("plain", text)])
        assert plain[0] == 0
        assert run_main(["classify", "--json", utf8("bom", BOM + text)]) == plain
        monkeypatch.setattr(sys, "stdin", io.StringIO(BOM + text))
        assert run_main(["classify", "--json", "-"]) == plain
        for bad in (BOM * 2 + text, " " + BOM + text, text.replace("1", BOM + "1", 1)):
            code, out, err = run_main(["classify", utf8("bad", bad)])
            assert (code, out) == (2, "") and err.startswith("parse error")


def test_console_script_target_resolves():
    # the zmx command an install creates calls [project.scripts]'s target
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["zmx"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main


# ---------------------------------------------------------------- fuzzing

# tokens near the literal grammar: valid rationals, some not in lowest
# terms, zero denominators, decimals, non-ASCII digits (Arabic-Indic ones are
# decimal digits, a superscript two is not) and stray signs
TOKEN = st.sampled_from(
    ["0", "1", "-2", "3/4", "-5/6", "+7", "2/4", "-0/3", "6/3", "+4/6",
     "1/0", "1.5", "x", "-", "//", "\u00b2", "\u0663", ""]
)


@st.composite
def near_matrix_text(draw):
    n = draw(st.integers(-1, 4))
    rows = draw(st.lists(st.lists(TOKEN, max_size=5), max_size=5))
    if draw(st.booleans()):
        cells = [[int(t) if t.lstrip("-").isdecimal() and draw(st.booleans()) else t for t in row]
                 for row in rows]
        return json.dumps({"n": n, "entries": cells})
    return "\n".join([str(n)] + [" ".join(row) for row in rows])


MATRIX_TEXT = st.one_of(
    near_matrix_text(),
    st.text(alphabet=st.sampled_from("0123456789-+/ \n\t{}[]\",:.nx\u00b2\u0663"), max_size=60),
    st.text(max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(MATRIX_TEXT)
@example("\u00b2")  # isdigit() but not a decimal digit
@example("1" * 5000)  # too long for int()
@example('{"n": ' + "1" * 5000 + "}")
@example('{"n": 1, "entries": [[' + "1" * 5000 + "]]}")
@example("2\n2/4 -0/3\n6/3 +4/6\n")  # no literal in lowest terms
@example('{"n": 2, "entries": [["2/4", 6], ["-0/3", "+4/6"]]}')
@example("1\n-4/6\n")
def test_parse_matrix_returns_a_matrix_or_a_parse_error(text):
    try:
        m = parse_matrix(text)
    except MatrixParseError:
        return
    assert isinstance(m, Matrix)
    assert parse_matrix(serialize_matrix(m)) == m
    # the matrix of the same literals read as Fractions, in canonical form
    assert m == Matrix(fraction_rows(text))
    assert math.gcd(m._lcm, *itertools.chain.from_iterable(m._grid)) == 1


def fraction_rows(text):
    """The entries of a matrix text that parse_matrix accepted, each literal
    p or p/q read as Fraction(p, q)."""
    if text.lstrip().startswith("{"):
        rows = json.loads(text)["entries"]
    else:
        rows = [line.split() for line in text.splitlines() if line.strip()][1:]
    return [[Fraction(*map(int, str(cell).split("/"))) for cell in row] for row in rows]


ARGV_TOKEN = st.sampled_from([
    "classify", "invert", "cyclic-check", "digraph", "gen", "verify", "perron",
    "--json", "--dot", "--method", "oracle", "cyclic", "maybee",
    "typed", "bdsw", "circulant", "--params", "--diag", "--super", "--corner", "--alpha",
    "--theorem", "det-formula", "cycle-matrix", "zclass-oracles", "polyn", "type-d",
    "--n", "1..3", "2..4", "0..1", "3..2", "--seed", "--r", "--tol",
    "0", "1", "2", "-1", "x", "1/10", "-1/2", "1/0", "1,2,3", "-1,2", "1 1/2", "1,,2", ",1", "",
    "--help", "FILE", "-", "missing.txt",
])


def parse_outcome(parse, argv):
    """Namespace without its parser, or the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    fields = dict(vars(args))
    assert isinstance(fields.pop("parser"), argparse.ArgumentParser)
    return fields, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_COMMANDS)), st.lists(ARGV_TOKEN, max_size=7))
@example("classify", ["--", "A"])
@example("classify", ["--", "--json"])
@example("classify", ["--json=1", "A"])
@example("classify", ["--js", "A"])
@example("classify", ["A", "--json"])
@example("digraph", ["A", "--dot", "--dot"])
@example("invert", ["--method", "cyclic", "--method", "maybee", "A"])
@example("invert", ["A", "--bogus"])
@example("invert", ["--bogus", "A"])
@example("perron", ["A"])
@example("perron", ["A", "--r"])
@example("cyclic-check", [])
@example("invert", ["--method", "nope", "A"])
@example("verify", ["--theorem", "polyn", "--n", "0..1"])
@example("verify", ["--theorem", "polyn", "--n=2..4", "--seed", "-1"])
@example("gen", ["typed", "--params=1,,3"])
@example("classify", ["A", "extra", "--json"])
@example("classify", ["-h", "A"])
def test_command_parser_parses_as_the_full_parser(name, rest):
    argv = [name] + rest
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        full = parse_outcome(lambda a: _full_parser().parse_args(a), argv)
        assert parse_outcome(_parse_args, argv) == full


@settings(max_examples=300, deadline=None)
@given(st.lists(ARGV_TOKEN, max_size=8), MATRIX_TEXT, st.sampled_from(["1", "2", "0", "x"]))
@example(["classify", "FILE"], "\u00b2", "1")
@example(["perron", "FILE", "--r", "1", "--tol", "-1/2"], "1\n1\n", "1")
def test_cli_exits_0_1_or_2_without_a_traceback(argv, text, trials):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [path if tok == "FILE" else tok for tok in argv]
        if "verify" in argv:
            argv += ["--trials", trials]  # the default of 100 trials is slow
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: usage errors and --help
                    code = exc.code
        finally:
            sys.stdin = stdin
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
