"""Command line front end: matrix file parsing, reports, generators,
verification campaigns.

Matrix files come in two shapes. Plain text is the order on the first line
followed by that many rows of rational literals ("-4", "1/2"), a row ending
at LF, CR LF or CR; JSON is {"n": int, "entries": [[string, ...], ...]}. Each
literal is read by _literal, and output written by matrix._entry_strings, as
exact rational strings, except the perron command's decimal. main lifts the
interpreter's int <-> str digit limit, so values of any length pass.

Exit codes: 0 success, 1 failed check or domain error, 2 usage/parse error,
141 with nothing on stderr when a reader closes stdout early.

The subcommands are one table, _COMMANDS. A call whose first argument names
a command is parsed by that command's parser alone; help, no argument, an
unknown first word and words the command leaves over go to the full parser,
so usage lines and errors read as argparse's subcommand parser gives them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

from zmx.construct import bdsw_matrix, circulant_pz, from_cyclic_params, type_d
from zmx.cyclic import (
    bdsw_sign_classify,
    cyclic_det,
    cyclic_inverse,
    cyclic_products,
    is_bdsw,
    is_full,
    is_inverse_cyclic,
)
from zmx.digraph import _maybee_inverse, digraph_of, is_irreducible, is_unipathic, to_dot
from zmx.errors import (
    ORDER_CAP,
    MatrixParseError,
    NotInverseCyclicError,
    NotZMatrixError,
    OrderCapError,
    SingularMatrixError,
)
from zmx.matrix import Matrix, _cleared, _entry_strings, inverse
from zmx.verify import CAMPAIGNS, run_verify
from zmx.zclass import ClassReport, classify, is_z, perron_r


def _literal(token: str) -> tuple[int, int]:
    """(numerator, denominator) of a rational literal p or p/q, not reduced:
    p is decimal digits after an optional sign, q decimal digits, not zero."""
    p, slash, q = token.partition("/")
    if p.isdecimal() or p[1:].isdecimal() and p[0] in "+-":
        if not slash:
            return int(p), 1
        if q.isdecimal() and (d := int(q)):
            return int(p), d
    raise ValueError(f"bad rational literal {token!r}")


def _parse_text(text: str) -> Matrix:
    # a row ends at \n, \r\n or \r; other line separators are whitespace in it
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    content = [(no, ln) for no, ln in enumerate(text.split("\n"), start=1) if ln.strip()]
    if not content:
        raise MatrixParseError("empty input", line=1, column=1)
    head_no, head = content[0]
    head_tokens = head.split()
    if len(head_tokens) != 1 or not head_tokens[0].isdecimal() or int(head_tokens[0]) < 1:
        raise MatrixParseError("first line must be the order, a positive integer",
                               line=head_no, column=1)
    n = int(head_tokens[0])
    body = content[1:]
    if len(body) < n:
        raise MatrixParseError(f"expected {n} rows, got {len(body)}",
                               line=content[-1][0], column=1)
    if len(body) > n:
        raise MatrixParseError(f"unexpected extra row (order is {n})",
                               line=body[n][0], column=1)
    rows = []
    for no, line in body:
        try:
            entries = list(map(_literal, line.split()))
        except ValueError:
            # scan the failing row again for the first bad literal's column
            for m in re.finditer(r"\S+", line):
                try:
                    _literal(m.group())
                except ValueError as exc:
                    raise MatrixParseError(str(exc), line=no, column=m.start() + 1) from None
        if len(entries) != n:
            raise MatrixParseError(f"expected {n} entries in row, got {len(entries)}",
                                   line=no, column=1)
        rows.append(entries)
    # square and nonempty by the checks above; the gcd pass reduces "2/4"
    return Matrix._from_grid(*_cleared(rows))


def _parse_json(text: str) -> Matrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise MatrixParseError("JSON nesting too deep") from None
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise MatrixParseError('JSON matrix needs "n" and "entries" keys')
    n = obj["n"]
    grid = obj["entries"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MatrixParseError('"n" must be a positive integer')
    if not isinstance(grid, list) or len(grid) != n:
        raise MatrixParseError(f'"entries" must hold {n} rows')
    rows = []
    for i, row in enumerate(grid, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixParseError(f"row {i} must hold {n} entries")
        out = []
        for j, cell in enumerate(row, start=1):
            if type(cell) is int:
                out.append((cell, 1))
                continue
            if type(cell) is not str:
                raise MatrixParseError(f"entry ({i},{j}) must be an integer or a rational string")
            try:
                out.append(_literal(cell))
            except ValueError as exc:
                raise MatrixParseError(f"entry ({i},{j}): {exc}") from None
        rows.append(out)
    return Matrix._from_grid(*_cleared(rows))


def parse_matrix(text: str) -> Matrix:
    """Parse either accepted format, JSON by its leading brace, after one byte-order mark."""
    text = text.removeprefix("\ufeff")
    try:
        return (_parse_json if text.lstrip().startswith("{") else _parse_text)(text)
    except MatrixParseError:
        raise
    except ValueError as exc:  # a number too long for int()
        raise MatrixParseError(str(exc)) from None


def serialize_matrix(a: Matrix) -> str:
    return f"{a.n}\n" + "".join([" ".join(row) + "\n" for row in _entry_strings(a)])


class CyclicInfo(namedtuple("CyclicInfo", "is_full is_inverse_cyclic is_bdsw d c d_minus_c verdict "
                                           "inverse inverse_is_z inverse_is_bdsw")):
    """Cycle-structure facts that ride along with a ClassReport: d, c and
    d - c as Fractions, the verdict's value, and the inverse Matrix with its
    two flags, all three None for a singular matrix."""

    __slots__ = ()


def gather_info(a: Matrix, cap: int = ORDER_CAP) -> tuple[ClassReport, CyclicInfo]:
    report = classify(a, cap=cap)
    d, c = cyclic_products(a)
    inv = inverse(a) if report.is_nonsingular else None
    info = CyclicInfo(
        is_full=is_full(a),
        is_inverse_cyclic=is_inverse_cyclic(a),
        is_bdsw=is_bdsw(a),
        d=d,
        c=c,
        d_minus_c=d - c,
        verdict=bdsw_sign_classify(a).value,
        inverse=inv,
        inverse_is_z=None if inv is None else is_z(inv),
        inverse_is_bdsw=None if inv is None else is_bdsw(inv),
    )
    return report, info


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _json_value(x):
    # Fractions as exact strings; a Matrix as its rows of them
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Matrix):
        return _entry_strings(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def emit_report(r: ClassReport, info: CyclicInfo, format: str = "text") -> str:
    if format == "json":
        payload = dict(zip(r._fields + info._fields, r + info))
        return json.dumps(payload, separators=(",", ":"), default=_json_value)
    lines = [
        f"order: {r.n}",
        f"Z-matrix: {_yn(r.is_z)}",
        f"nonsingular: {_yn(r.is_nonsingular)} (det = {r.determinant})",
        f"irreducible: {_yn(r.irreducible)}",
        f"M: {_yn(r.is_m)}   nonsingular M: {_yn(r.is_nonsingular_m)}   "
        f"N: {_yn(r.is_n)}   N0: {_yn(r.is_n0)}   F0: {_yn(r.is_f0)}",
        "L-band index: " + ("n/a" if r.l_index is None else str(r.l_index)),
        f"full: {_yn(info.is_full)}   inverse cyclic: {_yn(info.is_inverse_cyclic)}   "
        f"bdsw: {_yn(info.is_bdsw)}",
        f"d = {info.d}   c = {info.c}   d - c = {info.d_minus_c}",
        f"verdict: {info.verdict}",
    ]
    if info.inverse is not None:
        lines.append(f"inverse (Z: {_yn(info.inverse_is_z)}, bdsw: {_yn(info.inverse_is_bdsw)}):")
        lines.append(str(info.inverse))
    return "\n".join(lines)


def _cmd_classify(args) -> int:
    report, info = gather_info(args.matrix, cap=args.cap)
    print(emit_report(report, info, "json" if args.json else "text"))
    return 0


def _cmd_invert(args) -> int:
    if args.method == "cyclic":
        inv = cyclic_inverse(args.matrix)
    elif args.method == "maybee":
        inv = _maybee_inverse(args.matrix, args.cap)
    else:
        inv = inverse(args.matrix)
    print(serialize_matrix(inv), end="")
    return 0


def _cmd_cyclic_check(args) -> int:
    a = args.matrix
    d, c = cyclic_products(a)
    cyc = is_inverse_cyclic(a)
    print(f"order: {a.n}")
    print(f"full: {_yn(is_full(a))}")
    print(f"inverse cyclic: {_yn(cyc)}")
    print(f"d = {d}   c = {c}   d - c = {d - c}")
    if cyc:
        print(f"closed-form determinant: {cyclic_det(a)}")
        return 0
    return 1


def _cmd_digraph(args) -> int:
    dg = digraph_of(args.matrix)
    if args.dot:
        print(to_dot(dg))
        return 0
    print(f"vertices: {dg.n}")
    print("edges: " + ", ".join(f"{i}->{j}" for i, j in sorted(dg.edges)))
    print(f"irreducible: {_yn(is_irreducible(dg))}")
    print(f"unipathic: {_yn(is_unipathic(dg))}")
    return 0


def _split_literals(p: argparse.ArgumentParser, option: str, text: str) -> list[Fraction]:
    """The rationals of a list option, separated by commas or whitespace; an
    empty field ("1,,2", ",1", "1,") is a usage error."""
    fields = re.split(r"\s*,\s*|\s+", text.strip())
    if "" in fields:
        p.error(f"argument {option}: empty field in {text!r}")
    return [Fraction(*_literal(field)) for field in fields]


def _cmd_gen(args) -> int:
    p = args.parser
    if args.family == "typed":
        if args.params is None:
            p.error("gen typed requires --params")
        m = type_d(_split_literals(p, "--params", args.params))
    elif args.family == "circulant":
        if args.alpha is None:
            p.error("gen circulant requires --alpha")
        m = circulant_pz(_split_literals(p, "--alpha", args.alpha))
    else:
        if args.diag is None or args.sup is None or args.corner is None:
            p.error(f"gen {args.family} requires --diag, --super and --corner")
        diag = _split_literals(p, "--diag", args.diag)
        sup = _split_literals(p, "--super", args.sup)
        corner = Fraction(*_literal(args.corner))
        if args.family == "cyclic":
            m = from_cyclic_params(diag, sup, corner)
        else:
            m = bdsw_matrix(diag, sup, corner)
    print(serialize_matrix(m), end="")
    return 0


def _cmd_verify(args) -> int:
    lo, hi = args.n
    summary = run_verify(args.theorem, lo, hi, args.trials, args.seed, cap=args.cap)
    print(f"theorem: {summary.theorem}")
    print(f"orders: {summary.n_lo}..{summary.n_hi}   trials: {summary.trials}   seed: {summary.seed}")
    print(f"checks: {summary.checks}")
    print(f"failures: {len(summary.failures)}")
    for line in summary.failures[:20]:
        print(f"  {line}")
    if len(summary.failures) > 20:
        print(f"  ... and {len(summary.failures) - 20} more")
    return 0 if summary.ok else 1


def _decimal(v: Fraction) -> str:
    """Nonnegative v as format(float(v), ".12g") writes it, but rounded half
    to even from v itself, so no magnitude overflows or underflows."""
    if not v:
        return "0"
    # 10^e <= v < 10^(e+1) once rounded to 12 digits; the estimate is off by at most one
    e = (v.numerator.bit_length() - v.denominator.bit_length()) * 30103 // 100000
    while True:
        m = round(v * Fraction(10) ** (11 - e))
        if m >= 10**12:
            e += 1
        elif m < 10**11:
            e -= 1
        else:
            break
    digits = str(m).rstrip("0")
    if e < -4 or e >= 12:
        return f"{digits[0]}{'.' * (len(digits) > 1)}{digits[1:]}e{e:+03d}"
    if e < 0:
        return "0." + "0" * (-e - 1) + digits
    digits = digits.ljust(e + 1, "0")
    return digits[:e + 1] + "." * (len(digits) > e + 1) + digits[e + 1:]


def _cmd_perron(args) -> int:
    tol = Fraction(*_literal(args.tol))
    v = perron_r(args.matrix, args.r, tol, cap=args.cap)
    print(f"r: {args.r}")
    print(f"bound: {v}")
    print(f"bracket: ({v - tol}, {v}]")
    print(f"decimal: {_decimal(v)}")
    return 0


def _range_arg(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, want LO..HI") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, want 1 <= LO <= HI")
    return lo, hi


def _arg(*flags, **kwargs):
    return flags, kwargs


_FILE = _arg("file", help="matrix file, or - for stdin")

# name: (help, handler, argument specs), in the order the help lists them
_COMMANDS = {
    "classify": ("full class report for a matrix file", _cmd_classify,
                 [_FILE, _arg("--json", action="store_true", help="machine-readable report")]),
    "invert": ("exact inverse of a matrix file", _cmd_invert,
               [_FILE, _arg("--method", choices=("oracle", "cyclic", "maybee"), default="oracle")]),
    "cyclic-check": ("test the cyclic consistency relations", _cmd_cyclic_check, [_FILE]),
    "digraph": ("digraph of the nonzero pattern", _cmd_digraph,
                [_FILE, _arg("--dot", action="store_true", help="emit DOT instead of a summary")]),
    "gen": ("build a matrix from family parameters", _cmd_gen, [
        _arg("family", choices=("typed", "cyclic", "bdsw", "circulant")),
        _arg("--params", help="typed: comma-separated increasing parameters"),
        _arg("--diag", help="cyclic/bdsw: diagonal entries"),
        _arg("--super", dest="sup", help="cyclic/bdsw: super-diagonal entries"),
        _arg("--corner", help="cyclic/bdsw: bottom-left entry"),
        _arg("--alpha", help="circulant: polynomial coefficients"),
    ]),
    "verify": ("run a seeded theorem campaign", _cmd_verify, [
        _arg("--theorem", required=True, choices=sorted(CAMPAIGNS)),
        _arg("--n", type=_range_arg, default=(2, 6), metavar="LO..HI"),
        _arg("--trials", type=int, default=100),
        _arg("--seed", type=int, default=0),
    ]),
    "perron": ("bisection bound on the largest r-subset Perron root", _cmd_perron, [
        _arg("file", help="nonnegative matrix file, or - for stdin"),
        _arg("--r", type=int, required=True, help="principal submatrix order"),
        _arg("--tol", default="1/1000000000", help="rational tolerance"),
    ]),
}


def _add_command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, func, specs = _COMMANDS[name]
    for flags, kwargs in specs:
        p.add_argument(*flags, **kwargs)
    p.set_defaults(func=func, parser=p, command=name)
    return p


def _full_parser() -> argparse.ArgumentParser:
    """The zmx parser with every subcommand, for help, no argument, an
    unknown first word and leftover words, which argparse reports at the top
    level, under the usage line of zmx."""
    parser = argparse.ArgumentParser(
        prog="zmx",
        description="Exact-arithmetic toolkit for cycle matrices, bdsw patterns "
        "and the Z-matrix taxonomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=text), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as _full_parser().parse_args(argv) does.

    A first word naming a command is the command (argparse matches names
    exactly), so its parser alone, built as add_parser builds it, parses the
    rest. Words it leaves over are reported at the top level, so then the
    full parser parses argv again; it also takes every other argv.
    """
    if argv and argv[0] in _COMMANDS:
        p = _add_command(argparse.ArgumentParser(prog=f"zmx {argv[0]}"), argv[0])
        args, extra = p.parse_known_args(argv[1:])
        if not extra:
            return args
    return _full_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no int <-> str digit limit (3.10.7 on) while main runs, the caller's after
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _main(argv: list[str]) -> int:
    args = _parse_args(argv)
    try:
        env = os.environ.get("ZMX_ORDER_CAP")
        try:
            args.cap = ORDER_CAP if env is None else int(env)
        except ValueError:
            raise ValueError(f"ZMX_ORDER_CAP must be an integer, got {env!r}") from None
        if args.cap < 1:
            raise ValueError("ZMX_ORDER_CAP must be positive")
        if "file" in args:
            with (contextlib.nullcontext(sys.stdin) if args.file == "-"
                  else open(args.file, "r", encoding="utf-8")) as fh:
                args.matrix = parse_matrix(fh.read())
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # a reader closed stdout: end as a writer stopped by SIGPIPE, silently;
        # the descriptor goes to devnull so the flush at exit cannot fail again
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 141
    except MatrixParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, NotInverseCyclicError, NotZMatrixError, OrderCapError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
