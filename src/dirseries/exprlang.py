"""The small expression language the CLI uses to build series.

Grammar (whitespace-insensitive)::

    expr   ::= ident | ident "(" args ")"
    args   ::= arg ("," arg)*
    arg    ::= expr | number | string
    number ::= ["-"] uint ["/" uint]
    string ::= '"' ... '"'

Builtins (composition series unless noted): ``zeta`` and ``geom`` (the
all-ones series), ``geom2`` (ones from index 2 on), ``eps`` (exponential
analog), ``expx`` and ``onepx`` (ordinary e^x and 1 + x).  ``load(path)``
reads a series from its JSON file form.

Functions: ``dmul``, ``dinv``, ``dpow_int``, ``dpow_param``, ``dlog``,
``dexp``, ``star``, ``subst_xk``, ``twist`` on composition series;
``lift`` takes an ordinary series to its multiplicative lift;
``lagrange_dir`` / ``lagrange_ord`` build the shifted-power family (their
second argument is a rational, or the word ``beta`` to stay symbolic).

Parse errors carry byte offsets and are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ArityMismatch,
    ExprSyntaxError,
    ExprTypeError,
    SeriesFormatError,
    TruncationTooSmall,
    UnknownFunction,
)
from .poly import Scanner
from .series import (
    Series,
    dir_exp_param,
    dir_inverse,
    dir_log,
    dir_mul,
    dir_pow_int,
    dir_pow_param,
    dir_subst_xk,
    star_derivative,
    twist_int,
)
from .serialize import series_from_json
from .transforms import (
    eps,
    expx,
    geom2,
    lagrange_dir,
    lagrange_ord,
    lift_multiplicative,
    onepx,
    zeta,
)

Arg = "Call | Fraction | str"


@dataclass(frozen=True)
class Call:
    """AST node: a builtin or function application."""

    name: str
    args: tuple


# argument shapes: "dir" and "ord" are series sub-expressions, "int" an
# integer literal, "param" a rational or the word beta, "str" a quoted path
_SIGNATURES: dict[str, tuple[str, ...]] = {
    "zeta": (),
    "geom": (),
    "geom2": (),
    "eps": (),
    "expx": (),
    "onepx": (),
    "load": ("str",),
    "dmul": ("dir", "dir"),
    "dinv": ("dir",),
    "dpow_int": ("dir", "int"),
    "dpow_param": ("dir",),
    "dlog": ("dir",),
    "dexp": ("dir",),
    "star": ("dir",),
    "subst_xk": ("dir", "int"),
    "twist": ("dir", "int"),
    "lift": ("ord",),
    "lagrange_dir": ("dir", "param"),
    "lagrange_ord": ("ord", "param"),
}


def parse_expr(text: str) -> Call:
    scanner = Scanner(text, ExprSyntaxError, "a name")
    ast = _parse_call(scanner)
    scanner.skip_ws()
    if scanner.pos != len(text):
        raise ExprSyntaxError("trailing input", scanner.pos)
    return ast


def _take_string(scanner: Scanner) -> str:
    scanner.expect('"')
    start = scanner.pos
    end = scanner.text.find('"', start)
    if end < 0:
        raise ExprSyntaxError("unterminated string", start)
    scanner.pos = end + 1
    return scanner.text[start:end]


def _parse_call(scanner: Scanner) -> Call:
    scanner.skip_ws()
    start = scanner.pos
    name = scanner.take_ident()
    if name not in _SIGNATURES:
        raise UnknownFunction(f"unknown function or builtin {name!r} (at offset {start})")
    shape = _SIGNATURES[name]
    args: list = []
    if scanner.peek() == "(":
        scanner.expect("(")
        if scanner.peek() != ")":
            args.append(_parse_arg(scanner))
            while scanner.peek() == ",":
                scanner.expect(",")
                args.append(_parse_arg(scanner))
        scanner.expect(")")
    if len(args) != len(shape):
        raise ArityMismatch(f"{name} takes {len(shape)} argument(s), got {len(args)}")
    return Call(name, tuple(args))


def _parse_arg(scanner: Scanner):
    ch = scanner.peek()
    if ch == '"':
        return _take_string(scanner)
    if ch == "-" or ch.isdigit():
        negative = ch == "-"
        if negative:
            scanner.expect("-")
        num = scanner.take_uint()
        den = 1
        if scanner.peek() == "/":
            scanner.expect("/")
            den = scanner.take_uint()
            if den == 0:
                raise ExprSyntaxError("zero denominator", scanner.pos)
        return Fraction(-num if negative else num, den)
    if ch.isalpha():
        # could be the symbolic marker or a nested call; ``beta`` is the
        # only bare word that is not a function name
        save = scanner.pos
        name = scanner.take_ident()
        if name == "beta" and scanner.peek() != "(":
            return "beta"
        scanner.pos = save
        return _parse_call(scanner)
    raise ExprSyntaxError("expected an argument", scanner.pos)


def _expect_kind(name: str, value: Series, want: str) -> Series:
    if value.kind != want:
        noun = "a composition" if want == "dir" else "an ordinary"
        raise ExprTypeError(f"{name} needs {noun} series argument")
    return value


def _expect_int(name: str, value) -> int:
    if not isinstance(value, Fraction) or value.denominator != 1:
        raise ExprTypeError(f"{name} needs an integer argument")
    return int(value)


def eval_expr(ast: Call, trunc: int) -> Series:
    """Evaluate an AST at a given truncation."""
    name, args = ast.name, ast.args
    if name in ("zeta", "geom"):
        return zeta(trunc)
    if name == "geom2":
        return geom2(trunc)
    if name == "eps":
        return eps(trunc)
    if name == "expx":
        return expx(trunc)
    if name == "onepx":
        return onepx(trunc)
    if name == "load":
        with open(args[0], "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8 text
                raise SeriesFormatError(f"{args[0]}: {exc}") from None
        loaded = series_from_json(obj)
        if loaded.trunc < trunc:
            raise TruncationTooSmall(
                f"loaded series has trunc {loaded.trunc}, need {trunc}"
            )
        return loaded.truncated(trunc)

    shape = _SIGNATURES[name]
    # the lift to N reads its ordinary argument only up to order log2(N);
    # at least 1, so that an argument of the wrong kind is still built
    # and reported as such
    arg_trunc = max(trunc.bit_length() - 1, 1) if name == "lift" else trunc
    values = []
    for want, arg in zip(shape, args):
        if want in ("dir", "ord"):
            values.append(_expect_kind(name, eval_expr(arg, arg_trunc), want))
        else:
            values.append(arg)

    if name == "dmul":
        return dir_mul(values[0], values[1])
    if name == "dinv":
        return dir_inverse(values[0])
    if name == "dpow_int":
        return dir_pow_int(values[0], _expect_int(name, values[1]))
    if name == "dpow_param":
        return dir_pow_param(values[0])
    if name == "dlog":
        return dir_log(values[0])
    if name == "dexp":
        return dir_exp_param(values[0])
    if name == "star":
        return star_derivative(values[0])
    if name == "subst_xk":
        return dir_subst_xk(values[0], _expect_int(name, values[1]))
    if name == "twist":
        return twist_int(values[0], _expect_int(name, values[1]))
    if name == "lift":
        return lift_multiplicative(values[0], trunc)
    if name == "lagrange_dir":
        beta = None if values[1] == "beta" else values[1]
        return lagrange_dir(values[0], beta=beta).series
    if name == "lagrange_ord":
        beta = None if values[1] == "beta" else values[1]
        return lagrange_ord(values[0], beta=beta).series
    raise UnknownFunction(f"unhandled node {name!r}")
