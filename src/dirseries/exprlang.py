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

Each builtin is one row of ``_BUILTINS``: the shapes of its arguments and
its evaluator.  The parser reads the shapes and checks the syntactic kind
of every argument (a series expression, an integer, a rational or
``beta``, a quoted path); ``eval_expr`` evaluates the series arguments,
checks that each is of the kind the shape names, and calls the evaluator.
Parse errors carry byte offsets and are deterministic.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import (
    ArityMismatch,
    ExprSyntaxError,
    ExprTypeError,
    SeriesFormatError,
    UnknownFunction,
)
from .intfactor import s_max
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


class Call(NamedTuple):
    """AST node: a builtin or function application."""

    name: str
    args: tuple


class _Builtin(NamedTuple):
    """A row of ``_BUILTINS``: the argument shapes (see ``_ACCEPTS``), and
    ``run(trunc, *arguments)``, which evaluates a call at ``trunc`` with
    its series arguments evaluated at ``arg_trunc(trunc)``."""

    shapes: tuple[str, ...]
    run: Callable[..., Series]
    arg_trunc: Callable[[int], int] = lambda trunc: trunc


def _load(trunc: int, path: str) -> Series:
    """The series in a JSON file, truncated to ``trunc``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            loaded = series_from_json(_read_json(fh))
        except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep, not a series
            raise SeriesFormatError(f"{path}: {exc}") from None
    return loaded.truncated(trunc)


def _read_json(fh) -> object:
    """``json.load(fh)`` through this module's ``json``, which
    ``perfbench/layers.py`` replaces to trace it.  The integers of a series
    file are truncations: they are read under Python's default digit limit,
    which the CLI lifts for the long numbers of polynomial text."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return json.load(fh)
    lifted = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        return json.load(fh)
    finally:
        sys.set_int_max_str_digits(lifted)


def _param(value: Fraction | str) -> Fraction | None:
    """A "param" argument as ``beta`` of a Lagrange family (None: symbolic)."""
    return None if value == "beta" else value


# the zero-argument builtins hold their constructors; every other row calls
# its function by name when it runs, so that a traced run, which rebinds the
# module's names, sees the call
_BUILTINS: dict[str, _Builtin] = {
    "zeta": _Builtin((), zeta),
    "geom": _Builtin((), zeta),
    "geom2": _Builtin((), geom2),
    "eps": _Builtin((), eps),
    "expx": _Builtin((), expx),
    "onepx": _Builtin((), onepx),
    "load": _Builtin(("str",), _load),
    "dmul": _Builtin(("dir", "dir"), lambda _, a, b: dir_mul(a, b)),
    "dinv": _Builtin(("dir",), lambda _, a: dir_inverse(a)),
    "dpow_int": _Builtin(("dir", "int"), lambda _, a, k: dir_pow_int(a, int(k))),
    "dpow_param": _Builtin(("dir",), lambda _, a: dir_pow_param(a)),
    "dlog": _Builtin(("dir",), lambda _, a: dir_log(a)),
    "dexp": _Builtin(("dir",), lambda _, a: dir_exp_param(a)),
    "star": _Builtin(("dir",), lambda _, a: star_derivative(a)),
    "subst_xk": _Builtin(("dir", "int"), lambda _, a, k: dir_subst_xk(a, int(k))),
    "twist": _Builtin(("dir", "int"), lambda _, a, k: twist_int(a, int(k))),
    # the lift to N reads its ordinary argument only up to order log2(N);
    # at least 1, so that an argument of the wrong kind is still built and
    # reported as such
    "lift": _Builtin(
        ("ord",), lambda trunc, a: lift_multiplicative(a, trunc), lambda trunc: max(s_max(trunc), 1)
    ),
    "lagrange_dir": _Builtin(("dir", "param"), lambda _, a, b: lagrange_dir(a, _param(b))),
    "lagrange_ord": _Builtin(("ord", "param"), lambda _, a, b: lagrange_ord(a, _param(b))),
}

# each argument shape: the syntactic kinds of argument it accepts, and its
# name in messages; "dir" and "ord" are series of that kind, "param" is the
# beta of a Lagrange family
_ACCEPTS: dict[str, tuple[set[str], str]] = {
    "dir": ({"call"}, "a series expression"),
    "ord": ({"call"}, "a series expression"),
    "int": ({"integer"}, "an integer"),
    "param": ({"integer", "rational", "beta"}, "a rational or beta"),
    "str": ({"string"}, "a quoted path"),
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
    if name not in _BUILTINS:
        raise UnknownFunction(f"unknown function or builtin {name!r} (at offset {start})")
    shape = _BUILTINS[name].shapes
    args: list = []
    if scanner.peek() == "(":
        scanner.open()
        args.append(_parse_arg(scanner))
        while scanner.peek() == ",":
            scanner.expect(",")
            args.append(_parse_arg(scanner))
        scanner.close()
    if len(args) != len(shape):
        raise ArityMismatch(f"{name} takes {len(shape)} argument(s), got {len(args)}")
    for i, ((kind, _), want) in enumerate(zip(args, shape), start=1):
        accepted, noun = _ACCEPTS[want]
        if kind not in accepted:
            raise ExprTypeError(f"{name} needs {noun} as argument {i}")
    return Call(name, tuple(value for _, value in args))


def _parse_arg(scanner: Scanner) -> tuple[str, Arg]:
    """An argument and its syntactic kind: "call", "integer", "rational",
    "beta" or "string"."""
    ch = scanner.peek()
    if ch == '"':
        return "string", _take_string(scanner)
    if ch == "-" or (ch.isascii() and ch.isdigit()):
        sign = 1
        if ch == "-":
            scanner.expect("-")
            sign = -1
        value = sign * Fraction(scanner.take_rational())
        return ("integer" if value.denominator == 1 else "rational"), value
    if ch.isalpha():
        # could be the symbolic marker or a nested call; ``beta`` is the
        # only bare word that is not a function name
        save = scanner.pos
        name = scanner.take_ident()
        if name == "beta" and scanner.peek() != "(":
            return "beta", "beta"
        scanner.pos = save
        return "call", _parse_call(scanner)
    raise ExprSyntaxError("expected an argument", scanner.pos)


def _expect_kind(name: str, value: Series, want: str) -> Series:
    if value.kind != want:
        noun = "a composition" if want == "dir" else "an ordinary"
        raise ExprTypeError(f"{name} needs {noun} series argument")
    return value


def eval_expr(ast: Call, trunc: int) -> Series:
    """Evaluate an AST at a given truncation."""
    builtin = _BUILTINS[ast.name]
    arg_trunc = builtin.arg_trunc(trunc)
    values = [
        _expect_kind(ast.name, eval_expr(arg, arg_trunc), want) if isinstance(arg, Call) else arg
        for want, arg in zip(builtin.shapes, ast.args)
    ]
    return builtin.run(trunc, *values)
