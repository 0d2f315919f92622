import random
from fractions import Fraction

import pytest

from dirseries.errors import (
    ArityMismatch,
    ExprSyntaxError,
    ExprTypeError,
    TruncationTooSmall,
    UnknownFunction,
)
from dirseries.exprlang import _BUILTINS, Call, eval_expr, parse_expr
from dirseries.randgen import random_dir_series
from dirseries.serialize import series_to_json_text
from dirseries.series import (
    dir_exp_param,
    dir_inverse,
    dir_log,
    dir_mul,
    dir_pow_int,
    dir_pow_param,
    dir_subst_xk,
    dir_x,
    star_derivative,
    twist_int,
)
from dirseries.transforms import (
    eps,
    expx,
    geom2,
    lagrange_dir,
    lagrange_ord,
    lift_multiplicative,
    onepx,
    zeta,
)


def test_parse_simple():
    ast = parse_expr("dlog(zeta)")
    assert ast == Call("dlog", (Call("zeta", ()),))


def test_parse_nested_and_params():
    ast = parse_expr("dmul(zeta, dinv(zeta))")
    assert ast == Call("dmul", (Call("zeta", ()), Call("dinv", (Call("zeta", ()),))))
    ast = parse_expr("lagrange_dir(eps, 1)")
    assert ast == Call("lagrange_dir", (Call("eps", ()), Fraction(1)))
    ast = parse_expr("lagrange_dir(eps, beta)")
    assert ast.args[1] == "beta"
    ast = parse_expr("dpow_int(geom2, -2)")
    assert ast.args[1] == Fraction(-2)
    ast = parse_expr('load("some/file.json")')
    assert ast == Call("load", ("some/file.json",))


def test_parse_whitespace_insensitive():
    assert parse_expr(" dmul( zeta ,dinv ( zeta ) ) ") == parse_expr(
        "dmul(zeta,dinv(zeta))"
    )


def test_parse_errors():
    with pytest.raises(UnknownFunction):
        parse_expr("nope(zeta)")
    with pytest.raises(ArityMismatch):
        parse_expr("dmul(zeta)")
    with pytest.raises(ArityMismatch):
        parse_expr("zeta(zeta)")
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("dmul(zeta,)")
    assert err.value.offset == 10
    with pytest.raises(ExprSyntaxError):
        parse_expr("dlog(zeta) trailing")
    with pytest.raises(ExprSyntaxError):
        parse_expr('load("unterminated)')
    for text in ("zeta()", "dinv()"):
        with pytest.raises(ExprSyntaxError, match="expected an argument"):
            parse_expr(text)


def test_parse_builds_call_trees():
    def call(name, *args):
        return Call(name, args)

    zeta, eps = call("zeta"), call("eps")
    expected = {
        "dlog(zeta)": call("dlog", zeta),
        "dmul(zeta, dinv(zeta))": call("dmul", zeta, call("dinv", zeta)),
        "lagrange_dir(eps, 1)": call("lagrange_dir", eps, Fraction(1)),
        "lagrange_dir(eps, beta)": call("lagrange_dir", eps, "beta"),
        "dpow_int(subst_xk(geom, 2), -3)": call(
            "dpow_int", call("subst_xk", call("geom"), Fraction(2)), Fraction(-3)
        ),
        "lift(expx)": call("lift", call("expx")),
        "twist(star(eps), 2)": call("twist", call("star", eps), Fraction(2)),
        'load("f.json")': call("load", "f.json"),
        "lagrange_ord(onepx, -2/3)": call("lagrange_ord", call("onepx"), Fraction(-2, 3)),
    }
    for text, ast in expected.items():
        assert parse_expr(text) == ast


# one expression per builtin, and the library call it must equal at N
BUILTIN_CASES = {
    "zeta": ("zeta", zeta),
    "geom": ("geom", zeta),
    "geom2": ("geom2", geom2),
    "eps": ("eps", eps),
    "expx": ("expx", expx),
    "onepx": ("onepx", onepx),
    "load": ('load("{path}")', lambda n: eps(40).truncated(n)),
    "dmul": ("dmul(eps, zeta)", lambda n: dir_mul(eps(n), zeta(n))),
    "dinv": ("dinv(eps)", lambda n: dir_inverse(eps(n))),
    "dpow_int": ("dpow_int(eps, -3)", lambda n: dir_pow_int(eps(n), -3)),
    "dpow_param": ("dpow_param(eps)", lambda n: dir_pow_param(eps(n))),
    "dlog": ("dlog(eps)", lambda n: dir_log(eps(n))),
    "dexp": ("dexp(geom2)", lambda n: dir_exp_param(geom2(n))),
    "star": ("star(eps)", lambda n: star_derivative(eps(n))),
    "subst_xk": ("subst_xk(eps, 3)", lambda n: dir_subst_xk(eps(n), 3)),
    "twist": ("twist(eps, -2)", lambda n: twist_int(eps(n), -2)),
    "lift": ("lift(expx)", lambda n: lift_multiplicative(expx(n), n)),
    "lagrange_dir": (
        "lagrange_dir(eps, 1/2)", lambda n: lagrange_dir(eps(n), Fraction(1, 2)).series
    ),
    "lagrange_ord": ("lagrange_ord(onepx, beta)", lambda n: lagrange_ord(onepx(n)).series),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_CASES))
def test_every_builtin_evaluates_to_its_library_call(tmp_path, name):
    assert sorted(BUILTIN_CASES) == sorted(_BUILTINS)  # a new builtin needs a case
    path = tmp_path / "eps.json"
    path.write_text(series_to_json_text(eps(40)))
    text, want = BUILTIN_CASES[name]
    ast = parse_expr(text.replace("{path}", str(path)))
    assert ast.name == name
    for n in (1, 12):
        assert eval_expr(ast, n) == want(n), n


def test_eval_builtins_and_identity():
    n = 24
    assert eval_expr(parse_expr("dmul(zeta, dinv(zeta))"), n) == dir_x(n)
    assert eval_expr(parse_expr("dlog(zeta)"), n) == dir_log(zeta(n))
    assert eval_expr(parse_expr("geom"), n) == zeta(n)


def test_eval_lagrange_family():
    n = 24
    got = eval_expr(parse_expr("lagrange_dir(eps, 1)"), n)
    want = lagrange_dir(eps(n), beta=Fraction(1)).series
    assert got == want


def test_eval_type_errors():
    with pytest.raises(ExprTypeError):
        eval_expr(parse_expr("dlog(expx)"), 8)
    with pytest.raises(ExprTypeError):
        eval_expr(parse_expr("lift(zeta)"), 8)
    with pytest.raises(ExprTypeError):
        eval_expr(parse_expr("dpow_int(zeta, 1/2)"), 8)


def test_eval_load_roundtrip(tmp_path):
    rng = random.Random(80)
    a = random_dir_series(rng, 16)
    path = tmp_path / "series.json"
    path.write_text(series_to_json_text(a))
    loaded = eval_expr(parse_expr(f'load("{path}")'), 16)
    assert loaded == a


def test_eval_lift_reads_its_argument_to_log2_order(tmp_path):
    # indices up to N have prime multiplicities of at most floor(log2 N)
    big = eval_expr(parse_expr("lift(expx)"), 10000)
    assert big.truncated(1000) == eval_expr(parse_expr("lift(expx)"), 1000)
    path = tmp_path / "onepx.json"
    path.write_text('{"kind": "ord", "trunc": 3, "coeffs": {"0": "1", "1": "1"}}')
    lifted = eval_expr(parse_expr(f'lift(load("{path}"))'), 15)
    assert lifted == eval_expr(parse_expr("lift(onepx)"), 15)
    with pytest.raises(TruncationTooSmall):
        eval_expr(parse_expr(f'lift(load("{path}"))'), 16)
