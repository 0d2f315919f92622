import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from dirseries.errors import ArgumentOutOfRange, MissingSymbol, NotDivisible, PolynomialSyntaxError
from dirseries.intfactor import factorize
from dirseries.poly import (
    BETA,
    METER,
    ONE,
    PHI,
    POWER_CAP,
    PSI,
    SYMBOL_INDEX_CAP,
    ZERO,
    Polynomial,
    _mono_mul,
    _wrap,
    as_poly,
    binom_poly,
    coeff_symbol,
    constant_polys,
    constant_values,
    log_n_poly,
    parse_polynomial,
    repeated_squaring,
    rising_poly,
    sum_of_products,
    validate_symbol,
)
from dirseries.randgen import random_polynomial
from dirseries.series import SERIES_CAP, dir_from_fn

phi = Polynomial.symbol(PHI)
beta = Polynomial.symbol(BETA)
L2 = Polynomial.symbol("L2")
L3 = Polynomial.symbol("L3")
L5 = Polynomial.symbol("L5")


def random_poly(rng, symbols=(PHI, BETA, "L2"), max_terms=4, max_deg=3):
    out = ZERO
    for _ in range(rng.randint(0, max_terms)):
        term = Polynomial.const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for s in symbols:
            term = term * Polynomial.symbol(s) ** rng.randint(0, max_deg)
        out = out + term
    return out


def test_add_inverse_and_collection():
    assert phi + (-phi) == ZERO
    assert (L2 + L3) + L2 == L2 * 2 + L3
    half = Fraction(1, 2)
    assert phi**2 * half + phi * half == phi**2 * half + phi * half


def test_mul_examples():
    assert phi * (phi + 1) == phi**2 + phi
    assert L2 * L3 == L2 * L3
    inner = L2 * 2 + L3
    lhs = (phi + beta * inner) ** 2
    rhs = phi**2 + phi * beta * inner * 2 + beta**2 * inner**2
    assert lhs == rhs


def test_substitute_examples():
    psi = Polynomial.symbol(PSI)
    assert (psi**2).substitute(PSI, phi + beta * L2) == (phi + beta * L2) ** 2
    c2 = binom_poly(PHI, 2)
    assert c2.substitute(PHI, Polynomial.const(2)) == ONE
    assert (psi * random_poly(random.Random(1))).substitute(PSI, 0) == ZERO


def test_substitute_without_the_symbol_returns_the_polynomial_unmetered():
    p, r = phi**3 * 7**400 + beta * L2, phi + beta
    assert p.substitute(PSI, r) is p
    assert _metered_units(lambda: p.substitute(PSI, r)) == 0


def dict_merge(m1, m2):
    """The monomial product by a dict merge and a sort: the reference."""
    merged = dict(m1)
    for s, e in m2:
        merged[s] = merged.get(s, 0) + e
    return tuple(sorted(merged.items()))


MONO_SYMBOLS = ("L11", "L2", "L3", "a1", "a10", "a2", "beta", "phi", "psi")
THREE = (("L2", 1), ("a1", 2), ("phi", 3))


def random_monomial(rng, size):
    return tuple((s, rng.randint(1, 4)) for s in sorted(rng.sample(MONO_SYMBOLS, size)))


@pytest.mark.parametrize(
    "m1, m2",
    [((), ()), ((), (("phi", 2),)), ((("phi", 2),), ()), ((("phi", 2),), (("phi", 3),)),
     ((("beta", 1),), (("phi", 3),)), ((("phi", 1),), (("beta", 1),)),
     (THREE, (("L2", 4),)), (THREE, (("a1", 1),)), (THREE, (("phi", 1),)),
     (THREE, (("L11", 1),)), (THREE, (("L3", 1),)), (THREE, (("beta", 1),)),
     (THREE, (("psi", 1),)), ((("a1", 1),), THREE), (THREE, THREE),
     (THREE, (("L3", 1), ("psi", 2)))],
    ids=["empty", "empty-one", "one-empty", "one-one-shared", "one-one-before",
         "one-one-after", "shared-first", "shared-middle", "shared-last", "before-all",
         "disjoint-second", "disjoint-third", "after-all", "one-many", "many-many-shared",
         "many-many-disjoint"],
)
def test_monomial_product_cases(m1, m2):
    got = _mono_mul(m1, m2)
    assert got == dict_merge(m1, m2)
    if len(m1) == 1 or len(m2) == 1:  # the factors' pairs are kept, not copied
        shared = set(dict(m1)) & set(dict(m2))
        kept = [pair for pair in got if pair[0] not in shared]
        assert all(any(pair is old for old in m1 + m2) for pair in kept)


@pytest.mark.parametrize("sizes", [(0, 1), (1, 1), (1, 4), (4, 1), (2, 3), (5, 5)])
def test_monomial_products_match_a_dict_merge(sizes):
    # seeded monomials of the given numbers of pairs, multiplied alone and
    # as terms of polynomials, whose products sum the merged terms
    rng = random.Random(str(sizes))
    for _ in range(200):
        m1, m2 = random_monomial(rng, sizes[0]), random_monomial(rng, sizes[1])
        assert _mono_mul(m1, m2) == dict_merge(m1, m2)
        assert _mono_mul(m2, m1) == dict_merge(m1, m2)
    for _ in range(50):
        p = Polynomial({random_monomial(rng, rng.choice(sizes)): rng.randint(-3, 3)
                        for _ in range(4)})
        q = Polynomial({random_monomial(rng, rng.choice(sizes)): Fraction(rng.randint(-3, 3), 2)
                        for _ in range(4)})
        want: dict = {}
        for n1, c1 in p.terms.items():
            for n2, c2 in q.terms.items():
                mono = dict_merge(n1, n2)
                want[mono] = want.get(mono, 0) + c1 * c2
        assert (p * q).terms == {mono: c for mono, c in want.items() if c}


@pytest.mark.parametrize("k", range(10))
def test_powers_match_a_left_to_right_product_chain(k):
    p = phi * Fraction(2, 3) + beta * L2 - 1
    chain = ONE
    for _ in range(k):
        chain = chain * p
    assert p**k == chain
    if k:
        assert repeated_squaring(p, k) == chain


def test_divide_by_symbol():
    assert (phi**2 + phi * 3).divide_by_symbol(PHI) == phi + 3
    assert (phi * L2).divide_by_symbol(PHI) == L2
    with pytest.raises(NotDivisible):
        (phi + 1).divide_by_symbol(PHI)


def test_divide_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng)
        assert (p * phi).divide_by_symbol(PHI) == p


def test_eval():
    assert (phi**2 + phi).eval_at({PHI: 3}) == 12
    assert ZERO.eval_at({}) == 0
    # binomial-coefficient oracle
    assert binom_poly(PHI, 3).eval_at({PHI: 5}) == comb(5, 3)
    with pytest.raises(MissingSymbol):
        (phi + L2).eval_at({PHI: 1})


def test_eval_respects_operations():
    rng = random.Random(11)
    for _ in range(20):
        p, q = random_poly(rng), random_poly(rng)
        env = {s: Fraction(rng.randint(-5, 5)) for s in (PHI, BETA, "L2")}
        assert (p * q).eval_at(env) == p.eval_at(env) * q.eval_at(env)
        assert (p + q).eval_at(env) == p.eval_at(env) + q.eval_at(env)


def test_ring_axioms_structural():
    rng = random.Random(23)
    for _ in range(15):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p
        assert p * q == q * p


def test_constant_values_and_polys():
    values = [Fraction(0), Fraction(1), Fraction(-7, 3)]
    polys = constant_polys(values)
    assert polys == [ZERO, ONE, Polynomial.const(Fraction(-7, 3))]
    assert [p.to_text() for p in polys] == ["0", "1", "-7/3"]
    assert constant_values(polys) == values
    assert constant_values([]) == []
    assert constant_values([ONE, phi + 1, ONE]) is None
    assert constant_values([phi]) is None


def test_constant_polys_share_equal_values_of_one_type():
    # 2 == Fraction(2, 1) and both hash alike, but the meter sizes an int
    # and a Fraction differently, so only the two ints share a polynomial
    two, two_fraction, two_again = constant_polys([2, Fraction(2, 1), 2])
    assert two is two_again and two_fraction is not two
    assert type(two.terms[()]) is int and type(two_fraction.terms[()]) is Fraction
    zeros = constant_polys([0, Fraction(0), 0])
    assert all(z is ZERO for z in zeros)


def test_binom_poly():
    assert binom_poly(PHI, 0) == ONE
    assert binom_poly(PHI, 2) == (phi**2 - phi) * Fraction(1, 2)
    assert binom_poly(PHI, 3).eval_at({PHI: 6}) == 20
    for t in range(3, 9):
        assert binom_poly(PHI, 3).eval_at({PHI: t}) == comb(t, 3)


def test_rising_poly():
    assert rising_poly(PHI, 0) == ONE
    assert rising_poly(PHI, 2) == phi**2 + phi
    assert rising_poly(PHI, 3).eval_at({PHI: 2}) == 24


def test_log_n_poly():
    assert log_n_poly(1) == ZERO
    assert log_n_poly(12) == L2 * 2 + L3
    assert log_n_poly(30) == L2 + L3 + L5


def test_log_n_poly_matches_sum_of_prime_logs():
    for n in range(1, 10001):
        want = ZERO
        for p, m in factorize(n):
            want = want + m * Polynomial.symbol(f"L{p}")
        got = log_n_poly(n)
        assert got == want, n
        assert got.to_text() == want.to_text()


def test_log_additivity_exhaustive():
    for n in range(1, 101):
        for m in range(1, 101):
            assert log_n_poly(n * m) == log_n_poly(n) + log_n_poly(m)


def test_symbol_vocabulary():
    assert validate_symbol("L2") == "L2"
    with pytest.raises(ValueError):
        validate_symbol("L4")
    assert coeff_symbol(2) == "a2"
    with pytest.raises(ValueError):
        coeff_symbol(0)
    with pytest.raises(ValueError):
        Polynomial.symbol("gamma")


def test_symbol_indices_are_canonical_ascii_up_to_the_cap():
    # the largest index the package prints: log_n_poly and bell --symbolic stop at SERIES_CAP
    assert SYMBOL_INDEX_CAP >= SERIES_CAP
    for name in ("L2", "L9973", "a1", f"a{SYMBOL_INDEX_CAP}"):
        assert validate_symbol(name) == name
    for name in ("L02", "a01", "a0", "L4", "L10007", f"a{SYMBOL_INDEX_CAP + 1}", "L\u0663",
                 "a\u0661", "L" + "1" * 44, "a" + "7" * 300_000, "L", "a"):
        with pytest.raises(ValueError):
            validate_symbol(name)
    # a non-canonical name would be a symbol apart from the canonical one: a01 - a1 did not cancel
    with pytest.raises(PolynomialSyntaxError, match="unknown symbol 'L02'"):
        parse_polynomial("L02")
    with pytest.raises(PolynomialSyntaxError, match="unknown symbol 'a01'"):
        parse_polynomial("a01 - a1")


def test_parse_print_roundtrip():
    rng = random.Random(31)
    for _ in range(40):
        p = random_poly(rng, symbols=(PHI, BETA, "L2", "a3"))
        assert parse_polynomial(p.to_text()) == p


def test_parse_forms():
    assert parse_polynomial("2*L2 + L3") == L2 * 2 + L3
    assert parse_polynomial("1/2*phi^2") == phi**2 * Fraction(1, 2)
    assert parse_polynomial("-(phi - 1)") == -phi + 1
    assert parse_polynomial("0") == ZERO
    assert parse_polynomial("phi*(phi+1)") == phi**2 + phi


@pytest.mark.parametrize(
    "text, value, kind",
    [("-0", 0, None), ("0/7", 0, None), ("4/2", 2, int), ("-6/4", Fraction(-3, 2), Fraction),
     ("007", 7, int), ("9" * 5000, 10**5000 - 1, int)],
    ids=["minus-zero", "zero-over-7", "4-over-2", "minus-6-over-4", "leading-zeros",
         "5000-digits"],
)
def test_parsed_constants_keep_their_values_and_types(text, value, kind):
    # ``Polynomial.const`` wraps the scalar it normalised once: zero is the
    # empty polynomial, an integral value an ``int``, any other a ``Fraction``
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        terms = parse_polynomial(text).terms
    finally:
        sys.set_int_max_str_digits(old)
    assert [(mono, type(c), c) for mono, c in terms.items()] == (
        [((), kind, value)] if kind else []
    )


def test_parse_errors_carry_offsets():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("phi + gamma")
    assert err.value.offset == 6
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("phi + ")
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("(phi")


@pytest.mark.parametrize(
    "text, message, offset",
    [("\u0663*phi", "expected a term", 0), ("phi^\u00b2", "expected a number", 4),
     ("1/\u0663", "expected a number", 2), ("2\u0663", "trailing input", 1)],
    ids=["arabic-indic-three", "superscript-two", "denominator", "trailing"],
)
def test_numbers_are_ascii_digits_only(text, message, offset):
    # str.isdigit() holds for every Unicode digit, and int() reads them; a number is 0-9 only
    with pytest.raises(PolynomialSyntaxError, match=message) as err:
        parse_polynomial(text)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text, offset",
    [("phi^" + "9" * 5000, 4), ("9" * 5000, 0), ("-" + "9" * 5000, 1), ("9" * 5000 + "*phi", 0),
     ("1/" + "9" * 5000, 2)],
)
def test_number_past_the_digit_limit_is_a_syntax_error(text, offset):
    # the CLI lifts Python's limit on integer text; a library caller may not
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(PolynomialSyntaxError, match="number too long") as err:
            parse_polynomial(text)
    finally:
        sys.set_int_max_str_digits(old)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text, offset",
    [
        ("2^99999999", 2),
        ("(1+phi+beta)^100000", 13),
        ("phi^10001", 4),
        ("2 ^ 99999", 4),
        ("phi*beta^" + "9" * 400, 9),
    ],
)
def test_power_over_the_cap_is_refused_at_its_exponent(text, offset):
    # uncapped, 2^99999999 in a loaded coefficient ran until killed
    start = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError, match="exponent too large") as err:
        parse_polynomial(text)
    assert err.value.offset == offset
    assert time.perf_counter() - start < 1


def test_powers_up_to_the_cap_parse():
    # every exponent the CLI prints, up to SERIES_CAP, parses back
    assert POWER_CAP >= SERIES_CAP
    top = phi**POWER_CAP * beta ** POWER_CAP
    assert parse_polynomial(top.to_text()) == top
    assert parse_polynomial(f"2^{POWER_CAP}") == Polynomial.const(2**POWER_CAP)
    assert parse_polynomial("(1+phi)^99") == (phi + 1) ** 99
    assert parse_polynomial("(1+phi+beta)^26") == (phi + beta + 1) ** 26
    assert parse_polynomial(f"0^{POWER_CAP}") == ZERO


@pytest.mark.parametrize(
    "text, base, exponent",
    [("(1+phi)^100", phi + 1, 100), ("(1+phi+beta)^27", phi + beta + 1, 27)],
    ids=["(1+phi)^100", "(1+phi+beta)^27"],
)
def test_power_of_a_sum_parses_without_a_budget(text, base, exponent):
    # only the exponent is capped; the work of the expansion is metered, and
    # a library call runs without a budget
    assert parse_polynomial(text) == base**exponent


def _metered_units(step) -> int:
    """The units ``step()`` charges under a budget it cannot reach."""
    METER.reset(10**18)
    try:
        step()
        return METER.spent
    finally:
        METER.reset()


@pytest.mark.parametrize(
    "step",
    [lambda: (phi + beta) * (phi - 1), lambda: (phi + beta) * 3, lambda: phi + beta,
     lambda: (phi * 7**400 + beta).to_text(),
     lambda: sum_of_products([(phi + beta, phi - 1), (beta, Polynomial.const(3)), (phi, beta)])],
    ids=["product", "scalar-product", "sum", "text", "sum-of-products"],
)
def test_each_polynomial_step_charges_the_meter(step):
    # the charge comes before the step: a budget one unit short refuses it
    units = _metered_units(step)
    assert units > 0
    try:
        METER.reset(units)
        step()
        METER.reset(units - 1)
        with pytest.raises(ArgumentOutOfRange, match=f"budget of {units - 1} units"):
            step()
    finally:
        METER.reset()


def test_steps_skip_the_meter_without_a_budget():
    # library calls and verify pay nothing for the meter
    METER.reset()
    assert ((phi + beta) * (phi - 1) * 3 + phi * 7**400).to_text()
    assert METER.spent == 0


def test_steps_charge_every_coefficient_not_the_first():
    # 1 + C*phi begins with the small constant 1, and the long C is charged
    # all the same: in products, in products by a scalar and in sums
    one = ONE
    big, small, c = one + 7**40000 * phi, one + phi, 7**40000
    assert _metered_units(lambda: big * big) > 100 * _metered_units(lambda: small * small)
    assert _metered_units(lambda: big * c) > 100 * _metered_units(lambda: small * c)
    assert _metered_units(lambda: phi + big) > _metered_units(lambda: phi + small)
    # a Fraction after an int is charged as a Fraction
    third, two = one + Fraction(1, 3) * beta, one + 2 * beta
    assert _metered_units(lambda: phi + third) > _metered_units(lambda: phi + two)
    assert _metered_units(lambda: phi * third) > _metered_units(lambda: phi * two)


def test_long_numbers_are_charged_before_they_are_converted():
    # CPython converts a number between text and int in time quadratic in
    # its digits: a 10^6-digit number took about 30 s to read and write
    digits = "1" + "0" * 10**6
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    start = time.perf_counter()
    try:
        METER.reset(10**8)
        for step in (lambda: parse_polynomial(digits), lambda: parse_polynomial(digits + "*phi"),
                     lambda: Polynomial.const(10**10**6).to_text()):
            with pytest.raises(ArgumentOutOfRange, match="work passed the budget"):
                step()
    finally:
        METER.reset()
        sys.set_int_max_str_digits(old)
    assert time.perf_counter() - start < 5


def _reference_text(p: Polynomial) -> str:
    """Canonical text written with the ``Fraction`` operators: ``abs``,
    ``==`` and ``>`` on each coefficient and ``str`` of its magnitude."""
    terms = p.terms
    if not terms:
        return "0"
    if len(terms) == 1 and () in terms:
        return str(terms[()])
    parts = []
    for mono, coeff in sorted(terms.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0])):
        body = "*".join(s if e == 1 else f"{s}^{e}" for s, e in mono)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not parts:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(parts)


def _random_coefficient(rng):
    """An ``int``, a ``Fraction`` or a ``Fraction`` with denominator 1, of
    either sign, with magnitude 1 among them and long numbers."""
    value = rng.choice((1, 1, 2, 7, 12, 10**25 + 3)) * rng.choice((1, -1))
    kind = rng.randrange(3)
    if kind == 0:
        return value
    if kind == 1:
        return Fraction(value, rng.choice((2, 3, 10, 10**20 + 1)))
    return Fraction(value)  # as mixed int and Fraction arithmetic leaves it


def _random_terms(rng) -> dict:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        symbols = rng.sample((PHI, BETA, PSI, "L2", "L13", "a1", "a12"), rng.randint(0, 3))
        mono = tuple(sorted((s, rng.randint(1, 3)) for s in symbols))
        terms[mono] = _random_coefficient(rng)
    return terms


@pytest.mark.parametrize("seed", range(4))
def test_text_matches_the_fraction_operator_formatter(seed):
    # the terms are stored as drawn, so a Fraction with denominator 1 stays one
    rng = random.Random(seed)
    polys = [_wrap(_random_terms(rng)) for _ in range(300)]
    polys += [_wrap({(): c}) for c in (5, -5, 1, -1, Fraction(-3, 4), Fraction(7), Fraction(-1))]
    polys += [ZERO, _wrap({((PHI, 1),): Fraction(-1), ((BETA, 2),): Fraction(1)})]
    for p in polys:
        assert p.to_text() == _reference_text(p)
        assert parse_polynomial(p.to_text()) == p


@pytest.mark.parametrize(
    "terms, units",
    [({(): 7**2000}, 2835),
     ({(): Fraction(-(7**1500), 3**900)}, 2859),
     ({((PHI, 1),): 7**2000, ((BETA, 2),): Fraction(5**1200, 11**400), (): Fraction(-(3**800))},
      4544),
     ({((PHI, 1),): 7**300, (): Fraction(-1, 3)}, 0)],
    ids=["int", "fraction", "mixed", "short"],
)
def test_printing_charges_the_digits_of_long_numbers(terms, units):
    assert _metered_units(_wrap(terms).to_text) == units


def _reference_sum_of_products(pairs) -> dict:
    """The terms of the sum of p * q over ``pairs``, from exponent maps."""
    out: dict = {}
    for p, q in pairs:
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                exps = dict(m1)
                for sym, e in m2:
                    exps[sym] = exps.get(sym, 0) + e
                mono = tuple(sorted(exps.items()))
                out[mono] = out.get(mono, 0) + Fraction(c1) * c2
    return {mono: c for mono, c in out.items() if c}


@pytest.mark.parametrize("seed", range(6))
def test_sum_of_products_matches_a_term_dict_reference(seed):
    rng = random.Random(seed)
    polys = [random_polynomial(rng) for _ in range(8)]
    polys += [ZERO, ONE, Polynomial.const(Fraction(-5, 3)),
              Polynomial.const(7), phi * 2 - beta * 2]
    pairs = [(rng.choice(polys), rng.choice(polys)) for _ in range(12)]
    x, y = polys[0], polys[1]
    pairs += [(x, y), (-x, y), (y, x * Fraction(-1, 2)), (x * Fraction(1, 2), y)]  # cancel
    for chosen in (pairs, pairs[-4:], [], [(ZERO, x)], [(x, ONE)]):
        got = sum_of_products(chosen)
        want = Polynomial(_reference_sum_of_products(chosen))
        assert got == want
        assert got.terms == want.terms
        assert got.to_text() == want.to_text()
    assert not sum_of_products(pairs[-4:])


def _sum_of_terms(count: int) -> Polynomial:
    # a<k> stays within SYMBOL_INDEX_CAP: each later round of k raises phi's powers by 7
    terms = {}
    for k in range(1, count + 1):
        rounds, index = divmod(k - 1, SYMBOL_INDEX_CAP)
        terms[(coeff_symbol(index + 1), 1), (PHI, k % 7 + 1 + 7 * rounds)] = k % 11 - 5 or 1
    return _wrap(terms)


def test_parsing_is_linear_in_the_terms():
    # a sum is read into one term dict; adding term by term copied about
    # t^2/2 terms for t terms
    small, large = (_sum_of_terms(t).to_text() for t in (4000, 8000))
    units = [_metered_units(lambda: parse_polynomial(text)) for text in (small, large)]
    assert units[1] <= 2.5 * units[0]


def test_long_sum_round_trips():
    poly = _sum_of_terms(32000)
    assert parse_polynomial(poly.to_text()) == poly


def test_integral_coefficients_are_stored_as_int():
    psi = Polynomial.symbol(PSI)
    p = (phi + beta * 2 - 3) ** 3 * L2 + log_n_poly(360) - 7
    q = p.substitute(PHI, beta * 2 + L3) * (L5 - 1) + psi**2
    halves = (phi * Fraction(1, 2) + 1) * (phi * Fraction(3, 2))  # 3/4*phi^2 + 3/2*phi
    for poly in (p, q, log_n_poly(360), Polynomial.const(Fraction(4, 2)), phi * Fraction(6, 3),
                 parse_polynomial("2*L2 + 4/2*phi"), binom_poly(PHI, 1)):
        assert poly.terms and all(type(c) is int for c in poly.terms.values()), poly
    assert {type(c) for c in halves.terms.values()} == {Fraction}


def test_constant_value_and_eval_at_are_fractions():
    three = Polynomial.const(3)
    for value in (three.constant_value(), ZERO.constant_value(),
                  three.eval_at({}), (phi * 2 + 1).eval_at({PHI: 2}), ZERO.eval_at({})):
        assert type(value) is Fraction
    inverse = 1 / three.constant_value()
    assert (type(inverse), inverse) == (Fraction, Fraction(1, 3))


def _ref_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for s, e in m2:
                exps[s] = exps.get(s, 0) + e
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def test_arithmetic_matches_all_fraction_reference():
    # the reference stores every coefficient as a Fraction, as the
    # polynomials once did; equality and printing must not see the change
    rng = random.Random(41)
    for _ in range(200):
        p, q = random_polynomial(rng), random_polynomial(rng)
        rp = {m: Fraction(c) for m, c in p.terms.items()}
        rq = {m: Fraction(c) for m, c in q.terms.items()}
        cube = _ref_mul(_ref_mul(rp, rp), rp)
        for got, want in ((p + q, _ref_add(rp, rq)), (p * q, _ref_mul(rp, rq)), (p**3, cube),
                          (p - q, _ref_add(rp, {m: -c for m, c in rq.items()}))):
            ref = _wrap(want)
            assert got == ref and ref == got
            assert got.to_text() == ref.to_text()
            assert parse_polynomial(got.to_text()) == ref


def test_foreign_operands_are_left_to_the_other_type():
    psi = Polynomial.symbol(PSI)
    series = dir_from_fn(6, lambda n: n)
    assert psi * series == series * psi
    with pytest.raises(TypeError, match="unsupported operand"):
        psi + series
    with pytest.raises(TypeError, match="unsupported operand"):
        psi - series


def test_constant_text_round_trips_like_the_general_parser():
    # a parenthesised constant goes through the scanner, a bare one does not
    rng = random.Random(43)
    values = [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**6)) for _ in range(300)]
    for value in values + [Fraction(0), Fraction(-1), Fraction(7, 1)]:
        text = Polynomial.const(value).to_text()
        assert text == str(value)
        fast, general = parse_polynomial(text), parse_polynomial(f"({text})")
        assert fast == general == Polynomial.const(value)
        assert [type(c) for c in fast.terms.values()] == [type(c) for c in general.terms.values()]
    for text in ("-0", "007", "-12/8", "4/2", "0/5", "3/010", " 3", "1 / 3", "-\t2"):
        assert parse_polynomial(text) == parse_polynomial(f"({text})"), text


@pytest.mark.parametrize("text, offset", [("1/0", 3), ("1/00", 4), ("-7/000", 6), (" 1/0", 4)])
def test_zero_denominator_is_an_error_in_any_spelling(text, offset):
    with pytest.raises(PolynomialSyntaxError, match="zero denominator") as caught:
        parse_polynomial(text)
    assert caught.value.offset == offset


def test_floats_do_not_enter_exact_arithmetic():
    series = dir_from_fn(4, lambda n: n)
    for make in (
        lambda: Polynomial.const(0.1),
        lambda: as_poly(0.1),
        lambda: series * 0.1,
        lambda: 0.5 * series,
        lambda: ONE * 0.1,
        lambda: Polynomial({(): 0.5}),
        lambda: dir_from_fn(2, lambda n: 1.0),
    ):
        with pytest.raises(TypeError):
            make()
    assert Polynomial.const(Fraction(1, 10)).to_text() == "1/10"
    assert (series * Fraction(1, 2))[3] == Polynomial.const(Fraction(3, 2))


@pytest.mark.parametrize("value", [0.1, "1/3"], ids=["float", "str"])
def test_eval_at_takes_only_exact_values(value):
    # Fraction(value) read 0.1 as a binary fraction and "1/3" as 1/3
    with pytest.raises(TypeError, match="not an exact scalar"):
        (phi * 3).eval_at({PHI: value})
    assert (phi * 3).eval_at({PHI: Fraction(1, 3)}) == 1
    assert (phi * 3).eval_at({PHI: True}) == 3
