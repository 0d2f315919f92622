import random
from fractions import Fraction
from math import factorial

import pytest

from dirseries.errors import ShapeMismatch, SingularDiagonal, TruncationTooSmall
from dirseries.intfactor import factorize
from dirseries.matrices import (
    DirMatrix,
    apply_to_series,
    build_column,
    build_mixed,
    build_mult,
    build_rd,
    build_riordan_ord,
    diagonal_log_matrix,
    exp_conjugate,
    identity_matrix,
    matmul,
    rd_action,
    rd_inverse,
    rd_multiply,
    row_polynomial,
)
from dirseries.partitions import bell_B, bell_btilde
from dirseries.poly import PHI, PSI, Polynomial, coeff_symbol, log_n_poly, rising_poly
from dirseries.randgen import random_dir_series, random_ord_series
from dirseries.series import (
    dir_from_fn,
    dir_log,
    dir_mul,
    dir_pow_param,
    dir_x,
    ord_from_fn,
    ord_mul,
    ord_one,
    ord_x,
    series_substitute_symbol,
    star_derivative,
)


def zeta_series(n):
    return dir_from_fn(n, lambda _: 1)


def geom2_series(n):
    return dir_from_fn(n, lambda k: 0 if k == 1 else 1)


def generic_dir(n, lead=0):
    """Fully symbolic series with indeterminate coefficients a_k."""
    return dir_from_fn(
        n, lambda k: lead if k == 1 else Polynomial.symbol(coeff_symbol(k))
    )


# -- multiplication-operator matrices -----------------------------------------


def test_build_mult_symbolic_entries():
    m = build_mult(generic_dir(8, lead=Polynomial.symbol(coeff_symbol(1))), 8)
    assert m.entry(6, 3) == Polynomial.symbol("a2")
    assert m.entry(5, 2).is_zero()
    assert m.entry(6, 1) == Polynomial.symbol("a6")
    assert m.entry(8, 4) == Polynomial.symbol("a2")


def test_build_mult_of_x_is_identity():
    assert build_mult(dir_x(12), 12).entries == {(n, n): Polynomial.one() for n in range(1, 13)}


def test_builders_need_series_as_long_as_the_matrix():
    with pytest.raises(TruncationTooSmall):
        build_mult(dir_x(11), 12)
    with pytest.raises(TruncationTooSmall):
        build_rd(dir_x(11), dir_x(12), 12)
    with pytest.raises(TruncationTooSmall):
        build_riordan_ord(ord_one(8), ord_x(7), 8)
    with pytest.raises(TruncationTooSmall):
        build_riordan_ord(ord_one(7), ord_x(8), 8)


def test_mult_matrices_commute():
    rng = random.Random(40)
    a = random_dir_series(rng, 24, lead=Fraction(2))
    b = random_dir_series(rng, 24, lead=Fraction(-1, 3))
    ma, mb = build_mult(a, 24), build_mult(b, 24)
    assert matmul(ma, mb) == matmul(mb, ma)


def test_mult_matrix_action_is_convolution():
    rng = random.Random(41)
    a = random_dir_series(rng, 24)
    b = random_dir_series(rng, 24)
    assert apply_to_series(build_mult(a, 24), b) == dir_mul(a, b)


# -- power-column matrices ------------------------------------------------------

GOLDEN_GEOM2_ROWS = {
    1: (1, 0, 0, 0),
    2: (0, 1, 0, 0),
    3: (0, 1, 0, 0),
    4: (0, 1, 1, 0),
    5: (0, 1, 0, 0),
    6: (0, 1, 2, 0),
    7: (0, 1, 0, 0),
    8: (0, 1, 2, 1),
    9: (0, 1, 1, 0),
    10: (0, 1, 2, 0),
    11: (0, 1, 0, 0),
    12: (0, 1, 4, 3),
}


def test_build_column_golden_rows():
    m = build_column(geom2_series(13), 13)
    assert (m.col_lo, m.col_hi) == (0, 3)
    for n, row in GOLDEN_GEOM2_ROWS.items():
        assert tuple(c.constant_value() for c in m.row(n)) == row, f"row {n}"


def test_build_column_first_column_is_series():
    a = geom2_series(16)
    m = build_column(a, 16)
    assert m.column(1) == [a[n] for n in range(1, 17)]


def test_build_column_rows_match_btilde():
    m = build_column(generic_dir(16), 16)
    values = [Polynomial.symbol(coeff_symbol(k)) for k in range(2, 17)]
    for n in range(2, 17):
        for col in range(1, m.col_hi + 1):
            assert m.entry(n, col) == bell_btilde(n, col, values)


def test_column_times_mult_riordan():
    # multiplying on the right by an ordinary multiplication array applies
    # the ordinary series to the column base
    rng = random.Random(42)
    a = random_dir_series(rng, 16, lead=0)
    f = random_ord_series(rng, 4, const=Fraction(2))
    size = 16
    col = build_column(a, size)
    toeplitz = build_riordan_ord(f, ord_x(col.col_hi), col.col_hi)
    from dirseries.series import dir_apply_series

    lhs = matmul(col, toeplitz)
    rhs = build_mixed(dir_apply_series(f, a), a, size)
    assert lhs == rhs


def test_column_times_compose_riordan():
    rng = random.Random(43)
    a = random_dir_series(rng, 16, lead=0)
    g = random_ord_series(rng, 4, const=0)
    col = build_column(a, 16)
    compose = build_riordan_ord(ord_one(col.col_hi), g, col.col_hi)
    from dirseries.series import dir_apply_series

    lhs = matmul(col, compose)
    rhs = build_column(dir_apply_series(g, a), 16)
    assert lhs == rhs


def test_mixed_riordan_identity():
    rng = random.Random(44)
    a = random_dir_series(rng, 16, lead=0)
    b = random_dir_series(rng, 16, lead=Fraction(1, 2))
    f = random_ord_series(rng, 4, const=Fraction(3))
    g = random_ord_series(rng, 4, const=0)
    mixed = build_mixed(b, a, 16)
    riordan = build_riordan_ord(f, g, mixed.col_hi)
    from dirseries.series import dir_apply_series

    lhs = matmul(mixed, riordan)
    rhs = build_mixed(
        dir_mul(b, dir_apply_series(f, a)), dir_apply_series(g, a), 16
    )
    assert lhs == rhs


def test_complementary_identity():
    rng = random.Random(45)
    f = random_dir_series(rng, 16, lead=Fraction(2))
    g = random_dir_series(rng, 16)
    b = random_dir_series(rng, 16, lead=Fraction(1, 3))
    a = random_dir_series(rng, 16, lead=0)
    lhs = matmul(build_rd(f, g, 16), build_mixed(b, a, 16))
    rhs = build_mixed(dir_mul(f, rd_action(g, b)), rd_action(g, a), 16)
    assert lhs == rhs


# -- ordinary Riordan arrays -----------------------------------------------------


def test_riordan_identity():
    one = ord_one(8)
    m = build_riordan_ord(one, ord_x(8), 8)
    expected = {(n, n): Polynomial.one() for n in range(9)}
    assert m.entries == expected


def test_riordan_fundamental_theorem():
    # R(b, a) h = b * (h o a), with h o a by Horner's rule:
    # h_0 + a * (h_1 + a * (h_2 + ...))
    rng = random.Random(56)
    size = 10
    for _ in range(3):
        b = random_ord_series(rng, size, const=Fraction(rng.randint(1, 3)))
        a = random_ord_series(rng, size, const=0)
        h = random_ord_series(rng, size, const=Fraction(rng.randint(-2, 2)))
        m = build_riordan_ord(b, a, size)
        lhs = [sum((m.entry(n, k) * h[k] for k in range(size + 1)), Polynomial.zero())
               for n in range(size + 1)]
        composed = ord_one(size) * 0
        for k in range(size, -1, -1):
            composed = ord_mul(a, composed) + ord_one(size) * h[k]
        assert lhs == list(ord_mul(b, composed).coeffs)


def test_riordan_golden_row6():
    a = [Polynomial.symbol(coeff_symbol(k)) for k in range(1, 7)]
    series = ord_from_fn(6, lambda n: 0 if n == 0 else a[n - 1])
    m = build_riordan_ord(ord_one(6), series, 6)
    assert m.entry(6, 2) == a[0] * a[4] * 2 + a[1] * a[3] * 2 + a[2] ** 2
    assert m.entry(6, 3) == a[0] ** 2 * a[3] * 3 + a[0] * a[1] * a[2] * 6 + a[1] ** 3
    assert m.entry(6, 4) == a[0] ** 3 * a[2] * 4 + a[0] ** 2 * a[1] ** 2 * 6
    assert m.entry(6, 5) == a[0] ** 4 * a[1] * 5
    assert m.entry(6, 6) == a[0] ** 6


def test_riordan_rows_match_bell():
    a = [Polynomial.symbol(coeff_symbol(k)) for k in range(1, 9)]
    series = ord_from_fn(8, lambda n: 0 if n == 0 else a[n - 1])
    m = build_riordan_ord(ord_one(8), series, 8)
    for n in range(1, 9):
        for col in range(1, n + 1):
            assert m.entry(n, col) == bell_B(n, col, a)


# -- group-family matrices -------------------------------------------------------


def test_build_rd_identity_and_first_column():
    assert build_rd(dir_x(12), dir_x(12), 12) == identity_matrix(12)
    rng = random.Random(46)
    b = random_dir_series(rng, 12, lead=Fraction(3, 2))
    a = random_dir_series(rng, 12)
    m = build_rd(b, a, 12)
    assert m.column(1) == [b[n] for n in range(1, 13)]
    for n in range(1, 13):
        assert m.entry(n, n) == b[1]


def test_rd_action_basics():
    rng = random.Random(47)
    a = random_dir_series(rng, 24)
    assert rd_action(a, dir_x(24)) == dir_x(24)
    b = random_dir_series(rng, 24, lead=Fraction(-2))
    assert rd_action(a, b) == apply_to_series(build_rd(dir_x(24), a, 24), b)


def test_rd_factorization():
    # the two-series matrix is the product of a multiplication operator and
    # the basic group matrix
    rng = random.Random(48)
    b = random_dir_series(rng, 16, lead=Fraction(2))
    a = random_dir_series(rng, 16)
    lhs = build_rd(b, a, 16)
    rhs = matmul(build_mult(b, 16), build_rd(dir_x(16), a, 16))
    assert lhs == rhs


def test_rd_times_mult_rule():
    rng = random.Random(49)
    a = random_dir_series(rng, 24)
    b = random_dir_series(rng, 24, lead=Fraction(1, 2))
    lhs = matmul(build_rd(dir_x(24), a, 24), build_mult(b, 24))
    rhs = build_rd(rd_action(a, b), a, 24)
    assert lhs == rhs


def test_rd_compose_rule():
    rng = random.Random(50)
    a = random_dir_series(rng, 24)
    b = random_dir_series(rng, 24)
    lhs = matmul(build_rd(dir_x(24), a, 24), build_rd(dir_x(24), b, 24))
    rhs = build_rd(dir_x(24), dir_mul(a, rd_action(a, b)), 24)
    assert lhs == rhs


def test_rd_multiply_group_law():
    rng = random.Random(51)
    for _ in range(2):
        b = random_dir_series(rng, 24, lead=Fraction(rng.randint(1, 3)))
        a = random_dir_series(rng, 24)
        f = random_dir_series(rng, 24, lead=Fraction(rng.randint(1, 2)))
        g = random_dir_series(rng, 24)
        # rd_multiply builds the product from the pairs of series only;
        # this is the check that it agrees with the raw matrix product
        product = rd_multiply((b, a), (f, g), 24)
        assert product == matmul(build_rd(b, a, 24), build_rd(f, g, 24))


def test_rd_multiply_identity():
    rng = random.Random(52)
    b = random_dir_series(rng, 16, lead=Fraction(2))
    a = random_dir_series(rng, 16)
    m = build_rd(b, a, 16)
    x = dir_x(16)
    assert rd_multiply((b, a), (x, x), 16) == m
    assert rd_multiply((x, x), (b, a), 16) == m


def test_rd_inverse():
    assert rd_inverse(identity_matrix(10)) == identity_matrix(10)
    rng = random.Random(54)
    b = random_dir_series(rng, 16, lead=Fraction(2))
    a = random_dir_series(rng, 16)
    m = build_rd(b, a, 16)
    assert matmul(m, rd_inverse(m)) == identity_matrix(16)
    assert matmul(rd_inverse(m), m) == identity_matrix(16)


def test_rd_inverse_singular():
    bad = build_mult(geom2_series(8) + dir_x(8) * 0, 8)
    with pytest.raises(SingularDiagonal):
        rd_inverse(bad)


def test_star_derivative_conjugation():
    rng = random.Random(55)
    b = random_dir_series(rng, 16)
    dlog = diagonal_log_matrix(16)
    lhs = matmul(dlog, build_rd(dir_x(16), b, 16))
    shifted = dir_x(16) + star_derivative(dir_log(b))
    rhs = matmul(build_rd(shifted, b, 16), dlog)
    assert lhs == rhs


def test_row_scaffolding():
    # matrices whose column m stacks coefficients of the log-indexed powers
    # have rows that read as multiplication operators of those powers
    rng = random.Random(56)
    a = random_dir_series(rng, 16)
    size = 16
    P = dir_pow_param(a.truncated(size))
    mid = dir_mul(dir_x(size) - star_derivative(dir_log(a.truncated(size))), P)

    def stacked(series):
        entries = {}
        for m in range(1, size + 1):
            for j in range(1, size // m + 1):
                v = series[j].substitute(PSI, log_n_poly(j * m))
                if not v.is_zero():
                    entries[(j * m, m)] = v
        return DirMatrix("product", 1, size, 1, size, entries)

    A = stacked(P)
    C = stacked(mid)
    for n in range(1, size + 1):
        spec_p = series_substitute_symbol(P, PSI, log_n_poly(n))
        assert A.row(n) == build_mult(spec_p, size).row(n)
        spec_c = series_substitute_symbol(mid, PSI, log_n_poly(n))
        assert C.row(n) == build_mult(spec_c, size).row(n)


# -- exponential conjugation ------------------------------------------------------


def test_exp_conjugate_identity():
    assert exp_conjugate(identity_matrix(10)) == identity_matrix(10)


def test_exp_conjugate_zeta_rows():
    conj = exp_conjugate(build_column(dir_log(zeta_series(16)), 16))
    for n in range(2, 17):
        expected = Polynomial.const(factorial(n))
        for _, m in factorize(n):
            expected = expected * rising_poly(PHI, m) * Fraction(1, factorial(m))
        assert row_polynomial(conj, n, PHI) == expected
    assert row_polynomial(conj, 1, PHI) == Polynomial.one()


def test_exp_conjugate_rows_rebuild_parametric_power():
    rng = random.Random(57)
    a = random_dir_series(rng, 32)
    conj = exp_conjugate(build_column(dir_log(a), 32))
    p = series_substitute_symbol(dir_pow_param(a), PSI, Polynomial.symbol(PHI))
    for n in range(1, 33):
        assert row_polynomial(conj, n, PHI) == p[n] * factorial(n)


def test_apply_to_series_checks_the_rows_before_any_work():
    # rows from 0 cannot give a series; the entry (0, 5) lies past the
    # series, so a product would raise IndexError first
    m = DirMatrix("x", 0, 3, 1, 3, {(0, 5): Polynomial.one()})
    with pytest.raises(ShapeMismatch, match="rows must start at 1"):
        apply_to_series(m, dir_from_fn(3, lambda n: 1))


def test_matmul_shape_check():
    with pytest.raises(ShapeMismatch):
        matmul(identity_matrix(8), identity_matrix(9))
