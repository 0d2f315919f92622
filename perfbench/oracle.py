"""Independent reference outputs for the commands whose input is seeded.

The program builds parametric powers and logarithms from a binomial power
ladder.  This module takes a different route to the same exact values: the
map D(a)_n = Omega(n) * a_n (Omega counts prime factors with multiplicity)
is a derivation of Dirichlet composition, so for a series f with leading
coefficient 1

    D(log f) o f = D(f)                  (logarithm)
    D(f^alpha) o f = alpha * D(f) o f^alpha    (power alpha)

and each gives a forward recurrence over multiples.  The outputs are then
printed in the CLI's JSON and CSV forms, so the benchmark compares stdout
digests.  Series are lists with slot 0 unused; polynomials are dicts as in
``gen``.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from gen import poly_text

PSI = "psi"


def omega_table(n: int) -> tuple[list[int], list[int]]:
    """(smallest prime factor, Omega) for 0..n."""
    spf = list(range(n + 1))
    for p in range(2, int(n**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    omega = [0] * (n + 1)
    for m in range(2, n + 1):
        omega[m] = omega[m // spf[m]] + 1
    return spf, omega


def factorize(n: int, spf: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    while n > 1:
        out[spf[n]] = out.get(spf[n], 0) + 1
        n //= spf[n]
    return out


# -- rational series -------------------------------------------------------


def inverse(f: list) -> list:
    n_max = len(f) - 1
    g = [Fraction(0)] * (n_max + 1)
    acc = [Fraction(0)] * (n_max + 1)
    for m in range(1, n_max + 1):
        g[m] = Fraction(1) if m == 1 else -acc[m]
        gm = g[m]
        if gm:
            for d in range(2, n_max // m + 1):
                if f[d]:
                    acc[d * m] += f[d] * gm
    return g


def log(f: list, omega: list[int]) -> list:
    """Omega(n) f_n = sum over d | n of Omega(d) L_d f_(n/d)."""
    n_max = len(f) - 1
    out = [Fraction(0)] * (n_max + 1)
    acc = [Fraction(0)] * (n_max + 1)
    for m in range(2, n_max + 1):
        out[m] = f[m] - acc[m] / omega[m]
        weighted = omega[m] * out[m]
        if weighted:
            for q in range(2, n_max // m + 1):
                if f[q]:
                    acc[m * q] += weighted * f[q]
    return out


def power_int(f: list, k: int, omega: list[int]) -> list:
    n_max = len(f) - 1
    h = [Fraction(0)] * (n_max + 1)
    acc = [Fraction(0)] * (n_max + 1)
    for m in range(1, n_max + 1):
        h[m] = Fraction(1) if m == 1 else acc[m] / omega[m]
        hm = h[m]
        if hm:
            for d in range(2, n_max // m + 1):
                if f[d]:
                    acc[d * m] += f[d] * hm * (k * omega[d] - omega[m])
    return h


def power_psi(f: list, omega: list[int]) -> list[list]:
    """f^psi with rational f: coefficient n is a list of psi coefficients."""
    n_max = len(f) - 1
    acc: list[list] = [[] for _ in range(n_max + 1)]
    h: list[list] = [[]] * (n_max + 1)
    for m in range(1, n_max + 1):
        h[m] = [Fraction(1)] if m == 1 else [c / omega[m] for c in acc[m]]
        hm = h[m]
        if not any(hm):
            continue
        for d in range(2, n_max // m + 1):
            fd = f[d]
            if not fd:
                continue
            target = acc[d * m]
            while len(target) < len(hm) + 1:
                target.append(Fraction(0))
            up, down = fd * omega[d], fd * omega[m]
            for e, c in enumerate(hm):
                if c:
                    target[e + 1] += up * c
                    target[e] -= down * c
    return h


def divisor_sums(f: list) -> list:
    """f o zeta."""
    n_max = len(f) - 1
    out = [Fraction(0)] * (n_max + 1)
    for d in range(1, n_max + 1):
        if f[d]:
            for m in range(d, n_max + 1, d):
                out[m] += f[d]
    return out


def eps(n_max: int, omega: list[int], spf: list[int]) -> list:
    """exp of the prime indicator: Omega(n) e_n = sum over primes p | n of
    e_(n/p)."""
    e = [Fraction(0)] * (n_max + 1)
    e[1] = Fraction(1)
    for n in range(2, n_max + 1):
        e[n] = sum((e[n // p] for p in factorize(n, spf)), Fraction(0)) / omega[n]
    return e


# -- polynomials -------------------------------------------------------------


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for s, e in m2:
        merged[s] = merged.get(s, 0) + e
    return tuple(sorted(merged.items()))


def add_product(acc: dict, p: dict, q: dict, scale=1) -> None:
    """acc += scale * p * q, dropping terms that cancel."""
    for m1, c1 in p.items():
        c1 = c1 * scale
        for m2, c2 in q.items():
            mono = _mono_mul(m1, m2)
            v = acc.get(mono, 0) + c1 * c2
            if v:
                acc[mono] = v
            else:
                acc.pop(mono, None)


def power_psi_symbolic(f: list, omega: list[int]) -> list[dict]:
    """f^psi with polynomial f (psi must not occur in f)."""
    n_max = len(f) - 1
    acc: list[dict] = [{} for _ in range(n_max + 1)]
    h: list[dict] = [{}] * (n_max + 1)
    for m in range(1, n_max + 1):
        h[m] = {(): Fraction(1)} if m == 1 else {k: v / omega[m] for k, v in acc[m].items()}
        if not h[m]:
            continue
        for d in range(2, n_max // m + 1):
            if f[d]:
                # times (Omega(d) psi - Omega(m))
                factor = {((PSI, 1),): Fraction(omega[d])}
                if omega[m]:
                    factor[()] = Fraction(-omega[m])
                prod: dict = {}
                add_product(prod, f[d], h[m])
                add_product(acc[d * m], prod, factor)
    return h


def rd_matrix(b: list[dict], a: list, size: int, spf: list[int], omega: list[int]) -> dict:
    """Entries of the rd matrix: column k is x^k o b o a^(log k), with
    rational a; log k = sum of m_i * L<p_i>."""
    power = power_psi(a[: size + 1], omega)
    entries: dict[tuple[int, int], dict] = {}
    for k in range(1, size + 1):
        rows = size // k
        log_k = {((f"L{p}", 1),): Fraction(m) for p, m in factorize(k, spf).items()}
        log_powers = [{(): Fraction(1)}]
        spec: list[dict] = [{}]
        for j in range(1, rows + 1):
            coeffs = power[j]
            while len(log_powers) < len(coeffs):
                nxt: dict = {}
                add_product(nxt, log_powers[-1], log_k)
                log_powers.append(nxt)
            value: dict = {}
            for e, c in enumerate(coeffs):
                if c:
                    for mono, v in log_powers[e].items():
                        t = value.get(mono, 0) + c * v
                        if t:
                            value[mono] = t
                        else:
                            value.pop(mono, None)
            spec.append(value)
        for d in range(1, rows + 1):
            if b[d]:
                for q in range(1, rows // d + 1):
                    if spec[q]:
                        add_product(entries.setdefault((d * q * k, k), {}), b[d], spec[q])
    return {key: val for key, val in entries.items() if val}


# -- the CLI's output forms -------------------------------------------------


def psi_poly(coeffs: list) -> dict:
    return {((PSI, e),) if e else (): c for e, c in enumerate(coeffs) if c}


def rational_poly(c: Fraction) -> dict:
    return {(): c} if c else {}


def series_json(coeffs: list[dict]) -> str:
    """``dirseries series`` default output for a composition series."""
    body = {str(n): poly_text(c) for n, c in enumerate(coeffs) if n and c}
    return json.dumps({"coeffs": body, "kind": "dir", "trunc": len(coeffs) - 1}, sort_keys=True) + "\n"


def series_csv(coeffs: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index", "coefficient"])
    for n in range(1, len(coeffs)):
        writer.writerow([n, poly_text(coeffs[n])])
    return out.getvalue()


def matrix_csv(entries: dict, size: int) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for n in range(1, size + 1):
        writer.writerow([poly_text(entries.get((n, k), {})) for k in range(1, size + 1)])
    return out.getvalue()
