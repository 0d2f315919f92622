"""Golden digests: the stdout sha256 of representative CLI commands, run in
process through ``cli.main``.  The CLI's output is canonical text, so a
refactor that must leave it byte-identical leaves every digest here
unchanged.  The commands cover every ``matrix --kind`` (``rd`` and
``riordan`` also on small symbolic series files written by the test), the
Lagrange families with symbolic and rational beta, the inverse on its
rational and symbolic paths, ``bell`` tables of both families, numeric
and symbolic, the composition power, logarithm, product and lift of those
files, the power, logarithm and exponential of rational series on their
scaled-integer path, the integer composition power of rational series
on both sides of the denominator guard and their product, the
``thm2``, ``thm3``, ``abel`` and ``log`` verify suites, and, at sizes where
each result pools its monomials over many indices, the symbolic Lagrange
families, a symbolic factorization table and the ``rd`` matrix and
parametric power of a symbolic file, and numeric results whose equal
values are shared: the exponential of all ones, the parametric power of
a file of repeated values, an inverse whose lead is 2 and the logarithm of
a 3000-index rational file.

To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and copy each printed
digest into ``GOLDEN``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from dirseries.cli import main

# small series files for load(): composition series b (lead 2) and a
# (lead 1), ordinary series c (constant term 1) and d (zero constant term),
# the rational composition series r (lead 1, some zeros) and its
# continuation q to index 3000, the rational composition series h (lead
# 2) and p (lead 1, a value per number of prime factors), the ordinary
# series x and the symbolic composition series s (lead 1)
RATIONAL = {1: Fraction(1)} | {n: Fraction((7 * n) % 11 - 5, n % 4 + 1) for n in range(2, 3001)}


def prime_factor_count(n: int) -> int:
    """The number of prime factors of n, with multiplicity."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n, count = n // p, count + 1
        p += 1
    return count + (n > 1)


def symbolic_coeffs(trunc: int, seed: str) -> dict[str, str]:
    """Coefficient texts 1..trunc: 1 at index 1, elsewhere up to three
    terms in phi, beta and L2 with exponents 0..2, as in the benchmark's
    symbolic input; equal monomials recur across the indices."""
    rng = random.Random(seed)
    coeffs = {"1": "1"}
    for n in range(2, trunc + 1):
        terms = [
            f"{rng.choice('+-')} {rng.randint(1, 4)}/{rng.randint(1, 3)}"
            f"*phi^{rng.randint(0, 2)}*beta^{rng.randint(0, 2)}*L2^{rng.randint(0, 2)}"
            for _ in range(rng.randint(0, 3))
        ]
        if terms:
            coeffs[str(n)] = "0 " + " ".join(terms)
    return coeffs


SERIES_FILES = {
    "b": {"kind": "dir", "trunc": 12, "coeffs": {
        "1": "2", "2": "a1", "3": "a2 + 1/3", "4": "a1^2 - 1", "5": "-a3",
        "6": "L2*a2", "8": "1/2", "9": "a1*a3", "12": "a4"}},
    "a": {"kind": "dir", "trunc": 12, "coeffs": {
        "1": "1", "2": "a5", "3": "-1/2", "4": "a6", "6": "a5*a6", "7": "3",
        "10": "a5^2"}},
    "c": {"kind": "ord", "trunc": 6, "coeffs": {
        "0": "1", "1": "a1", "2": "a2", "3": "1/2", "5": "-a1*a2"}},
    "d": {"kind": "ord", "trunc": 6, "coeffs": {
        "1": "1", "2": "a3", "3": "-a1", "4": "2/3"}},
    "r": {"kind": "dir", "trunc": 200, "coeffs": {
        str(n): str(v) for n, v in RATIONAL.items() if v and n <= 200}},
    "q": {"kind": "dir", "trunc": 3000, "coeffs": {
        str(n): str(v) for n, v in RATIONAL.items() if v}},
    "h": {"kind": "dir", "trunc": 1000, "coeffs": {"1": "2"} | {
        str(n): str(v) for n, v in RATIONAL.items() if v and 1 < n <= 1000}},
    "p": {"kind": "dir", "trunc": 2000, "coeffs": {"1": "1"} | {
        str(n): str(Fraction((-1) ** n, prime_factor_count(n) + 1)) for n in range(2, 2001)}},
    "x": {"kind": "ord", "trunc": 60, "coeffs": {"1": "1"}},
    "s": {"kind": "dir", "trunc": 200, "coeffs": symbolic_coeffs(200, "golden-symbolic")},
}

# (argv, sha256 of stdout); every command exits 0, and {b}, {a}, {c}, {d},
# {r}, {q}, {h}, {p}, {x}, {s} stand for load() of the files above
GOLDEN = {
    "matrix-mult-csv": (
        ["matrix", "--kind", "mult", "-e", "eps", "-N", "16", "--csv"],
        "c4eb54e2af9612882334d72fdcd116b07ad71594a84fe14bbaae5a885c405ee5",
    ),
    "matrix-mult-symbolic-json": (
        ["matrix", "--kind", "mult", "-e", "{b}", "-N", "12", "--json"],
        "dead1b3bc5506a0bfeaa6892a5036d844d4a99e54405d5f3c9e14f58397232c9",
    ),
    "matrix-column-json": (
        ["matrix", "--kind", "column", "-e", "geom2", "-N", "32", "--json"],
        "bef5e6630e8c496616230a015a42d4fe65079ced9d6de862c0d59aabf19acad8",
    ),
    "matrix-rd-json": (
        ["matrix", "--kind", "rd", "-e", "zeta", "-e2", "eps", "-N", "24", "--json"],
        "854c181735e774fbb5432a78ae3d3b00981a2eb6758cab8b1006e5de798bdf90",
    ),
    "matrix-rd-symbolic-csv": (
        ["matrix", "--kind", "rd", "-e", "{b}", "-e2", "{a}", "-N", "12", "--csv"],
        "67ac2919c55581f75d71082fda9c8b8896bfb4ce6f224cee76144c123be2a471",
    ),
    "matrix-riordan-json": (
        ["matrix", "--kind", "riordan", "-e", "expx", "-e2", "{d}", "-N", "6", "--json"],
        "cedf74deb90359b2290bd1e3132600cc4e5b0f8a74253ff065b411a7a9b08b64",
    ),
    "matrix-rd-csv": (
        ["matrix", "--kind", "rd", "-e", "zeta", "-e2", "eps", "-N", "60", "--csv"],
        "3aa52765bcd8e1783bd533e9372dcc17ffd7f49f0acac7c35d5d010edf4023e7",
    ),
    "matrix-riordan-sparse": (
        ["matrix", "--kind", "riordan", "-e", "onepx", "-e2", "{x}", "-N", "60"],
        "5b70a864fa1ae7ce679c2fbd405fab4596f5b4b43f8b0473c57f839d66b64dcb",
    ),
    "matrix-riordan-symbolic-csv": (
        ["matrix", "--kind", "riordan", "-e", "{c}", "-e2", "{d}", "-N", "6", "--csv"],
        "88419d5cc257d7a319e3fef1f1af7e8eda9331eb81f2d8c33a1359257f3adafe",
    ),
    "lagrange-dir-beta": (
        ["series", "-e", "lagrange_dir(eps,beta)", "-N", "24"],
        "eb431fe37e15f2b2b71a91a33d02c5ab22f3f31fe9399e7ba80053228bbd428d",
    ),
    "lagrange-dir-rational": (
        ["series", "-e", "lagrange_dir(zeta,-1/2)", "-N", "24"],
        "f1f13e2f11f6a53029de9aee5f14e1d4e5b2ba220b6799ea53c2439e6234fd67",
    ),
    "lagrange-ord-beta": (
        ["series", "-e", "lagrange_ord(onepx,beta)", "-N", "8"],
        "c53d7cb77f9834807e356f6b4cd9a97d50c87880ecb5ab189cff7f4d1a212833",
    ),
    "lagrange-ord-rational": (
        ["series", "-e", "lagrange_ord(expx,2/3)", "-N", "8"],
        "5468c7cf26a629def20dfaa64cbcbb803bebdf2b3d91dd9d3b3ad0c4910051bf",
    ),
    "dinv-past-the-guard": (
        ["series", "-e", "dinv(twist(zeta,-3))", "-N", "64"],
        "45fc3bcc823c77ba0c30d732dda0a08bd6dcd76a85e54adcca690560b56f21ce",
    ),
    "dinv-symbolic": (
        ["series", "-e", "dinv({b})", "-N", "12", "--csv"],
        "98b48bcee7c5de50a19f067d6ba7bbef8e89c052e2ff8ccd84605607774cd1f0",
    ),
    "verify-thm2": (
        ["verify", "--suite", "thm2", "-N", "12"],
        "52162c2df6b77b672cdf156a5c0c400a89eab2774557ff900ca93a967c10327f",
    ),
    "verify-thm3": (
        ["verify", "--suite", "thm3", "-N", "12"],
        "ace531ff492fc84c42d7046589751b9b87e06d6c395babd70aa0bc97bfac82e6",
    ),
    "bell-numeric": (
        ["bell", "-N", "60", "-M", "6"],
        "30c688cb7f60a5ec0f27647257502fe64a202f5b0b9db06cba6913354d383e1f",
    ),
    "bell-symbolic": (
        ["bell", "-N", "14", "-M", "5", "--symbolic"],
        "960a57e5a7426a6369bc7fcb8e347666ad0ec19abe83c11f49e7e6fd4907bc36",
    ),
    "bell-tilde-numeric": (
        ["bell", "--tilde", "-N", "300", "-M", "6"],
        "92eb5757f7b0caa2f88817f5ec630c648d0ebaef046a3ad272b9e90ddb00d818",
    ),
    "bell-tilde-symbolic": (
        ["bell", "--tilde", "-N", "96", "-M", "5", "--symbolic"],
        "4af6659bd476c545ccee44b4d85384bfb159b8f2e0b34ac2c353b6619cc87027",
    ),
    "dpow-param-symbolic": (
        ["series", "-e", "dpow_param({a})", "-N", "12"],
        "ec4d6a9deba5fb5e9f1ee361e0e50470cf4e9e940691c2c0c01ddc5e42a06371",
    ),
    "dlog-symbolic": (
        ["series", "-e", "dlog({a})", "-N", "12", "--csv"],
        "60c18efbecfd68e2b826262157c70669a7fbabbf6a8c177ceef575b431132329",
    ),
    "dmul-symbolic": (
        ["series", "-e", "dmul({b},{a})", "-N", "12"],
        "3144ec7b6239a0c1147fe8916fcd3083f783fce6cf63605e8c044a499fc5dd74",
    ),
    "lift-symbolic": (
        ["series", "-e", "lift({c})", "-N", "64"],
        "438642c2f194a6ebeebf335777e28691d0a1f157f342ba87e3c52e38f2345f42",
    ),
    "verify-abel": (
        ["verify", "--suite", "abel", "-N", "64"],
        "2c240be54573d38963001cbdc8c44addb312b2d3085f18d08efd893c3c2496a8",
    ),
    "dpow-param-rational-csv": (
        ["series", "-e", "dpow_param({r})", "-N", "200", "--csv"],
        "33776f27f2d9c08277aebf60dab5e1e72111d53d89fd4799dab74a5ba7170575",
    ),
    "dlog-rational": (
        ["series", "-e", "dlog({r})", "-N", "200"],
        "8a6b33d3ce461f7a47594c96bc74917c2a9ae57be9a22ea4eff36fc023254cf9",
    ),
    "dexp-geom2": (
        ["series", "-e", "dexp(geom2)", "-N", "512"],
        "159f845af08d675ededff2585c140c462f189ccc2e5ac4fcf6b0ea1a5b0154cc",
    ),
    # r has common denominator d = 12: its powers up to 16 run in scaled
    # integers, and 12^20 (72 bits) is past the guard; the inverse of r has
    # a 20-bit denominator, so its cube is scaled too
    "dpow-int-rational-4": (
        ["series", "-e", "dpow_int({r},4)", "-N", "200"],
        "cbc9df02be378a151ab03a98a13476aed4adda34fcced36ae4364fa05d97e813",
    ),
    "dpow-int-rational-7": (
        ["series", "-e", "dpow_int({r},7)", "-N", "200"],
        "f42daa53f5e309b7b0681fd3b660ee5a676c80a41ed3ac36ed363dac88dd694d",
    ),
    "dpow-int-rational-negative-3": (
        ["series", "-e", "dpow_int({r},-3)", "-N", "200"],
        "c43015d97f1a69625a08af4a841efbaf662e3de91abd1f41b49406c705892245",
    ),
    "dpow-int-rational-20": (
        ["series", "-e", "dpow_int({r},20)", "-N", "200"],
        "ac87fe9cdc43a709397610602958585b6b3811f38ba86c2b4d057864b6d4ad3d",
    ),
    "dmul-rational-zeta": (
        ["series", "-e", "dmul({r},zeta)", "-N", "200"],
        "ac8d41ac7a14d9922765a003dafae5065a3a4dd42d885e4bf8048baaecb50dfd",
    ),
    # the common denominator of 1/n^3 passes 64 bits by N = 64
    "dpow-int-twist": (
        ["series", "-e", "dpow_int(twist(zeta,-3),3)", "-N", "64"],
        "e196eb53dea58dce9fe76e3519f5cbd8bcd0389dd8c82973266a0e23740b64ff",
    ),
    "verify-log": (
        ["verify", "--suite", "log"],
        "639b072a95e1e09f57f4021cd76f9394f2fe98827ffb5fd6ca17322604c7eaa7",
    ),
    # results whose monomials are pooled and whose products are gathered
    # over many indices
    "lagrange-dir-beta-300": (
        ["series", "-e", "lagrange_dir(eps,beta)", "-N", "300"],
        "dfe20c8274f90db0f2e13ebb93f1ec75a02f1c1843d8dcdf03646a1ab967b469",
    ),
    "lagrange-ord-beta-20": (
        ["series", "-e", "lagrange_ord(onepx,beta)", "-N", "20"],
        "bcbffd07fd7b5bd17d5f95349d81e7c3378338852eabebda65779826cc80b0bc",
    ),
    "bell-tilde-symbolic-400": (
        ["bell", "--tilde", "-N", "400", "-M", "5", "--symbolic"],
        "29d7f2bd3d7ae381f078bba6771c3c6041247053193e2a648fc2d4cea125324c",
    ),
    "matrix-rd-symbolic-60": (
        ["matrix", "--kind", "rd", "-e", "{s}", "-e2", "eps", "-N", "60"],
        "a80802306325d9013ccbab25bd65b3f9b6b83837839f99d63c24ac3d4d8a28c9",
    ),
    "dpow-param-symbolic-200": (
        ["series", "-e", "dpow_param({s})", "-N", "200"],
        "75942b375534e3a938840019f903fdc4fe10411550dbee69ca2f10e3f914bc05",
    ),
    # numeric results whose equal values are shared: the exponential of
    # all ones, the parametric power of repeated values, the inverse with
    # denominators 2^(s(n)+1) and the logarithm of the rational series
    "dexp-geom2-2000": (
        ["series", "-e", "dexp(geom2)", "-N", "2000"],
        "58b28453b22b12f16ade3e088fa0a5dd4c05acfec27b6872276b3aa7a3bb687c",
    ),
    "dpow-param-repeated-csv": (
        ["series", "-e", "dpow_param({p})", "-N", "2000", "--csv"],
        "d614d2013f2aa53b48d787773a5cd6214e9cc15e8f6f97549a5ee6327469b43e",
    ),
    "dinv-rational-lead-2": (
        ["series", "-e", "dinv({h})", "-N", "1000"],
        "c7ffd5809cadeadfa8eef0b5f1ef6d49717588244c0224322625f02c1c51d300",
    ),
    "dlog-rational-3000": (
        ["series", "-e", "dlog({q})", "-N", "3000"],
        "a6e5871c7aa1415fb9b9c222f558e545dca6775caa451d3b84387b969b39db6d",
    ),
}


def write_series_files(directory: Path) -> dict[str, str]:
    """Write the series files and return the load() expression of each."""
    loads = {}
    for name, obj in SERIES_FILES.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(obj))
        loads[name] = f'load("{path}")'
    return loads


def stdout_digest(argv: list[str], loads: dict[str, str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.format(**loads) for arg in argv])
    assert code == 0, f"exit {code}"
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def loads(tmp_path_factory):
    return write_series_files(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", GOLDEN)
def test_stdout_digest(name, loads):
    argv, want = GOLDEN[name]
    assert stdout_digest(argv, loads) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = write_series_files(Path(tmp))
        for key, (args, _) in GOLDEN.items():
            print(f"{key}: {stdout_digest(args, files)}")
