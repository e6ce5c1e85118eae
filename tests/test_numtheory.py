"""davlab.numtheory against brute-force oracles."""

import os
import subprocess
import sys

import pytest

import davlab
from davlab.numtheory import (
    factorint,
    floor_log,
    integer_nthroot,
    isprime,
    primerange,
    primitive_root,
    _strong_lucas_prp,
)

N = 10**5


def brute_factor(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = 1
    return factors


def brute_isprime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


@pytest.fixture(scope="module")
def small_primes():
    return [n for n in range(N) if brute_isprime(n)]


def test_isprime_small(small_primes):
    assert [n for n in range(-3, N) if isprime(n)] == small_primes


@pytest.mark.parametrize(
    "n",
    [
        2047,  # least strong pseudoprime to base 2
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # bases up to 37 (psi_9 .. psi_11)
        318665857834031151167461,  # psi_12: passes every base <= 37
        3317044064679887385961981,  # psi_13: passes every base <= 41
        561 * 1105 * 1729,
        (2**89 - 1) * (2**107 - 1),
        (2**127 - 1) ** 2,
        2**67 - 1,
    ],
)
def test_isprime_composites(n):
    assert not isprime(n)


@pytest.mark.parametrize("e", [2, 3, 5, 7, 13, 31, 61, 89, 107, 127, 521])
def test_isprime_mersenne_primes(e):
    assert isprime(2**e - 1)


def test_strong_lucas_matches_known_pseudoprimes():
    # strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255)
    pseudo = {5459, 5777, 10877, 16109, 18971}
    got = [n for n in range(101, 20000, 2) if _strong_lucas_prp(n) and not brute_isprime(n)]
    assert set(got) == pseudo
    assert all(_strong_lucas_prp(p) for p in range(101, 20000, 2) if brute_isprime(p))


def test_factorint():
    assert factorint(1) == {}
    for n in range(2, N):
        f = factorint(n)
        assert f == brute_factor(n)
        assert list(f) == sorted(f)
    with pytest.raises(ValueError):
        factorint(0)


def test_primerange(small_primes):
    assert list(primerange(0, N)) == small_primes
    for a, b in [(0, 0), (0, 2), (2, 3), (3, 3), (3, 24), (11, 200), (7919, 7920), (50, 10)]:
        assert list(primerange(a, b)) == [p for p in small_primes if a <= p < b]


def test_integer_nthroot():
    for k in range(1, 7):
        r = 0
        for y in range(N):
            while (r + 1) ** k <= y:
                r += 1
            assert integer_nthroot(y, k) == (r, r**k == y)
    big = (2**127 - 1) ** 3
    assert integer_nthroot(big, 3) == (2**127 - 1, True)
    assert integer_nthroot(big - 1, 3) == (2**127 - 2, False)
    with pytest.raises(ValueError):
        integer_nthroot(-1, 2)
    with pytest.raises(ValueError):
        integer_nthroot(8, 0)


def test_primitive_root(small_primes):
    assert primitive_root(2) == 1
    for p in small_primes:
        if p > 10**4:
            break
        if p == 2:
            continue
        g = 2
        while True:  # least g whose powers reach p - 1 residues before 1
            y, order = g, 1
            while y != 1:
                y = y * g % p
                order += 1
            if order == p - 1:
                break
            g += 1
        assert primitive_root(p) == g, p
    with pytest.raises(ValueError):
        primitive_root(9)


def test_floor_log():
    for base in range(2, 8):
        for n in range(1, 2000):
            t = floor_log(base, n)
            assert base**t <= n < base ** (t + 1)


def test_cli_import_leaves_sympy_out():
    code = "import sys, davlab.cli; print('sympy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(davlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
