"""Integer number theory on the standard library alone.

Primality, factoring, integer roots, prime ranges and primitive roots for
the small integers davlab works with (group orders up to the order limit,
moduli of weight sets).  Each function returns what the sympy function of
the same name returns on these inputs; ``isprime`` stays exact on integers
of any size.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

# The 13 primes <= 41: strong probable prime to all of them is proof of
# primality below psi_13 (Jiang and Deng, Math. Comp. 83, 2014).  Twelve
# bases are not enough: 318665857834031151167461 passes every base <= 37.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


def isprime(n: int) -> bool:
    """Whether n is prime; exact for every integer.

    Trial division by the primes <= 41, then the strong Miller-Rabin test to
    those bases, which decides every n < psi_13.  Above it a strong Lucas
    test follows, so the test includes Baillie-PSW, which has no known
    counterexample.
    """
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI13 or _strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, odd n."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_k, V_k, Q^k mod n by binary expansion of d, with P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U & 1 else U) >> 1
            V = (V + n if V & 1 else V) >> 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _trial_divisors() -> Iterator[int]:
    """2, 3, then every 6j - 1 and 6j + 1."""
    yield 2
    yield 3
    d = 5
    while True:
        yield d
        yield d + 2
        d += 6


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, keyed in ascending prime order."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    for d in _trial_divisors():
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors[d] = e
    if n > 1:
        factors[n] = 1
    return factors


def primerange(a: int, b: int) -> Iterator[int]:
    """The primes p with a <= p < b, ascending (a sieve up to b)."""
    if b <= 2:
        return iter(())
    sieve = bytearray([1]) * b
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(b - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, b, i)))
    return (p for p in range(max(a, 2), b) if sieve[p])


def integer_nthroot(y: int, n: int) -> tuple[int, bool]:
    """(floor(y^(1/n)), whether the root is exact) for y >= 0, n >= 1."""
    if y < 0:
        raise ValueError(f"y must be nonnegative, got {y}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1 or y < 2:
        return y, True
    if n == 2:
        x = isqrt(y)
    else:
        # Newton's iteration falls monotonically from any start above the root
        x = 1 << -(-y.bit_length() // n)
        while True:
            t = ((n - 1) * x + y // x ** (n - 1)) // n
            if t >= x:
                break
            x = t
    return x, x**n == y


def primitive_root(p: int) -> int:
    """The smallest primitive root modulo the prime p (1 for p = 2)."""
    if not isprime(p):
        raise ValueError(f"primitive_root needs a prime, got {p}")
    if p == 2:
        return 1
    qs = list(factorint(p - 1))
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g


def floor_log(base: int, n: int) -> int:
    """floor(log_base n) for base >= 2 and n >= 1, in exact integers."""
    t = 0
    v = base
    while v <= n:
        v *= base
        t += 1
    return t
