"""Prime-power sizes, Gaussian binomials, Cauchy products, partition counts.

Everything returns exact integers; the iterative Gaussian-binomial product
uses stepwise exact division (each prefix is itself a Gaussian binomial).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import SchemaError


#: Miller-Rabin bases; together they decide primality exactly below 3.3e24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over :data:`_WITNESSES` (a strong probable-prime test above 3.3e24)."""
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(q: int, e: int) -> int:
    """floor(q^(1/e)) by Newton's iteration from above."""
    x = 1 << -(-q.bit_length() // e)
    while True:
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=None)
def prime_power_factors(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e for a prime p, or None when q is not a prime power."""
    if q < 2:
        return None
    for e in range(q.bit_length() - 1, 0, -1):
        p = _integer_root(q, e)
        if p**e == q and _is_prime(p):
            return p, e
    return None


def gaussian_binomial(m: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^m."""
    if q < 2:
        raise SchemaError(f"q must be >= 2, got {q}")
    if m < 0:
        raise SchemaError(f"ambient dimension must be >= 0, got {m}")
    if d < 0 or d > m:
        return 0
    d = min(d, m - d)
    out = 1
    for i in range(d):
        out = out * (q ** (m - i) - 1) // (q ** (i + 1) - 1)
    return out


def cauchy_poly(m: int, q: int) -> list[int]:
    """Coefficients (low to high) of prod_{j=0}^{m-1} (1 - q^j z).

    By the Cauchy binomial theorem the degree-d coefficient equals
    gaussian_binomial(m, d, q) * (-1)^d q^C(d,2), the latter being the Moebius
    value of a d-step interval in the subspace lattice.
    """
    if m < 0:
        raise SchemaError(f"m must be >= 0, got {m}")
    coeffs = [1]
    for j in range(m):
        scale = q**j
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c
            nxt[k + 1] -= scale * c
        coeffs = nxt
    return coeffs


@lru_cache(maxsize=None)
def _partitions_max_at_most(n: int, cap: int) -> int:
    """Partitions of n into parts of size <= cap."""
    if n == 0:
        return 1
    if n < 0 or cap == 0:
        return 0
    return _partitions_max_at_most(n - cap, cap) + _partitions_max_at_most(n, cap - 1)


def partition_count(i: int, j: int) -> int:
    """Partitions of i whose greatest part is exactly j."""
    if i < 0 or j < 0:
        raise SchemaError(f"partition arguments must be >= 0, got ({i}, {j})")
    if i == 0 and j == 0:
        return 1
    if j < 1 or j > i:
        return 0
    return _partitions_max_at_most(i - j, j)
