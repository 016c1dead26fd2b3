"""Arithmetic functions of a positive integer, backed by a smallest-prime-factor sieve.

The sieve (`build_factor_table`) is built once and shared; everything else is
a cheap query against it or pure integer arithmetic.  Exponent-statistics
(minimum/maximum exponent, number of prime factors), the divisor-product
logarithms, power-representation counts and Pascal-triangle occurrence counts
all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AllocationError, InvalidArgumentError, OutOfRangeError

__all__ = [
    "FactorTable",
    "Factorization",
    "PowerRep",
    "GammaTau",
    "build_factor_table",
    "factorize",
    "omega",
    "big_omega",
    "h_min",
    "h_max",
    "a_p",
    "divisor_count",
    "log_f",
    "log_f_star",
    "gamma_tau",
    "pascal_count",
    "iroot",
    "is_prime",
]


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorTable:
    """Smallest-prime-factor table for every n in [0, limit].

    Attributes
    ----------
    limit : int
        Largest index covered by the table.
    spf : np.ndarray
        ``spf[n]`` is the smallest prime factor of n for n >= 2; ``spf[p] == p``
        exactly when p is prime.  ``spf[0] == 0`` and ``spf[1] == 1`` are
        sentinels.
    """

    limit: int
    spf: np.ndarray

    def is_prime(self, n: int) -> bool:
        if not 0 <= n <= self.limit:
            raise OutOfRangeError(f"n={n} outside table range [0, {self.limit}]")
        return n >= 2 and int(self.spf[n]) == n

    def primes_upto(self, bound: int) -> np.ndarray:
        """All primes <= bound (bound must be within the table)."""
        if bound > self.limit:
            raise OutOfRangeError(f"bound={bound} exceeds table limit {self.limit}")
        bound = max(bound, 1)
        idx = np.arange(bound + 1, dtype=self.spf.dtype)
        mask = self.spf[: bound + 1] == idx
        mask[:2] = False
        return np.flatnonzero(mask).astype(np.int64)


def build_factor_table(limit: int) -> FactorTable:
    """Sieve smallest prime factors for every integer up to `limit`.

    Ascending primes are written into still-unassigned slots, so each
    composite ends up holding its *smallest* prime factor; surviving zeros
    are primes.  All inner loops are numpy slice operations.

    Parameters
    ----------
    limit : int
        Inclusive upper bound, at least 2.  Memory is 4 bytes per integer
        up to 2**31 (8 beyond); 1e8 needs ~400 MB and a few seconds.

    Raises
    ------
    InvalidArgumentError
        If ``limit < 2``.
    AllocationError
        If the array cannot be allocated (carries the byte count).
    """
    if limit < 2:
        raise InvalidArgumentError(f"limit must be >= 2, got {limit}")
    dtype = np.int32 if limit < 2**31 else np.int64
    try:
        spf = np.zeros(limit + 1, dtype=dtype)
    except MemoryError:
        raise AllocationError((limit + 1) * np.dtype(dtype).itemsize) from None
    spf[1] = 1
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p] = p
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest.astype(dtype)
    return FactorTable(limit=limit, spf=spf)


# ---------------------------------------------------------------------------
# factorization and exponent statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Prime factorization ``n = prod(p**e)`` with factors sorted by p."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.factors)


def factorize(n: int, table: FactorTable) -> Factorization:
    """Factor n by repeated division by its smallest prime factor.

    O(log n) table lookups.  ``factorize(1)`` returns an empty factor list.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    factors: list[tuple[int, int]] = []
    m = n
    spf = table.spf
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    return Factorization(n=n, factors=tuple(factors))


def omega(f: Factorization) -> int:
    """Number of distinct prime factors (0 for n = 1)."""
    return len(f.factors)


def big_omega(f: Factorization) -> int:
    """Number of prime factors counted with multiplicity (0 for n = 1)."""
    return sum(f.exponents())


def h_min(f: Factorization) -> int:
    """Minimum exponent in the factorization; 1 for n = 1 by convention."""
    if f.n == 1:
        return 1
    return min(f.exponents())


def h_max(f: Factorization) -> int:
    """Maximum exponent in the factorization; 1 for n = 1 by convention."""
    if f.n == 1:
        return 1
    return max(f.exponents())


def is_prime(m: int) -> bool:
    """Deterministic trial-division primality test for small m."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def a_p(n: int, p: int) -> int:
    """Exponent of the prime p in n (the p-adic valuation); 0 for n = 1."""
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    if not is_prime(p):
        raise InvalidArgumentError(f"p={p} is not prime")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


# ---------------------------------------------------------------------------
# divisor-product logarithms
# ---------------------------------------------------------------------------


def divisor_count(f: Factorization) -> int:
    """Number of divisors, prod(e + 1)."""
    d = 1
    for _, e in f.factors:
        d *= e + 1
    return d


def log_f(f: Factorization) -> float:
    """log of the product of all divisors of n: (d(n)/2) * log n.

    The product itself overflows for modest n, so only the logarithm is
    exposed.  Returns 0.0 for n = 1.
    """
    if f.n == 1:
        return 0.0
    return 0.5 * divisor_count(f) * math.log(f.n)


def log_f_star(f: Factorization) -> float:
    """log of (product of divisors of n) / n.  Returns 0.0 for n = 1."""
    if f.n == 1:
        return 0.0
    return log_f(f) - math.log(f.n)


# ---------------------------------------------------------------------------
# power representations
# ---------------------------------------------------------------------------


class PowerRep(NamedTuple):
    base: int
    exponent: int


class GammaTau(NamedTuple):
    gamma: int
    tau: int
    reps: tuple[PowerRep, ...]


def gamma_tau(f: Factorization) -> GammaTau:
    """Count the representations n = a**b (a, b >= 1).

    Let e = gcd of the exponents in n's factorization.  The representations
    correspond exactly to the divisors d of e via a = n**(1/d), so gamma(n)
    is the number of divisors of e and tau(n) their sum.  Exact bases are
    reconstructed from the factorization (no floating point).

    Undefined for n = 1 (every power of 1 is a representation).
    """
    if f.n == 1:
        raise InvalidArgumentError("gamma/tau are undefined for n = 1")
    e = 0
    for _, a in f.factors:
        e = math.gcd(e, a)
    reps = []
    for d in range(1, e + 1):
        if e % d == 0:
            base = 1
            for p, a in f.factors:
                base *= p ** (a // d)
            reps.append(PowerRep(base, d))
    return GammaTau(gamma=len(reps), tau=sum(r.exponent for r in reps), reps=tuple(reps))


# ---------------------------------------------------------------------------
# Pascal-triangle occurrence counts
# ---------------------------------------------------------------------------


def pascal_count(n: int) -> int:
    """Number of occurrences of n in Pascal's triangle.

    Every n >= 3 appears as C(n,1) and C(n,n-1) (n = 2 only once, since
    those coincide).  Interior occurrences C(r,k) = n with 2 <= k <= r-2
    are found per column k while C(2k,k) <= n, with r >= 2k so that each
    symmetric pair {k, r-k} is counted exactly once.  The k = 2
    column is solved in closed form, r = (1 + isqrt(8n + 1)) / 2.  Every
    other column is a binary search over the k values of r from
    R = iroot(n * k!, k) to R + k - 1, since (r-k+1)**k / k! <= C(r,k)
    <= r**k / k!, so every C(r,k) evaluated stays near n.  A central hit
    (r = 2k) counts once, any other hit twice.  Exact integer arithmetic
    throughout.
    """
    if n < 2:
        raise InvalidArgumentError(f"pascal_count requires n >= 2, got {n}")
    total = 1 if n == 2 else 2
    s = math.isqrt(8 * n + 1)
    if s * s == 8 * n + 1 and s >= 7:  # n = C(r, 2) with r = (1 + s) / 2 >= 4
        total += 1 if s == 7 else 2
    k = 3
    while math.comb(2 * k, k) <= n:  # central binomials grow with k
        root = iroot(n * math.factorial(k), k)
        lo, hi = max(2 * k, root), k - 1 + root
        while lo <= hi:
            mid = (lo + hi) // 2
            v = math.comb(mid, k)
            if v == n:
                total += 1 if mid == 2 * k else 2
                break
            if v < n:
                lo = mid + 1
            else:
                hi = mid - 1
        k += 1
    return total


# ---------------------------------------------------------------------------
# integer roots
# ---------------------------------------------------------------------------


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for integers x >= 0, k >= 1, exactly."""
    if x < 0 or k < 1:
        raise InvalidArgumentError("iroot requires x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return math.isqrt(x)
    # start at or above the floor root: the float root is within 2**-44 of
    # the root (relative), so a 2**-40 margin covers it; past float range,
    # a power of two
    try:
        r = int(x ** (1.0 / k) * (1 + 2.0**-40))
    except OverflowError:
        r = 1 << -(-x.bit_length() // k)
    # Newton steps from above never undershoot the floor root (AM-GM) and
    # strictly descend until r**k <= x, where r is the floor root
    while r**k > x:
        r = (r * (k - 1) + x // r ** (k - 1)) // k
    return r
