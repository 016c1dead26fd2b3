"""Exact integer arithmetic: Pascal-triangle occurrence counts, integer
roots and a trial-division primality test.

The per-n exponent statistics (omega, the divisor count, the gcd of the
exponents, ...) are computed over whole ranges by the block sieve in `bulk`.
"""

from __future__ import annotations

import math

from .errors import InvalidArgumentError

__all__ = ["pascal_count", "iroot", "is_prime"]


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
