"""Exact integer arithmetic: Pascal-triangle occurrence counts, per n and
over int64 arrays, integer roots and a deterministic Miller-Rabin
primality test.

The per-n exponent statistics (omega, the divisor count, the gcd of the
exponents, ...) are computed over whole ranges by the block sieve in `bulk`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["pascal_count", "iroot", "is_prime"]


# The first 13 primes.  As Miller-Rabin bases they decide every m below
# psi_13 = 3317044064679887385961981, the least strong pseudoprime to all
# of them (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin test with the bases 2, 3, ..., 41, exact
    below 3.3e24; InvalidArgumentError from there on."""
    if m >= _MR_LIMIT:
        raise InvalidArgumentError(
            f"primality is decided below {_MR_LIMIT} only, got {m}"
        )
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2**s, d odd
    d = (m - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """InvalidArgumentError unless `is_prime(p)`: the one message for a prime
    parameter that is not prime."""
    if not is_prime(p):
        raise InvalidArgumentError(f"p={p} is not prime")


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


# From n * 3! >= 86247**3 on, a float root one above the real one reads
# R = 86248 in column 3, whose window's last product C(86251, 3) * 86252
# reaches 2**63.  Every other column's products stay below 2**63 there.
_COUNTS_CAP = 106_925_365_231_871  # ceil(86247**3 / 3!)


def pascal_counts(n: np.ndarray) -> np.ndarray:
    """`pascal_count` of every entry of an int64 array, each n >= 2, as an
    int64 array.

    The method is `pascal_count`'s on arrays.  The k = 2 column is the int64
    square root of 8n + 1, corrected by one either way.  Column k >= 3, with
    C(2k, k) <= n, checks four rows r.  At a solution r >= 2k, put
    m = r - (k - 1)/2; then n * k! = r (r - 1) ... (r - k + 1) is the product
    of the m - t_j with t_j = j - (k - 1)/2, j < k, so sum t_j = 0 and
    sum t_j**2 = k (k**2 - 1) / 12.  By AM-GM the real k-th root
    rho = (n * k!)**(1/k) is at most m, and below it for k >= 2.  Pairing
    the factors as (m - t)(m + t) = m**2 (1 - t**2/m**2), where
    t**2/m**2 <= 1/9 as m >= (3k + 1)/2, and using log(1 - u) >= -2u for
    u <= 1/2, gives k log(rho/m) >= -k (k**2 - 1) / (12 m**2), so
    m - (k**2 - 1)/(12m) < rho < m.  The margin (k**2 - 1)/(12m) is at most
    (k**2 - 1)/(6 (3k + 1)) <= 3/2 for k <= 27, and the columns below the
    cap end at k = 24.  So r lies in (rho + (k - 1)/2, rho + (k - 1)/2 + 3/2),
    which holds just the rows F + (k - 1)//2 + 1 and + 2, F = floor(rho).
    The float64 root R is within one of F (its relative error is near 2**-52,
    and rho < 2**17 below the cap), so the rows R + (k - 1)//2 + 0..3, raised
    to 2k where below, hold every solution.  C(r, k) is an exact int64
    product for the first row and is stepped as
    C(r + 1, k) = C(r, k) * (r + 1) / (r + 1 - k).  A central hit (r = 2k)
    counts once, any other hit twice.  Raises InvalidArgumentError from
    n = 106925365231871 on, the first n at which a product could reach 2**63.
    """
    if len(n) and int(n.min()) < 2:
        raise InvalidArgumentError(f"pascal_count requires n >= 2, got {int(n.min())}")
    top = int(n.max()) if len(n) else 2
    if top >= _COUNTS_CAP:
        raise InvalidArgumentError(
            f"array Pascal counts could overflow int64 from n = {_COUNTS_CAP}, got {top}"
        )
    total = np.where(n == 2, 1, 2)
    m = 8 * n + 1
    s = np.sqrt(m).astype(np.int64)
    s -= s * s > m
    s += (s + 1) * (s + 1) <= m
    # n = C(r, 2) with r = (1 + s) / 2 >= 4, central at s = 7 (n = 6)
    total += ((s * s == m) & (s >= 7)) * np.where(s == 7, 1, 2)
    k = 3
    while math.comb(2 * k, k) <= top:  # central binomials grow with k
        idx = np.flatnonzero(n >= math.comb(2 * k, k))
        v = n[idx]
        root = (v * float(math.factorial(k))) ** (1 / k)
        r = np.maximum(root.astype(np.int64) + (k - 1) // 2, 2 * k)
        c = r.copy()
        for j in range(1, k):
            c *= r - j
            c //= j + 1
        for step in range(4):
            if step:
                c *= r + 1
                c //= r + 1 - k
                r += 1
            hit = c == v
            total[idx[hit]] += np.where(r[hit] == 2 * k, 1, 2)
        k += 1
    return total


# ---------------------------------------------------------------------------
# integer roots
# ---------------------------------------------------------------------------


_FLOAT_SEED_LIMIT = 1 << 1000  # iroot seeds larger x from their top 1000 bits


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for integers x >= 0, k >= 1, exactly."""
    if x < 0 or k < 1:
        raise InvalidArgumentError("iroot requires x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return math.isqrt(x)
    # start at or above the floor root: a float root is within 2**-43 of the
    # real one (relative), and a 2**-40 margin covers that.  Past the limit,
    # x < (m + 1) * 2**s with m = x >> s of 1000 bits, so the root is below
    # (m + 1)**(1/k) * 2**((s % k) / k) * 2**(s // k): the first two factors
    # are taken in floats, with the margin, and the product exactly
    if x < _FLOAT_SEED_LIMIT:
        r = int(x ** (1.0 / k) * (1 + 2.0**-40))
    else:
        s = x.bit_length() - 1000
        y = ((x >> s) + 1) ** (1.0 / k) * 2.0 ** (s % k / k) * (1 + 2.0**-40)
        num, den = y.as_integer_ratio()
        r = (num << s // k) // den
    # Newton steps from above never undershoot the floor root (AM-GM) and
    # strictly descend until r**k <= x, where r is the floor root
    while r**k > x:
        r = (r * (k - 1) + x // r ** (k - 1)) // k
    return r
