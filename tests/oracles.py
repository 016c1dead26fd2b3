"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written the slow, obvious way, without
importing the package under test: boolean sieve, trial division, explicit
enumerations, and high-precision floating point via mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath


def primes_upto(n: int) -> list[int]:
    """Plain boolean sieve of Eratosthenes."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def trial_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def power_reps(n: int) -> list[tuple[int, int]]:
    """All (a, b) with a**b == n, a >= 1, b >= 1 — brute force."""
    reps = [(n, 1)]
    a = 2
    while a * a <= n:
        v = a * a
        b = 2
        while v <= n:
            if v == n:
                reps.append((a, b))
            v *= a
            b += 1
        a += 1
    return sorted(reps, key=lambda t: t[1])


def power_exponent(n: int) -> int:
    """Largest k with n == m**k for an integer m (the gcd of n's exponents),
    by integer bisection for each k; fast for n of any size."""
    best = 1
    for k in range(2, n.bit_length() + 1):
        lo, hi = 1, 1 << (n.bit_length() // k + 1)
        while lo < hi:  # greatest m with m**k <= n
            mid = (lo + hi + 1) // 2
            if mid**k <= n:
                lo = mid
            else:
                hi = mid - 1
        if lo**k == n:
            best = k
    return best


def perfect_powers_upto(x: int) -> list[int]:
    found = set()
    a = 2
    while a * a <= x:
        v = a * a
        while v <= x:
            found.add(v)
            v *= a
        a += 1
    return sorted(found)


def pascal_rowscan(limit: int) -> dict[int, int]:
    """Occurrence counts of every n <= limit in Pascal's triangle.

    Walks each row's interior positions (2 <= k <= r-2) while values stay
    under the limit, then adds the two boundary occurrences C(n,1) and
    C(n,n-1) (one occurrence for n = 2, where they coincide).
    """
    interior: dict[int, int] = {}
    r = 4
    while r * (r - 1) // 2 <= limit:
        for k in range(2, r // 2 + 1):
            v = math.comb(r, k)
            if v > limit:
                break
            interior[v] = interior.get(v, 0) + (1 if 2 * k == r else 2)
        r += 1
    counts = {n: (1 if n == 2 else 2) + interior.get(n, 0) for n in range(2, limit + 1)}
    return counts


def smooth_upto(primes: list[int], x: int) -> list[int]:
    """All products of powers of the given primes, <= x (including 1)."""
    values = [1]
    for p in primes:
        grown = []
        for v in values:
            w = v * p
            while w <= x:
                grown.append(w)
                w *= p
        values.extend(grown)
    return sorted(values)


def power_term(n: int, s: float) -> int:
    """floor(n**(1/s)) for rational s: mpmath seed, exact integer adjustment.

    Floating point alone misfloors exact powers (8**(4/3) = 16 can evaluate
    to 15.999...); the defining inequality a**num <= n**den < (a+1)**num is
    checked in exact integer arithmetic to settle every boundary.
    """
    frac = Fraction(s).limit_denominator(1000)
    num, den = frac.numerator, frac.denominator
    with mpmath.workdps(50):
        a = int(mpmath.floor(mpmath.power(n, mpmath.mpf(den) / num)))
    while (a + 1) ** num <= n**den:
        a += 1
    while a > 1 and a**num > n**den:
        a -= 1
    return a


def logpower_term(n: int, q: float) -> int:
    """floor(n**(1/q) * log(n+1)**(2/q)) + 1 at 50 significant digits."""
    with mpmath.workdps(50):
        qm = mpmath.mpf(q)
        v = mpmath.power(n, 1 / qm) * mpmath.power(mpmath.log(n + 1), 2 / qm)
        return int(mpmath.floor(v)) + 1


def pascal_occurrences(n: int) -> int:
    """Occurrences of n >= 2 in Pascal's triangle: C(n, 1) and C(n, n-1),
    plus a walk down each column k >= 2 while C(2k, k) <= n."""
    total = 1 if n == 2 else 2
    k = 2
    while math.comb(2 * k, k) <= n:
        r = 2 * k
        while math.comb(r, k) < n:
            r += 1
        if math.comb(r, k) == n:
            total += 1 if r == 2 * k else 2
        k += 1
    return total


def sequence_value(spec, n: int) -> float:
    """x_n of a sequence spec (read for its key, p and start_n) at one n, by
    trial division, with the float expressions of the package's sequences."""
    if n < spec.start_n:
        raise ValueError(f"{spec.key} is defined for n >= {spec.start_n}, got {n}")
    key = spec.key
    if key == "pascal_count":
        return float(pascal_occurrences(n))
    f = trial_factorize(n)
    exps = [e for _, e in f]
    ln_n = math.log(n)
    if key == "min_exponent_over_log":
        return min(exps) / ln_n
    if key == "max_exponent_over_log":
        return max(exps) / ln_n
    if key == "valuation_scaled":
        # exactly 1 at n = p**v, where the float quotient can round below 1
        v = dict(f).get(spec.p, 0)
        return 1.0 if f == [(spec.p, v)] else v * math.log(spec.p) / ln_n
    # n = m**b exactly for the b dividing the gcd of the exponents
    g = math.gcd(*exps)
    if key == "power_rep_count":
        return float(sum(1 for b in range(1, g + 1) if g % b == 0))
    if key == "power_rep_weight":
        return float(sum(b for b in range(1, g + 1) if g % b == 0))
    lnln_n = math.log(ln_n)
    if key == "omega_over_loglog":
        return len(exps) / lnln_n
    if key == "bigomega_over_loglog":
        return sum(exps) / lnln_n
    log_f = 0.5 * math.prod(e + 1 for e in exps) * ln_n
    if key == "loglog_f":
        return math.log(log_f) / lnln_n
    # loglog_fstar: undefined (log 0) when f*(n) = 1, i.e. at the primes
    lf = log_f - ln_n
    return math.log(lf) / lnln_n if lf > 0 else -math.inf
