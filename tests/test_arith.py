"""The prime sieve, integer arithmetic and the per-n values of `fn`, pinned
against independent oracles."""

import contextlib
import functools
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealconv import (
    InvalidArgumentError,
    iroot,
    is_prime,
    iter_blocks,
    pascal_count,
    small_primes,
)
from idealconv.arith import pascal_counts
from idealconv.bulk import _SEGMENT, BLOCK, PRIME_BOUND_CAP
from idealconv.cli import main
from idealconv.convergence import pascal_distances

from oracles import (
    pascal_occurrences,
    pascal_rowscan,
    power_reps,
    primes_upto,
    trial_factorize,
)


def fn(name: str, n: str, *extra: str) -> dict[int, int | float]:
    """n -> value from `idealconv fn NAME N`, read from its json."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["fn", name, n, *extra, "--output", "json"]) == 0
    return {r["n"]: r["value"] for r in json.loads(buf.getvalue())["records"]}


# ---------------------------------------------------------------------------
# the prime sieve
# ---------------------------------------------------------------------------


def test_prime_count_1e6():
    assert len(small_primes(1_000_000)) == 78_498


def test_primes_match_oracle():
    seg = _SEGMENT
    top = 2 * seg + 5
    want = primes_upto(top)
    assert small_primes(top).tolist() == want  # segments start at 2, 2 + seg, ...
    # segments run from the window's start: (7, seg + 7) and (seg, 2 * seg)
    # end in a one-integer segment, (seg + 2, top) in a short one
    for lo, hi in [(seg - 7, seg + 7), (7, seg + 7), (seg, 2 * seg), (seg + 2, top)]:
        assert small_primes(hi, start=lo).tolist() == [p for p in want if lo <= p <= hi]


def test_is_prime_matches_oracle():
    marked = {n for n in range(-3, 2_000) if is_prime(n)}
    assert marked == set(primes_upto(1_999))


def test_is_prime_matches_the_sieve():
    assert [n for n in range(2_000, 200_000) if is_prime(n)] == small_primes(
        199_999, start=2_000
    ).tolist()


@pytest.mark.parametrize(
    "m",
    # the least strong pseudoprimes to the bases 2; 2..7; 2..23; 2..37
    [2047, 3215031751, 3825123056546413051, 318665857834031151167461],
)
def test_is_prime_rejects_strong_pseudoprimes(m):
    assert not is_prime(m)


def test_is_prime_of_large_primes():
    t0 = time.perf_counter()
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59) and is_prime(10**24 + 7)
    assert not is_prime((2**61 - 1) * 1000003) and not is_prime(2**64 - 57)
    assert time.perf_counter() - t0 < 0.5


def test_is_prime_refuses_past_its_exact_range():
    psi13 = 3317044064679887385961981
    assert not is_prime(psi13 - 1)
    with pytest.raises(InvalidArgumentError, match=f"decided below {psi13} only"):
        is_prime(psi13)


def test_small_primes_of_tiny_bounds():
    assert small_primes(1).tolist() == [] and small_primes(2).tolist() == [2]
    assert small_primes(10, start=11).size == 0
    assert small_primes(3, start=-5).tolist() == [2, 3]


def test_small_primes_rejects_bound_past_cap():
    bound = PRIME_BOUND_CAP + 1
    with pytest.raises(InvalidArgumentError, match=f"bound {bound} is above"):
        small_primes(bound)


# ---------------------------------------------------------------------------
# exponent statistics, read through fn and the block sieve
# ---------------------------------------------------------------------------

# fn name -> its value from the list of n's prime exponents
_OF_EXPONENTS = {
    "omega": len, "bigomega": sum, "h": min, "H": max,
    "d": lambda exps: math.prod(e + 1 for e in exps),
}
# n = 1 has no prime factors; h and H are 1 there by convention
_FN_AT_ONE = {
    "h": 1, "H": 1, "omega": 0, "bigomega": 0, "d": 1, "ap": 0, "logf": 0.0, "logfstar": 0.0,
}


def test_fn_matches_trial_division():
    for name, stat in _OF_EXPONENTS.items():
        got = fn(name, "2:3000")
        for n in range(2, 3_001):
            assert got[n] == stat([e for _, e in trial_factorize(n)]), (name, n)


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=50, deadline=None)
def test_window_at_random_n_matches_trial_division(n):
    # a one-integer window far from 2 sweeps every prime up to isqrt(n)
    (stats,) = iter_blocks(n, start=n)
    f = trial_factorize(n)
    exps = [e for _, e in f]
    assert stats.omega[0] == len(f) and stats.big_omega[0] == sum(exps)
    assert (stats.h_min[0], stats.h_max[0]) == (min(exps), max(exps))
    assert stats.div_count[0] == math.prod(e + 1 for e in exps)
    assert stats.exp_gcd[0] == math.gcd(*exps)


def test_exponent_statistics_of_360():
    # 360 = 2^3 * 3^2 * 5
    got = {name: fn(name, "360")[360] for name in ("h", "H", "omega", "bigomega", "d")}
    assert got == {"h": 1, "H": 3, "omega": 3, "bigomega": 6, "d": 24}


def test_factorize_one_is_empty():
    # 1 has no prime factors: fn reads it as the empty factorization, also at
    # the head of a range whose other integers come from the block sieve
    for name, empty in (("omega", 0), ("bigomega", 0), ("d", 1)):
        got = fn(name, "1:12")
        assert got[1] == empty, name
        assert got[12] == _OF_EXPONENTS[name]([2, 1]), name  # 12 = 2^2 * 3


def test_exponent_statistics_at_one():
    got = {
        name: fn(name, "1", *(("--p", "2") if name == "ap" else ()))[1]
        for name in _FN_AT_ONE
    }
    assert got == _FN_AT_ONE


def test_statistic_inequalities_exhaustive():
    # h <= H <= Omega and omega <= Omega <= H * omega on every n <= 1e4
    (s,) = iter_blocks(10_000)
    lo, hi, w, big = (
        a.astype(np.int64) for a in (s.h_min, s.h_max, s.omega, s.big_omega)
    )
    assert np.all((1 <= lo) & (lo <= hi) & (hi <= big))
    assert np.all((1 <= w) & (w <= big) & (big <= hi * w))


def test_divisor_count_matches_enumeration():
    got = fn("d", "1:1999")
    for n in range(1, 2_000):
        assert got[n] == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_valuation_matches_trial():
    for p in (2, 3, 7):
        got = fn("ap", "1:1999", "--p", str(p))
        for n in range(1, 2_000):
            e, m = 0, n
            while m % p == 0:
                e, m = e + 1, m // p
            assert got[n] == e


def test_valuation_rejects_composite_base():
    # a non-prime in ap_primes would also be swept as a prime of n
    with pytest.raises(InvalidArgumentError, match="p=4 is not prime"):
        next(iter_blocks(40, ap_primes=(4,)))


def test_log_f_is_log_divisor_product():
    ns = (1, 2, 6, 12, 36, 100, 360)
    log_f, log_f_star = fn("logf", "1:360"), fn("logfstar", "1:360")
    for n in ns:
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert log_f[n] == pytest.approx(math.log(math.prod(divisors)), abs=1e-9)
        assert log_f_star[n] == pytest.approx(log_f[n] - math.log(n), abs=1e-9)


# ---------------------------------------------------------------------------
# power representations (gamma, tau)
# ---------------------------------------------------------------------------


def test_gamma_tau_of_64():
    assert (fn("gamma", "64")[64], fn("tau", "64")[64]) == (4, 12)
    # the representations are 64 = iroot(64, b)**b for the b dividing exp_gcd
    (stats,) = iter_blocks(64, {"exp_gcd"}, start=64)
    g = int(stats.exp_gcd[0])
    assert [(iroot(64, b), b) for b in range(1, g + 1) if g % b == 0] == power_reps(64)


def test_gamma_tau_of_16():
    assert (fn("gamma", "16")[16], fn("tau", "16")[16]) == (3, 7)


def test_gamma_tau_matches_brute_force():
    gamma, tau = fn("gamma", "2:2999"), fn("tau", "2:2999")
    for n in range(2, 3_000):
        reps = power_reps(n)
        assert gamma[n] == len(reps)
        assert tau[n] == sum(b for _, b in reps)


def test_gamma_is_one_off_perfect_powers():
    # non-powers have the single representation (n, 1)
    assert fn("gamma", "12")[12] == 1 and fn("tau", "12")[12] == 1
    assert power_reps(12) == [(12, 1)]


# ---------------------------------------------------------------------------
# Pascal-triangle occurrence counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,count",
    [(2, 1), (3, 2), (4, 2), (6, 3), (10, 4), (120, 6), (3003, 8)],
)
def test_pascal_count_examples(n, count):
    assert pascal_count(n) == count


def test_pascal_count_matches_rowscan():
    table = pascal_rowscan(5_000)
    for n in range(2, 5_001):
        assert pascal_count(n) == table[n], n


@pytest.mark.parametrize(
    "n,count",
    [(3003, 8), (120, 6), (210, 6), (1540, 6), (7140, 6), (11628, 6), (24310, 6)],
)
def test_pascal_count_known_multiplicities(n, count):
    # Singmaster, Amer. Math. Monthly 78 (1971): 3003 is the only number
    # known to occur eight times; these six occur six times each
    assert pascal_count(n) == count


def test_pascal_count_rejects_small_n():
    with pytest.raises(InvalidArgumentError):
        pascal_count(1)


def _fib(i: int) -> int:
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("i,count", [(1, 8), (2, 6), (3, 6)])
def test_pascal_count_singmaster_family(i, count):
    # Singmaster's infinite family C(n, k) = C(n-1, k+1) with
    # n = F(2i+2) F(2i+3), k = F(2i) F(2i+3); i = 1 gives 3003, i = 2
    # C(104, 39).  i = 4 is left out: its count takes minutes
    n = _fib(2 * i + 2) * _fib(2 * i + 3)
    k = _fib(2 * i) * _fib(2 * i + 3)
    v = math.comb(n, k)
    assert v == math.comb(n - 1, k + 1)
    assert pascal_count(v) == count


# ---------------------------------------------------------------------------
# Pascal counts on arrays
# ---------------------------------------------------------------------------

# the first n at which a product of the array counts could reach 2**63
_PASCAL_COUNTS_TOP = 106_925_365_231_871


def _window_peak(n: int, k: int) -> int:
    """The largest product that column k of the array counts forms at n when
    its float root reads one above the floor root: k * C(r0, k) as the first
    row's binomial is built, C(r0 + 2, k) * (r0 + 3) at the last step."""
    r0 = max(iroot(n * math.factorial(k), k) + 1 + (k - 1) // 2, 2 * k)
    return max(k * math.comb(r0, k), math.comb(r0 + 2, k) * (r0 + 3))


@functools.cache
def _occurrences_to_1e5() -> list[int]:
    return [pascal_occurrences(n) for n in range(2, 10**5 + 1)]


def test_pascal_counts_match_per_n_counts_to_1e5():
    got = pascal_counts(np.arange(2, 10**5 + 1, dtype=np.int64)).tolist()
    assert got == [pascal_count(n) for n in range(2, 10**5 + 1)]
    assert got == _occurrences_to_1e5()


def _distance_rows(counts: list[int]) -> list[tuple[int, int]]:
    """(n, |N(n) - 2|) where that is not 0, from the counts of n = 2, 3, ..."""
    return [(n, abs(c - 2)) for n, c in enumerate(counts, 2) if c != 2]


# 3003 = C(78, 2) = C(15, 5) = C(14, 6) is the limit itself
@pytest.mark.parametrize("limit", [1, 2, 3003, 10**5])
def test_pascal_distances_is_the_table_of_counts_not_2(limit):
    n, dist = pascal_distances(limit)
    assert n.dtype == dist.dtype == np.int64
    got = list(zip(n.tolist(), dist.tolist()))
    counts = pascal_counts(np.arange(2, limit + 1, dtype=np.int64)).tolist()
    assert got == _distance_rows(counts)
    assert got == _distance_rows(_occurrences_to_1e5()[: limit - 1])
    if limit == 3003:
        assert got[-1] == (3003, 6)


@settings(max_examples=60, deadline=None)
@given(
    chunk=st.integers(0, 80),
    shift=st.integers(-200, 200),
    size=st.integers(1, 400),
)
def test_pascal_counts_on_windows_across_chunk_edges(chunk, shift, size):
    # the suite counts [2, check limit] in chunks of BLOCK from n = 2
    lo = max(2, 2 + chunk * BLOCK + shift)
    got = pascal_counts(np.arange(lo, lo + size, dtype=np.int64))
    assert got.tolist() == [pascal_count(n) for n in range(lo, lo + size)]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(3, 24), extra=st.integers(0, 10**6), shift=st.integers(-20, 0))
@example(k=3, extra=0, shift=-19)  # C(6, 3) = 20: the window starts at n = 2
# the hit one row into the window, as for most binomials, and the hit two
# rows in, as for C(42, 20)
@example(k=5, extra=7, shift=-20)
@example(k=20, extra=2, shift=-20)
def test_pascal_counts_on_windows_at_binomials(k, extra, shift):
    # every column up to the last one below the cap, at and beside its hits
    r = 2 * k + extra
    while math.comb(r, k) >= _PASCAL_COUNTS_TOP - 40:
        r = 2 * k + (r - 2 * k) // 2
    lo = max(2, math.comb(r, k) + shift)
    got = pascal_counts(np.arange(lo, lo + 40, dtype=np.int64))
    assert got.tolist() == [pascal_count(n) for n in range(lo, lo + 40)]
    assert got[math.comb(r, k) - lo] >= 3  # C(r, k) itself, inside the triangle


def test_pascal_counts_at_every_binomial_below_the_cap():
    # every C(r, k) and its two neighbours below the cap, for each column
    # k >= 3 with r up to 2k + 3000: 28,339 values, each a hit or a near miss
    values = sorted(
        {
            math.comb(r, k) + d
            for k in range(3, 25)
            for r in range(2 * k, 2 * k + 3001)
            for d in (-1, 0, 1)
            if math.comb(r, k) + 1 < _PASCAL_COUNTS_TOP
        }
    )
    got = pascal_counts(np.array(values, dtype=np.int64)).tolist()
    assert got == [pascal_count(n) for n in values]


def test_pascal_counts_refuse_int64_overflow():
    # the cap is the first n at which a product could reach 2**63; each
    # column's peak rises with n, so checking top - 1 covers every n below
    top = _PASCAL_COUNTS_TOP
    columns = [k for k in range(3, 40) if math.comb(2 * k, k) < top]
    assert columns[-1] == 24  # the window's proof covers k <= 27
    assert all(_window_peak(top - 1, k) < 2**63 for k in columns)
    assert _window_peak(top, 3) >= 2**63
    # C(86248, 3), the last binomial of column 3 below the cap, and its
    # neighbours
    last = math.comb(86248, 3)
    ns = [2, last - 1, last, last + 1, top - 1]
    assert pascal_counts(np.array(ns)).tolist() == [pascal_count(n) for n in ns]
    for bad in (top, 10**15, 2**62):
        with pytest.raises(InvalidArgumentError, match=f"overflow int64 from n = {top}"):
            pascal_counts(np.array([2, bad]))
    with pytest.raises(InvalidArgumentError):
        pascal_counts(np.array([5, 1]))
    assert pascal_counts(np.empty(0, dtype=np.int64)).tolist() == []


# ---------------------------------------------------------------------------
# integer roots
# ---------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=10**30), st.integers(min_value=1, max_value=12))
@settings(max_examples=300)
def test_iroot_is_floor_root(x, k):
    r = iroot(x, k)
    assert r**k <= x < (r + 1) ** k


def test_iroot_exact_powers():
    assert iroot(10**18, 3) == 10**6
    assert iroot(2**40 - 1, 40) == 1
    assert iroot(2**40, 40) == 2


def test_iroot_past_float_precision():
    # the float root of these is off by far more than one step; past
    # 2**1024 the seed comes from the float root of the top 1000 bits, and
    # for k = 1500 and 3000 mostly from 2**((s % k) / k), s the bits below
    t0 = time.perf_counter()
    cases = [(r, k) for r in (2**53 + 1, 10**20, 10**40, 10**200) for k in (3, 5, 7)]
    cases += [(10**20, 64), (10**200, 64), (2, 1500), (3, 1500), (2**53 + 1, 1500)]
    cases += [(3, 3000), (2**29 + 1, 3000)]
    for r, k in cases:
        for x in (r**k - 1, r**k, r**k + 1):
            got = iroot(x, k)
            assert got**k <= x < (got + 1) ** k
    assert time.perf_counter() - t0 < 1.0


def test_iroot_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        iroot(-1, 2)
    with pytest.raises(InvalidArgumentError):
        iroot(8, 0)
