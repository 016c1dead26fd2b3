"""Factor-table arithmetic pinned against independent oracles."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealconv import (
    InvalidArgumentError,
    OutOfRangeError,
    a_p,
    big_omega,
    build_factor_table,
    divisor_count,
    factorize,
    gamma_tau,
    h_max,
    h_min,
    iroot,
    log_f,
    log_f_star,
    omega,
    pascal_count,
)

from oracles import pascal_rowscan, power_reps, primes_upto, trial_factorize


# ---------------------------------------------------------------------------
# sieve and factorization
# ---------------------------------------------------------------------------


def test_prime_count_1e6(table_1e6):
    assert len(table_1e6.primes_upto(1_000_000)) == 78_498


def test_primes_match_oracle(table_1e4):
    assert list(table_1e4.primes_upto(10_000)) == primes_upto(10_000)


def test_is_prime_matches_oracle(table_1e4):
    marked = {n for n in range(2, 2_000) if table_1e4.is_prime(n)}
    assert marked == set(primes_upto(1_999))


def test_factorize_matches_trial_division(table_1e4):
    for n in range(2, 3_000):
        assert list(factorize(n, table_1e4).factors) == trial_factorize(n)


def test_factorize_one_is_empty(table_1e4):
    assert factorize(1, table_1e4).factors == ()


def test_factorize_out_of_range(table_1e4):
    with pytest.raises(OutOfRangeError):
        factorize(10_001, table_1e4)
    with pytest.raises(InvalidArgumentError):
        factorize(0, table_1e4)


def test_build_table_rejects_tiny_limit():
    with pytest.raises(InvalidArgumentError):
        build_factor_table(1)


@given(st.integers(min_value=2, max_value=10_000))
def test_factorization_multiplies_back(table_1e4, n):
    f = factorize(n, table_1e4)
    prod = 1
    for p, e in f.factors:
        prod *= p**e
    assert prod == n


# ---------------------------------------------------------------------------
# exponent statistics
# ---------------------------------------------------------------------------


def test_exponent_statistics_of_360(table_1e4):
    f = factorize(360, table_1e4)  # 2^3 * 3^2 * 5
    assert h_min(f) == 1
    assert h_max(f) == 3
    assert omega(f) == 3
    assert big_omega(f) == 6
    assert divisor_count(f) == 24


def test_exponent_statistics_at_one(table_1e4):
    f = factorize(1, table_1e4)
    assert h_min(f) == 1 and h_max(f) == 1
    assert omega(f) == 0 and big_omega(f) == 0
    assert divisor_count(f) == 1


def test_statistic_inequalities_exhaustive(table_1e4):
    # h <= H <= Omega and omega <= Omega <= h_max * omega on every n <= 1e4
    for n in range(2, 10_001):
        f = factorize(n, table_1e4)
        lo, hi, w, big = h_min(f), h_max(f), omega(f), big_omega(f)
        assert 1 <= lo <= hi <= big
        assert 1 <= w <= big <= hi * w


def test_divisor_count_matches_enumeration(table_1e4):
    for n in range(1, 2_000):
        brute = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert divisor_count(factorize(n, table_1e4)) == brute


def test_valuation_matches_trial(table_1e4):
    for n in range(1, 2_000):
        for p in (2, 3, 7):
            e, m = 0, n
            while m % p == 0:
                e, m = e + 1, m // p
            assert a_p(n, p) == e


def test_valuation_rejects_composite_base():
    with pytest.raises(InvalidArgumentError):
        a_p(12, 4)


def test_log_f_is_log_divisor_product(table_1e4):
    for n in (1, 2, 6, 12, 36, 100, 360):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        f = factorize(n, table_1e4)
        assert log_f(f) == pytest.approx(math.log(math.prod(divisors)), abs=1e-9)
        assert log_f_star(f) == pytest.approx(log_f(f) - math.log(n), abs=1e-9)


# ---------------------------------------------------------------------------
# power representations (gamma, tau)
# ---------------------------------------------------------------------------


def test_gamma_tau_of_64(table_1e4):
    gt = gamma_tau(factorize(64, table_1e4))
    assert (gt.gamma, gt.tau) == (4, 12)
    assert [(r.base, r.exponent) for r in gt.reps] == power_reps(64)


def test_gamma_tau_of_16(table_1e4):
    gt = gamma_tau(factorize(16, table_1e4))
    assert (gt.gamma, gt.tau) == (3, 7)


def test_gamma_tau_matches_brute_force(table_1e4):
    for n in range(2, 3_000):
        gt = gamma_tau(factorize(n, table_1e4))
        reps = power_reps(n)
        assert gt.gamma == len(reps)
        assert gt.tau == sum(b for _, b in reps)


def test_gamma_is_one_off_perfect_powers(table_1e4):
    # non-powers have the single representation (n, 1)
    gt = gamma_tau(factorize(12, table_1e4))
    assert gt.gamma == 1 and gt.tau == 1
    assert [(r.base, r.exponent) for r in gt.reps] == [(12, 1)]


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
    # the float root of these is off by far more than one step
    t0 = time.perf_counter()
    for r in (2**53 + 1, 10**20, 10**40):
        for k in (3, 5, 7):
            for x in (r**k - 1, r**k, r**k + 1):
                got = iroot(x, k)
                assert got**k <= x < (got + 1) ** k
    assert time.perf_counter() - t0 < 1.0


def test_iroot_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        iroot(-1, 2)
    with pytest.raises(InvalidArgumentError):
        iroot(8, 0)
