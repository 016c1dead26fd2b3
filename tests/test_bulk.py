"""Block sieve against trial factorization, at every block size and start."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealconv import bulk
from idealconv.bulk import FIELD_NAMES, iter_blocks
from idealconv.errors import InvalidArgumentError

from oracles import power_exponent, trial_factorize

TOP = 20_000
# 2, 3 and 7 divide often; 131 sits just under sqrt(TOP) and 1009 above it,
# and above bulk.T
AP_PRIMES = (2, 3, 7, 131, 1009)
# 211 is a smooth bound above sqrt(TOP), read after the whole sweep there;
# 293, the largest prime up to bulk.T, ends a piece at the tier boundary
# near 10**9, and 331, one above bulk.T, is read between the batched primes
SMOOTH_BOUNDS = (2, 3, 7, 211, 293, 331)


def expected(n: int) -> dict:
    """Every field, ap array and smooth mask of iter_blocks at n."""
    f = trial_factorize(n)
    exps = [e for _, e in f]
    row = {
        "h_min": min(exps),
        "h_max": max(exps),
        "omega": len(f),
        "big_omega": sum(exps),
        "div_count": math.prod(e + 1 for e in exps),
        "exp_gcd": math.gcd(*exps),
    }
    powers = dict(f)
    for p in AP_PRIMES:
        row[f"ap[{p}]"] = powers.get(p, 0)
    for b in SMOOTH_BOUNDS:
        row[f"smooth_ok[{b}]"] = f[-1][0] <= b
    return row


@lru_cache(maxsize=None)
def oracle_columns() -> dict[str, np.ndarray]:
    rows = [expected(n) for n in range(2, TOP + 1)]
    return {key: np.array([r[key] for r in rows]) for key in rows[0]}


@lru_cache(maxsize=None)
def window_columns(lo: int, hi: int) -> dict[str, list]:
    rows = [expected(n) for n in range(lo, hi + 1)]
    return {key: [r[key] for r in rows] for key in rows[0]}


def scanned(limit: int, fields=FIELD_NAMES, **kwargs) -> dict[str, np.ndarray]:
    """iter_blocks over [start, limit], every block checked to be the next
    one and every column asked for joined across blocks."""
    start = kwargs.get("start", 2)
    parts: dict[str, list[np.ndarray]] = {}
    lo = start
    for stats in iter_blocks(
        limit, fields, ap_primes=AP_PRIMES, smooth_bounds=SMOOTH_BOUNDS, **kwargs
    ):
        assert stats.lo == lo and stats.n[0] == lo and len(stats.n) == stats.hi - lo
        assert all(getattr(stats, name) is None for name in FIELD_NAMES - fields)
        lo = stats.hi
        cols = {name: getattr(stats, name) for name in fields}
        cols.update({f"ap[{p}]": a for p, a in stats.ap.items()})
        cols.update({f"smooth_ok[{b}]": m for b, m in stats.smooth_ok.items()})
        for key, arr in cols.items():
            parts.setdefault(key, []).append(arr)
    assert lo == limit + 1
    return {key: np.concatenate(arrs) for key, arrs in parts.items()}


# the smooth masks are read off the sweep whether or not it fills a field
@pytest.mark.parametrize(
    "fields",
    [FIELD_NAMES, frozenset(), frozenset({"exp_gcd"})],
    ids=["all", "none", "exp_gcd"],
)
@settings(max_examples=40, deadline=None)
@given(
    block_size=st.integers(1, 4097),
    start=st.integers(2, 97),
    blocks=st.integers(1, 64),
)
@example(block_size=4097, start=2, blocks=5)
@example(block_size=1, start=2, blocks=64)
@example(block_size=1 << 20, start=97, blocks=1)
def test_blocks_match_trial_factorization(fields, block_size, start, blocks):
    limit = min(TOP, start - 1 + block_size * blocks)
    got = scanned(limit, fields, block_size=block_size, start=start)
    want = {
        key: col
        for key, col in oracle_columns().items()
        if key not in FIELD_NAMES - fields
    }
    assert got.keys() == want.keys()
    for key, col in want.items():
        np.testing.assert_array_equal(got[key], col[start - 2 : limit - 1], err_msg=key)


def test_block_near_two_to_the_36():
    # 2**36 has exponent 36; 2**36 - 1 has 512 divisors and 8 prime factors
    lo, hi = 2**36 - 8, 2**36 + 8
    got = scanned(hi, start=lo)
    rows = [expected(n) for n in range(lo, hi + 1)]
    for key in rows[0]:
        np.testing.assert_array_equal(got[key], [r[key] for r in rows], err_msg=key)
    assert got["h_max"].max() == 36 and got["div_count"].max() == 512


def _straddling_t() -> tuple[int, ...]:
    """The two primes below bulk.T and the two above it."""
    below = bulk.small_primes(bulk.T)[-2:].tolist()
    above = bulk.small_primes(2 * bulk.T, start=bulk.T + 1)[:2].tolist()
    return (*below, *above)


def _window_centers() -> list[int]:
    qs = _straddling_t()
    centers = [q**2 for q in qs] + [q**3 for q in qs]
    # q**2 * r with r a prime on the other side of bulk.T
    centers += [q**2 * qs[3 - i] for i, q in enumerate(qs)]
    return centers + [
        307**2 * 331 * 31,  # 331-smooth, near 10**9
        1009**2 * 991,  # ap[1009] = 2, near 10**9
        10**9 + 7,  # a prime
        10**12,  # 2**12 * 5**12
        1009**3 * 977,  # ap[1009] = 3, near 10**12
    ]


@pytest.mark.parametrize("center", _window_centers())
@pytest.mark.parametrize("block_size", [1, 7, 64])
def test_windows_across_the_batched_primes(center, block_size):
    # the primes above bulk.T are swept all at once; the windows hold their
    # squares, cubes and square multiples, and start at an odd n
    lo = (center - 20) | 1
    got = scanned(lo + 40, start=lo, block_size=block_size)
    for key, col in window_columns(lo, lo + 40).items():
        np.testing.assert_array_equal(got[key], col, err_msg=key)


@pytest.mark.parametrize("size", [0, -5])
def test_block_size_below_one_is_rejected(size):
    # -5 used to yield no block at all, and 0 raised range's bare ValueError
    with pytest.raises(InvalidArgumentError, match="block size"):
        list(iter_blocks(1000, block_size=size))


def _block_columns(stats) -> dict[str, np.ndarray]:
    cols = {name: getattr(stats, name) for name in ("n", *FIELD_NAMES)}
    cols.update({f"ap[{p}]": a for p, a in stats.ap.items()})
    cols.update({f"smooth_ok[{b}]": m for b, m in stats.smooth_ok.items()})
    return cols


def test_yielded_arrays_outlive_the_next_block():
    # the sieve reuses a buffer of its own from block to block; every field
    # array it yields must stay as it was when the scan has moved on
    args = (3 * 10**5,)
    kwargs = dict(ap_primes=(2, 3), smooth_bounds=(7, 53), block_size=4097)
    copies = [
        {key: arr.copy() for key, arr in _block_columns(stats).items()}
        for stats in iter_blocks(*args, **kwargs)
    ]
    kept = list(iter_blocks(*args, **kwargs))
    assert len(kept) == len(copies) == -(-(3 * 10**5 - 1) // 4097)
    for stats, want in zip(kept, copies):
        got = _block_columns(stats)
        assert got.keys() == want.keys()
        for key, arr in want.items():
            np.testing.assert_array_equal(got[key], arr, err_msg=f"{stats.lo} {key}")


def test_unknown_field_and_start_below_two_are_rejected():
    with pytest.raises(InvalidArgumentError, match=r"unknown bulk fields: \['phi'\]"):
        next(iter_blocks(100, {"omega", "phi"}))
    with pytest.raises(InvalidArgumentError, match="bulk scans start at n >= 2"):
        next(iter_blocks(100, start=1))


def test_limit_from_two_to_the_63_is_rejected():
    with pytest.raises(InvalidArgumentError, match="2\\*\\*63"):
        next(iter_blocks(2**63))


@pytest.mark.parametrize(
    "center",
    # 2**60 is a 60th power; 3037000499**2 is the largest square below 2**63
    [2**60, 2**62, 3**39, 3037000499**2],
)
def test_exp_gcd_near_large_powers(center):
    lo, hi = center - 300, center + 300
    got = np.concatenate(
        [s.exp_gcd for s in iter_blocks(hi, {"exp_gcd"}, block_size=128, start=lo)]
    )
    want = [power_exponent(n) for n in range(lo, hi + 1)]
    np.testing.assert_array_equal(got, want)
    assert got[center - lo] == power_exponent(center) > 1


def test_exp_gcd_alone_sweeps_no_prime(monkeypatch):
    def refuse(bound):
        raise AssertionError("exp_gcd needs no prime list")

    monkeypatch.setattr(bulk, "small_primes", refuse)
    blocks = list(iter_blocks(300_000, {"exp_gcd"}))
    assert len(blocks) == 3 and blocks[0].omega is None
    gcds = np.concatenate([s.exp_gcd for s in blocks])
    assert gcds[2**18 - 2] == 18 and gcds[3**11 - 2] == 11 and gcds[10**5 - 2] == 5


def test_smooth_bound_above_the_root_sieves_no_larger_prime(monkeypatch):
    # 22013, statement I's bound at eps 0.1, is far above isqrt(10**5) = 316;
    # its mask is the cofactor test after the whole sweep
    limit, bound = 10**5, 22013
    sieved = []
    sieve = bulk.small_primes

    def recording(top, start=2):
        sieved.append(top)
        return sieve(top, start)

    monkeypatch.setattr(bulk, "small_primes", recording)
    blocks = iter_blocks(limit, {"omega"}, smooth_bounds=(bound,))
    got = np.concatenate([stats.smooth_ok[bound] for stats in blocks])
    assert max(sieved) == math.isqrt(limit)
    want = [trial_factorize(n)[-1][0] <= bound for n in range(2, limit + 1)]
    np.testing.assert_array_equal(got, want)


def test_smooth_bounds_in_any_order():
    # an unsorted bound list with a repeat reads the masks of the sorted one,
    # here across the batched primes near 10**9
    lo, limit = 10**9 - 300, 10**9 + 300
    got, want = (
        list(iter_blocks(limit, {"omega"}, smooth_bounds=b, block_size=100, start=lo))
        for b in [(53, 2, 53), (2, 53)]
    )
    assert len(got) == len(want) == 7
    for g, w in zip(got, want):
        assert g.smooth_ok.keys() == {2, 53}
        for b in (2, 53):
            np.testing.assert_array_equal(g.smooth_ok[b], w.smooth_ok[b], err_msg=str(b))
    smooth = np.concatenate([g.smooth_ok[53] for g in got])
    assert smooth[300]  # 10**9 = 2**9 * 5**9
    np.testing.assert_array_equal(
        smooth, [trial_factorize(n)[-1][0] <= 53 for n in range(lo, limit + 1)]
    )


def test_smooth_bounds_past_either_end():
    # no n >= 2 is p0-smooth for p0 < 2, and every n <= limit is for
    # p0 >= limit, even past 2**63
    (stats,) = iter_blocks(1000, {"omega"}, smooth_bounds=(-5, 0, 1, 1000, 2**64))
    for b in (-5, 0, 1):
        assert not stats.smooth_ok[b].any()
    for b in (1000, 2**64):
        assert stats.smooth_ok[b].all()
