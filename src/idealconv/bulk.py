"""Block-sieved bulk evaluation of exponent statistics over integer ranges.

For whole-range scans (classifying every n up to 1e7, say) per-n factorization
is far too slow in Python.  Instead each block [lo, hi) is swept by the primes
p <= sqrt(hi), the segmented-sieve idiom, cut into pieces at the sorted
smooth bounds, each piece in two tiers split at the constant T.  A prime
p <= T has at least BLOCK / T multiples in a block, so `_sweep_small` gives
each its own Python step of in-place numpy operations on strided views
`arr[(-lo % p**k)::p**k]`: counters get `+= 1` on each prime-power view,
`value` gets `*= p`, and the fields that need the whole exponent take it
from a per-prime exponent array.  The primes above T have fewer multiples,
so `_sweep_large` handles all of a piece's in one vectorised pass, the
bucket sieve of Oliveira e Silva, Herzog & Pardi (*Math. Comp.* 83, 2014):
their multiples' positions come from `np.repeat` and `cumsum`, the rare
exponents above 1 from division at the multiples of p**2, and the fields
from `np.add.at` and its kin.  The running product `value` of extracted
prime powers divides n, so `value < n` exposes the (at most one) remaining
prime factor > sqrt(hi) as a cofactor.  After the piece that ends at a bound
p0, `value` holds every prime up to min(p0, sqrt(hi)) and no larger one, so
the p0-smooth mask `n // value <= p0` is read there as `n // (p0 + 1) <
value`, one division by a scalar.  The `ap_primes` valuations are strided
views of their own, beside the sweep.

`exp_gcd` is not swept: the gcd of n's exponents is the largest k with n a
perfect k-th power, so it is written at the k-th powers m**k in the block,
whose bases m come from integer roots of the block's ends.  Blocks hold
BLOCK integers, so every field array is at most 1 MB (the cache-sized
segments of Bays & Hudson, *BIT* 17, 1977), and each is the block's own.
`small_primes` sieves the primes in segments too, of a megabyte of
odd-number flags each; it is the package's one prime generator besides
`arith.is_prime`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import iroot, require_prime
from .errors import InvalidArgumentError

__all__ = ["BlockStats", "iter_blocks", "small_primes"]

# each field the sweep fills: its dtype and its value before any prime is
# swept (h_min's 127 is above any exponent of n < 2**63), in allocation order
_SWEPT = {
    "h_min": (np.int8, 127),
    "h_max": (np.int8, 0),
    "omega": (np.int8, 0),
    "big_omega": (np.int8, 0),
    "div_count": (np.int32, 1),
}
FIELD_NAMES = frozenset({*_SWEPT, "exp_gcd"})

_LIMIT_CAP = 1 << 63  # the field dtypes below are exact for n < 2**63
BLOCK = 1 << 17  # integers per block: an int64 array of it is 1 MB
PRIME_BOUND_CAP = 1 << 26  # largest bound small_primes sieves to
# primes up to T are swept one by one through strided views, the larger
# ones all at once by _sweep_large
T = 300
_SEGMENT = 1 << 21  # integers per small_primes segment: 2**20 odd-number flags


def small_primes(bound: int, start: int = 2) -> np.ndarray:
    """The primes in [start, bound] as an int64 array, sieved in segments of
    _SEGMENT integers, one flag per odd number, by the odd primes up to
    isqrt(bound).

    Raises InvalidArgumentError when bound is above PRIME_BOUND_CAP.
    """
    if bound > PRIME_BOUND_CAP:
        raise InvalidArgumentError(
            f"prime sieve bound {bound} is above the cap 2**26 = {PRIME_BOUND_CAP}"
        )
    start = max(start, 2)
    if bound < start:
        return np.empty(0, dtype=np.int64)
    base = small_primes(math.isqrt(bound), start=3).tolist()
    # int32 pieces: the concatenated int64 array is the only full-size copy
    found = [np.array([2] if start == 2 else [], dtype=np.int32)]
    for lo in range(start, bound + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, bound + 1)
        # seg[i - i0] flags the odd number 2i + 1, for the odd numbers in [lo, hi)
        i0 = lo // 2
        seg = np.ones(hi // 2 - i0, dtype=bool)
        for p in base:
            m = max(p * p, -(-lo // p) * p)
            m += p * (1 - m % 2)  # the first odd multiple
            seg[m // 2 - i0 :: p] = False
        primes = np.flatnonzero(seg)
        primes += i0
        found.append((2 * primes + 1).astype(np.int32))
    return np.concatenate(found, dtype=np.int64)


@dataclass
class BlockStats:
    """Exponent statistics for every n in [lo, hi).

    Every array is aligned with `n` (int64); a field that was not asked for
    is None.  Each field has the narrowest dtype exact for n < 2**63:

      h_min, h_max    int8   least / greatest exponent (at most 62)
      omega           int8   distinct prime factors (at most 15)
      big_omega       int8   prime factors with multiplicity (at most 62)
      div_count       int32  number of divisors (at most 103,680)
      exp_gcd         int8   gcd of the exponents
      ap[p]           int8   exponent of the prime p
      smooth_ok[p0]   bool   n has no prime factor above p0
    """

    lo: int
    hi: int
    n: np.ndarray
    h_min: np.ndarray | None = None
    h_max: np.ndarray | None = None
    omega: np.ndarray | None = None
    big_omega: np.ndarray | None = None
    div_count: np.ndarray | None = None
    exp_gcd: np.ndarray | None = None
    ap: dict[int, np.ndarray] = field(default_factory=dict)
    smooth_ok: dict[int, np.ndarray] = field(default_factory=dict)


def _exp_gcd(lo: int, hi: int) -> np.ndarray:
    """gcd of the exponents of every n in [lo, hi): the largest k such that
    n is a perfect k-th power, written at m**k for ascending k."""
    out = np.ones(hi - lo, dtype=np.int8)
    k = 2
    while 1 << k <= hi - 1:
        m_lo, m_hi = iroot(lo - 1, k) + 1, iroot(hi - 1, k)
        if m_lo <= m_hi:
            out[np.arange(m_lo, m_hi + 1, dtype=np.int64) ** k - lo] = k
        k += 1
    return out


def iter_blocks(
    limit: int,
    fields: frozenset[str] | set[str] = FIELD_NAMES,
    *,
    ap_primes: tuple[int, ...] = (),
    smooth_bounds: tuple[int, ...] = (),
    block_size: int = BLOCK,
    start: int = 2,
):
    """Yield BlockStats covering [start, limit] in consecutive blocks.

    `fields` selects which statistic arrays are computed; `ap_primes` adds
    exact p-adic valuation arrays for those primes (a non-prime raises
    InvalidArgumentError), and `smooth_bounds` adds boolean is-p0-smooth
    masks for each bound p0, given in any order, each read once after the
    piece of swept primes that ends at p0.  `limit` must be below 2**63, the
    primes swept, up to isqrt(limit), at most PRIME_BOUND_CAP, and
    `block_size` at least 1.  Every yielded array is the block's own.
    """
    unknown = set(fields) - FIELD_NAMES
    if unknown:
        raise InvalidArgumentError(f"unknown bulk fields: {sorted(unknown)}")
    if start < 2:
        raise InvalidArgumentError("bulk scans start at n >= 2")
    for p in ap_primes:
        require_prime(p)
    if limit >= _LIMIT_CAP:
        raise InvalidArgumentError(f"bulk scans need limit < 2**63, got {limit}")
    if block_size < 1:
        raise InvalidArgumentError(f"block size must be at least 1, got {block_size}")
    if limit < start:
        return
    fields = frozenset(fields)
    bounds = sorted(set(smooth_bounds))
    need_full = bool(bounds) or not fields.isdisjoint(_SWEPT)
    primes = small_primes(math.isqrt(limit)) if need_full else None

    for lo in range(start, limit + 1, block_size):
        hi = min(lo + block_size, limit + 1)
        size = hi - lo
        n_arr = np.arange(lo, hi, dtype=np.int64)
        stats = BlockStats(lo=lo, hi=hi, n=n_arr)
        for name, (dtype, unswept) in _SWEPT.items():
            if name in fields:
                setattr(stats, name, np.full(size, unswept, dtype=dtype))
        if "exp_gcd" in fields:
            stats.exp_gcd = _exp_gcd(lo, hi)
        for p in ap_primes:
            # 1 on each p**k view; Python ints, so p**k cannot wrap at 2**63
            val = stats.ap[p] = np.zeros(size, dtype=np.int8)
            pk = p
            while (off := -lo % pk) < size:
                val[off::pk] += 1
                pk *= p

        if need_full:
            # running product of the prime powers found so far; it divides n
            value = np.ones(size, dtype=np.int64)
            swept = primes[: np.searchsorted(primes, math.isqrt(hi - 1), side="right")]
            pieces = np.split(swept, np.searchsorted(swept, bounds, side="right"))
            for i, piece in enumerate(pieces):
                cut = np.searchsorted(piece, T, side="right")
                _sweep_small(stats, value, piece[:cut].tolist())
                _sweep_large(stats, value, piece[cut:])
                if i < len(bounds):
                    # n // value <= p0 by a scalar divisor, clipped to
                    # [0, limit], which keeps the mask exact and in int64
                    p0 = bounds[i]
                    div = min(max(p0, 0), limit) + 1
                    stats.smooth_ok[p0] = n_arr // div < value
            # the cofactor n / value is 1 or a single prime > sqrt(hi)
            has_rem = value < n_arr
            if stats.h_min is not None:
                # h_min is in [1, 127]: 1 on the mask, faster than putmask
                np.minimum(stats.h_min, 127 - 126 * has_rem.view(np.int8), out=stats.h_min)
            if stats.h_max is not None:
                np.maximum(stats.h_max, has_rem, out=stats.h_max)
            if stats.omega is not None:
                stats.omega += has_rem
            if stats.big_omega is not None:
                stats.big_omega += has_rem
            if stats.div_count is not None:
                stats.div_count <<= has_rem  # doubled where the cofactor is prime

        yield stats


def _sweep_small(stats: BlockStats, value: np.ndarray, primes: list[int]) -> None:
    """Sweep one block with primes up to T, each through the strided views of
    its powers' multiples."""
    lo, size = stats.lo, stats.hi - stats.lo
    # fields that combine whole exponents, which a p**k view alone cannot give
    need_exp = any(a is not None for a in (stats.h_min, stats.h_max, stats.div_count))
    for p in primes:
        off = -lo % p
        # exponent of p at each multiple of p, indexed along the p view
        e = np.zeros(len(range(off, size, p)), dtype=np.int8) if need_exp else None
        pk = p
        while (off_k := -lo % pk) < size:
            # `value` gains a factor p and big_omega 1 on each p**k view
            view = value[off_k::pk]
            view *= p
            if stats.big_omega is not None:
                view = stats.big_omega[off_k::pk]
                view += 1
            if e is not None:
                view = e[(off_k - off) // p :: pk // p]
                view += 1
            pk *= p
        if stats.omega is not None:
            view = stats.omega[off::p]
            view += 1
        if stats.h_min is not None:
            view = stats.h_min[off::p]
            np.minimum(view, e, out=view)
        if stats.h_max is not None:
            view = stats.h_max[off::p]
            np.maximum(view, e, out=view)
        if stats.div_count is not None:
            view = stats.div_count[off::p]
            view *= e + 1


def _multiples(
    off: np.ndarray, step: np.ndarray, cnt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The positions off[i] + j * step[i] for j < cnt[i], row after row, and
    the step of each."""
    steps = np.repeat(step, cnt)
    j = np.arange(len(steps)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return np.repeat(off, cnt) + j * steps, steps


def _sweep_large(stats: BlockStats, value: np.ndarray, primes: np.ndarray) -> None:
    """Sweep one block with the primes above T, all at most sqrt(hi), in one
    pass over all their multiples: each has fewer than size / T multiples,
    so a Python step per prime would cost more than its array work.
    Exponents above 1 are rare (p**2 > T**2 at least) and are found by
    division at the multiples of p**2."""
    if not len(primes):
        return
    lo, size = stats.lo, stats.hi - stats.lo
    # int32 remainders (each below p < 2**26) halve the one temporary as long
    # as the prime list, 3.9 million entries in a window near the sieve cap
    off = np.empty(len(primes), dtype=np.int32)
    np.remainder(-lo, primes, out=off, casting="unsafe")
    hit = off < size
    p, off = primes[hit], off[hit]
    pos, p_at = _multiples(off, p, (size - 1 - off) // p + 1)
    p2 = p * p  # below 2**63, as p <= isqrt(limit)
    off2 = np.remainder(-lo, p2)
    cnt2 = (size - 1 - off2) // p2 + 1
    pos2, _ = _multiples(off2, p2, cnt2)
    q = np.repeat(p, cnt2)
    e = np.full(len(pos2), 2, dtype=np.int8)  # exponent of q at pos2
    rest = (pos2 + lo) // (q * q)
    divides = rest % q == 0
    while divides.any():
        e += divides
        rest[divides] //= q[divides]
        divides = rest % q == 0

    # large prime factors of each n, then those of exponent 1
    simple = np.zeros(size, dtype=np.int8)
    np.add.at(simple, pos, np.ones(len(pos), dtype=np.int8))
    if stats.omega is not None:
        stats.omega += simple
    np.subtract.at(simple, pos2, np.ones(len(pos2), dtype=np.int8))
    if stats.big_omega is not None:
        stats.big_omega += simple
        np.add.at(stats.big_omega, pos2, e)
    if stats.h_min is not None:
        np.minimum(stats.h_min, 127 - 126 * (simple > 0).view(np.int8), out=stats.h_min)
        np.minimum.at(stats.h_min, pos2, e)
    if stats.h_max is not None:
        np.maximum(stats.h_max, simple > 0, out=stats.h_max)
        np.maximum.at(stats.h_max, pos2, e)
    if stats.div_count is not None:
        stats.div_count <<= simple
        np.multiply.at(stats.div_count, pos2, e.astype(np.int32) + 1)
    np.multiply.at(value, pos, p_at)
    np.multiply.at(value, pos2, q ** (e - 1))
