"""Lazy strictly-increasing integer sets and the constructions used throughout.

An `IntegerSet` wraps a single-pass stream of chunks (lists of ints, most
CHUNK long) behind a memoized prefix buffer, so counting and prefix queries
never re-enumerate and the same set object can back several consumers
(single-threaded).  Constructors build each chunk with array arithmetic
where it is exact, and cover the floor-power families, the log-corrected
power family, smooth numbers, the naturals and primes, plus union / scale /
file input.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .arith import iroot, is_prime
from .bulk import small_primes
from .errors import DataFormatError, InsufficientDataError, InvalidArgumentError

__all__ = [
    "IntegerSet",
    "Checkpoints",
    "power_set",
    "logpower_set",
    "smooth_set",
    "naturals",
    "primes_set",
    "union",
    "scale",
    "from_iterable",
    "from_file",
]

# Elements per chunk that the constructors build at a time.
CHUNK = 1 << 12


def _first_disorder(values: list[int], last: int) -> int:
    """Index of the first value not above its predecessor (`last` before
    values[0]), or -1 when the values rise strictly."""
    if values[0] > last and all(map(operator.lt, values, values[1:])):
        return -1
    return next(
        i for i, v in enumerate(values) if v <= (values[i - 1] if i else last)
    )


class IntegerSet:
    """A strictly increasing stream of positive integers with memoized prefix.

    The source yields chunks: lists of ints, each continuing the last.  A
    chunk is pulled exactly once, checked for strict increase in one pass
    and appended to the buffer; every query (count, prefix, iteration)
    replays the buffer first, so a buggy construction fails fast.
    """

    def __init__(self, source: Iterable[list[int]], label: str = "set"):
        self._it: Iterator[list[int]] | None = iter(source)
        self._buf: list[int] = []
        self.label = label

    # -- internal -----------------------------------------------------------

    def _pull(self) -> bool:
        """Append the next non-empty chunk; False when exhausted."""
        if self._it is None:
            return False
        for chunk in self._it:
            if chunk:
                break
        else:
            self._it = None
            return False
        i = _first_disorder(chunk, self._buf[-1] if self._buf else 0)
        if i >= 0:
            raise DataFormatError(
                f"{self.label}: stream not strictly increasing at position "
                f"{len(self._buf) + i + 1} (got {chunk[i]})"
            )
        self._buf += chunk
        return True

    def _ensure_terms(self, k: int) -> None:
        while len(self._buf) < k:
            if not self._pull():
                raise InsufficientDataError(
                    f"{self.label}: only {len(self._buf)} elements available, "
                    f"{k} requested"
                )

    def _ensure_upto(self, x: float) -> None:
        while (not self._buf or self._buf[-1] <= x) and self._pull():
            pass

    # -- queries ------------------------------------------------------------

    def term(self, i: int) -> int:
        """The i-th element, 1-indexed."""
        if i < 1:
            raise InvalidArgumentError(f"term index must be >= 1, got {i}")
        self._ensure_terms(i)
        return self._buf[i - 1]

    def prefix(self, k: int) -> list[int]:
        """The first k elements."""
        if k < 0:
            raise InvalidArgumentError(f"prefix length must be >= 0, got {k}")
        self._ensure_terms(k)
        return self._buf[:k]

    def count(self, x: float) -> int:
        """A(x): number of elements <= x."""
        self._ensure_upto(x)
        return bisect_right(self._buf, x)

    def chunks(self) -> Iterator[list[int]]:
        """All elements in order, as lists of at most CHUNK: the buffer
        first, then each chunk as it is pulled."""
        i = 0
        while i < len(self._buf) or self._pull():
            j = min(len(self._buf), i + CHUNK)
            yield self._buf[i:j]
            i = j

    def __iter__(self) -> Iterator[int]:
        for chunk in self.chunks():
            yield from chunk

    def write(self, fp: TextIO, terms: int | None = None) -> None:
        """Write elements one per line (the first `terms`, or all if finite),
        one write per chunk."""
        if terms is None:
            chunks = self.chunks()
        else:
            head = self.prefix(terms)
            chunks = (head[i : i + CHUNK] for i in range(0, terms, CHUNK))
        for chunk in chunks:
            fp.write("\n".join(map(str, chunk)) + "\n")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoints:
    """Strictly increasing evaluation points (each >= 2) for counting reports."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise InvalidArgumentError("checkpoints must be non-empty")
        if any(v < 2 for v in self.values):
            raise InvalidArgumentError("checkpoints must all be >= 2")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise InvalidArgumentError("checkpoints must be strictly increasing")

    @staticmethod
    def geometric(cap: int, start: int = 1000, factor: int = 2) -> "Checkpoints":
        """start, start*factor, ... up to cap."""
        if start < 2 or factor < 2 or cap < start:
            raise InvalidArgumentError(
                f"need start >= 2, factor >= 2, cap >= start "
                f"(got start={start}, factor={factor}, cap={cap})"
            )
        vals = []
        v = start
        while v <= cap:
            vals.append(v)
            v *= factor
        return Checkpoints(tuple(vals))

    def decades(self) -> float:
        return math.log10(self.values[-1] / self.values[0])


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _as_fraction(s: float | Fraction) -> Fraction | None:
    """Recognize s as a small exact rational, else None."""
    if isinstance(s, Fraction):
        return s
    frac = Fraction(s).limit_denominator(1000)
    return frac if abs(float(frac) - float(s)) < 1e-12 else None


def power_set(s: float | Fraction) -> IntegerSet:
    """The set {floor(n ** (1/s)) : n >= 1} for an exponent s in (0, 1].

    When s is (or rounds to, within 1e-12) a rational num/den with den <= 1000
    the floor is exact: a_n = floor((n**den) ** (1/num)), from integer powers
    (num = 1) or from float64 roots checked with integer roots.
    Otherwise terms are computed in extended precision with a best-effort
    correction, and a term past the long double range (about 2**16384)
    raises InvalidArgumentError.  For s < 1 the map n -> floor(n**(1/s))
    is strictly increasing, so the stream has no duplicates.
    """
    sf = float(s)
    if not 0 < sf <= 1:
        raise InvalidArgumentError(f"power exponent must be in (0, 1], got {s}")
    frac = _as_fraction(s)
    if frac is None:
        src = _float_power_chunks(sf, f"power({sf:g})")
    elif frac.numerator == 1:
        src = _power_chunks(frac.denominator)
    else:
        src = _root_chunks(frac.numerator, frac.denominator)
    return IntegerSet(src, label=f"power({sf:g})")


def _power_chunks(den: int) -> Iterator[list[int]]:
    """n**den for n >= 1, by chunks; in int64 while the values fit."""
    for lo in itertools.count(1, CHUNK):
        hi = lo + CHUNK
        if (hi - 1) ** den < 2**63:
            yield (np.arange(lo, hi, dtype=np.int64) ** den).tolist()
        else:
            yield [n**den for n in range(lo, hi)]


# log(2**52): below 2**52 a float64 floor is exact and n ** e is within
# 4e-15 relative (the rounding of e costs at most log(2**52) half-ulps).
_LOG_FLOAT_EXACT = 52 * math.log(2)


def _root_chunks(num: int, den: int) -> Iterator[list[int]]:
    """floor(n ** (den/num)) for n >= 1 and num > 1, exactly, by chunks."""
    e = den / num
    prev = 0
    for lo in itertools.count(1, CHUNK):
        hi = lo + CHUNK
        if e * math.log(hi - 1) < _LOG_FLOAT_EXACT:
            v = np.arange(lo, hi, dtype=np.float64) ** e
            f = np.floor(v)
            # only a floor within 1e-14 * v of an integer can be off; past
            # about 5e13 that is every floor, still faster than the walk
            near = np.flatnonzero(np.minimum(v - f, f + 1 - v) < 1e-14 * v)
            out = f.astype(np.int64).tolist()
            for i in near.tolist():
                out[i] = iroot((lo + i) ** den, num)
        else:
            out = []
            for n in range(lo, hi):
                prev = _root_step(prev, n, num, den) if n > 1 else 1
                out.append(prev)
        prev = out[-1]
        yield out


def _root_step(prev: int, n: int, num: int, den: int) -> int:
    """floor((n**den) ** (1/num)) for n >= 2, given the term prev at n - 1."""
    x = n**den
    # first-order seed from the previous term; walk at most 8 steps in
    # either direction, else take the exact root (the seed's error grows
    # like prev / n**2, so steep exponents need the fallback routinely)
    r = prev + (den * prev) // (num * (n - 1)) + 1
    if r**num > x:
        for _ in range(8):
            r -= 1
            if r**num <= x:
                return r
        return iroot(x, num)
    if (r + 1) ** num <= x:
        for _ in range(8):
            r += 1
            if (r + 1) ** num > x:
                return r
        return iroot(x, num)
    return r


def _ints(f: np.ndarray) -> list[int]:
    """Python ints of a nondecreasing array of integral floats, one by one
    once the last reaches 2**63, where an int64 cast would overflow."""
    if f.size and f[-1] >= 2.0**63:
        return [int(x) for x in f]
    return f.astype(np.int64).tolist()


def _finite_head(f: np.ndarray) -> np.ndarray:
    """A nondecreasing array up to its first infinite value."""
    return f[: np.searchsorted(f, np.inf)]


def _overflow(label: str, n: int) -> InvalidArgumentError:
    return InvalidArgumentError(f"{label}: term {n} exceeds the long double range")


def _float_power_chunks(sf: float, label: str) -> Iterator[list[int]]:
    """floor(n ** (1/sf)) in long double, corrected down where float64 logs
    say the floor is too high, by chunks; raises once a term overflows."""
    inv = np.longdouble(sf)
    for lo in itertools.count(1, CHUNK):
        ln_n = np.log(np.arange(lo, lo + CHUNK, dtype=np.longdouble))
        with np.errstate(over="ignore"):
            f = _finite_head(np.floor(np.exp(ln_n / inv)))
        out = _ints(f)
        ln_n = ln_n[: f.size].astype(np.float64)
        # below 2**64 only: past it a long double no longer tells a from
        # a - 1, and float64 logs are far coarser than the floor they check
        high = (sf * np.log(f).astype(np.float64) > ln_n) & (f < 2.0**64)
        for i in np.flatnonzero(high).tolist():
            x = ln_n[i]
            a = _last_false(out[i], lambda m: sf * float(np.log(np.longdouble(m))) > x)
            out[i] = max(a, 1)
        yield out
        if f.size < CHUNK:
            raise _overflow(label, lo + f.size)


def _last_false(a: int, too_high: Callable[[int], bool]) -> int:
    """The largest a' < a with too_high(a') false, or 0, given that
    too_high(a) holds and too_high rises with its argument.

    This is where stepping a down by one ends, found by doubling steps and
    bisection: once a is far past 2**53, float64 logs of a and of a - 1 are
    equal and that walk would take about a * 1e-16 steps.
    """
    hi, step = a, 1  # too_high(hi) holds
    while a - step >= 1 and too_high(a - step):
        hi, step = a - step, step * 2
    lo = max(a - step, 0)  # too_high(lo) fails, or lo == 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if too_high(mid):
            hi = mid
        else:
            lo = mid
    return lo


def logpower_set(q: float) -> IntegerSet:
    """The set {floor(n**(1/q) * log(n+1)**(2/q)) + 1 : n >= 1}, 0 < q < 1.

    Terms are evaluated in extended precision (long double); the logarithm
    makes an exact floor impossible in principle, so values within ~1e-18
    relative of an integer boundary could floor either way — none occur in
    the tested ranges.  A term past the long double range raises
    InvalidArgumentError.
    """
    if not 0 < q < 1:
        raise InvalidArgumentError(f"logpower exponent must be in (0, 1), got {q}")

    label = f"logpower({q:g})"

    def gen() -> Iterator[list[int]]:
        qd = np.longdouble(q)
        for lo in itertools.count(1, CHUNK):
            nd = np.arange(lo, lo + CHUNK, dtype=np.longdouble)
            with np.errstate(over="ignore"):
                v = np.exp(np.log(nd) / qd + (2 / qd) * np.log(np.log(nd + 1)))
            f = _finite_head(np.floor(v))
            yield [a + 1 for a in _ints(f)]
            if f.size < CHUNK:
                raise _overflow(label, lo + f.size)

    return IntegerSet(gen(), label=label)


def smooth_set(primes: Iterable[int]) -> IntegerSet:
    """All products of powers of the given primes (including 1), in order.

    A k-way heap merge over the multiplicative lattice: each popped value m
    pushes m*p for every allowed prime p not smaller than the largest prime
    already used, so every product is generated exactly once.
    """
    ps = sorted(set(int(p) for p in primes))
    if not ps:
        raise InvalidArgumentError("smooth_set needs at least one prime")
    for p in ps:
        if not is_prime(p):
            raise InvalidArgumentError(f"smooth_set: {p} is not prime")

    def gen() -> Iterator[list[int]]:
        heap: list[tuple[int, int]] = [(1, 0)]
        while heap:
            out = []
            while heap and len(out) < CHUNK:
                v, i = heapq.heappop(heap)
                out.append(v)
                for j in range(i, len(ps)):
                    heapq.heappush(heap, (v * ps[j], j))
            yield out

    label = "smooth({})".format(",".join(str(p) for p in ps))
    return IntegerSet(gen(), label=label)


def naturals() -> IntegerSet:
    return IntegerSet(
        (list(range(lo, lo + CHUNK)) for lo in itertools.count(1, CHUNK)),
        label="naturals",
    )


def primes_set() -> IntegerSet:
    """The primes, sieved window by window with `small_primes`.  The windows
    end at 2**16, 2**17, ... and then at multiples of 2**20, so the stream
    holds every prime below the sieve's cap 2**26 and raises
    InvalidArgumentError when pulled past them."""

    def gen() -> Iterator[list[int]]:
        lo, hi = 2, 1 << 16
        while True:
            found = small_primes(hi - 1, start=lo)
            for i in range(0, len(found), CHUNK):
                yield found[i : i + CHUNK].tolist()
            lo, hi = hi, hi + min(hi, 1 << 20)

    return IntegerSet(gen(), label="primes")


def union(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """Merged stream of two sets, duplicates collapsed.

    Each step merges the pending runs of both sides up to the smaller of
    their last elements, so at least one side's run is used up.
    """

    def gen() -> Iterator[list[int]]:
        ca, cb = a.chunks(), b.chunks()
        ra, rb = next(ca, None), next(cb, None)  # None once a side is done
        while ra is not None and rb is not None:
            cut = min(ra[-1], rb[-1])
            i, j = bisect_right(ra, cut), bisect_right(rb, cut)
            seen = set(ra[:i])
            merged = ra[:i] + [v for v in rb[:j] if v not in seen]
            merged.sort()  # two sorted runs: one linear merge
            yield merged
            ra, rb = ra[i:] or next(ca, None), rb[j:] or next(cb, None)
        for run, rest in ((ra, ca), (rb, cb)):
            if run is not None:
                yield run
                yield from rest

    return IntegerSet(gen(), label=f"union({a.label},{b.label})")


def scale(a: IntegerSet, k: int) -> IntegerSet:
    """The set {k * a : a in A} for an integer k >= 1."""
    if k < 1:
        raise InvalidArgumentError(f"scale factor must be >= 1, got {k}")
    return IntegerSet(
        ([k * v for v in chunk] for chunk in a.chunks()), label=f"scale({a.label},{k})"
    )


def from_iterable(values: Iterable[int], label: str = "explicit") -> IntegerSet:
    return IntegerSet([list(map(int, values))], label=label)


def from_file(path: str) -> IntegerSet:
    """Read a set from a text file, one integer per line.

    Blank lines are ignored.  Raises DataFormatError naming the first
    offending line if a value is not an integer or not strictly increasing.
    The parsed list, checked once, becomes the set's buffer.
    """
    with open(path) as fp:
        try:
            values = list(map(int, fp))  # so value i is on line i + 1
        except ValueError:  # a blank line or a non-integer
            fp.seek(0)
            values = _parse_lines(path, fp)
        else:
            i = _first_disorder(values, 0) if values else -1
            if i >= 0:
                raise _order_error(path, i + 1, values[i], values[i - 1])
    if not values:
        raise DataFormatError(f"{path}: no values found")
    a = IntegerSet((), label=path)
    a._buf = values
    return a


def _parse_lines(path: str, lines: Iterable[str]) -> list[int]:
    """The values of the non-blank lines, checked line by line."""
    values: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            v = int(text)
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: not an integer: {text!r}") from None
        prev = values[-1] if values else 0
        if v <= prev:
            raise _order_error(path, lineno, v, prev)
        values.append(v)
    return values


def _order_error(path: str, lineno: int, v: int, prev: int) -> DataFormatError:
    if v < 1:
        return DataFormatError(f"{path}:{lineno}: values must be >= 1")
    return DataFormatError(
        f"{path}:{lineno}: values must be strictly increasing ({v} after {prev})"
    )
