"""Lazy strictly-increasing integer sets and the constructions used throughout.

An `IntegerSet` wraps a single-pass generator behind a memoized prefix
buffer, so counting and prefix queries never re-enumerate and the same set
object can back several consumers (single-threaded).  Constructors cover the
floor-power families, the log-corrected power family, smooth numbers, the
naturals and primes, plus union / scale / file input.
"""

from __future__ import annotations

import heapq
import math
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


class IntegerSet:
    """A strictly increasing stream of positive integers with memoized prefix.

    Elements are pulled from the underlying generator exactly once; every
    query (count, prefix, iteration) replays the buffer first.  Strict
    monotonicity is enforced on pull so a buggy construction fails fast.
    """

    def __init__(self, source: Iterable[int], label: str = "set"):
        self._it: Iterator[int] | None = iter(source)
        self._buf: list[int] = []
        self.label = label

    # -- internal -----------------------------------------------------------

    def _pull(self) -> bool:
        """Advance the generator one element; False when exhausted."""
        if self._it is None:
            return False
        try:
            v = next(self._it)
        except StopIteration:
            self._it = None
            return False
        v = int(v)
        if v < 1 or (self._buf and v <= self._buf[-1]):
            raise DataFormatError(
                f"{self.label}: stream not strictly increasing at position "
                f"{len(self._buf) + 1} (got {v})"
            )
        self._buf.append(v)
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

    @property
    def exhausted(self) -> bool:
        return self._it is None

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

    def __iter__(self) -> Iterator[int]:
        i = 0
        while True:
            if i < len(self._buf):
                yield self._buf[i]
                i += 1
            elif not self._pull():
                return

    def write(self, fp: TextIO, terms: int | None = None) -> None:
        """Write elements one per line (the first `terms`, or all if finite)."""
        if terms is not None:
            for v in self.prefix(terms):
                fp.write(f"{v}\n")
            return
        for v in self:
            fp.write(f"{v}\n")


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

    @staticmethod
    def default(cap: int = 10**7) -> "Checkpoints":
        return Checkpoints.geometric(cap)

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
    the floor is exact: a_n = floor((n**den) ** (1/num)) via integer roots.
    Otherwise terms are computed in extended precision with a best-effort
    +-1 correction.  Note the stream skips duplicate floors only for s = 1
    trivially; for s < 1 the map n -> floor(n**(1/s)) is strictly increasing.
    """
    sf = float(s)
    if not 0 < sf <= 1:
        raise InvalidArgumentError(f"power exponent must be in (0, 1], got {s}")
    frac = _as_fraction(s)

    def gen_exact(num: int, den: int) -> Iterator[int]:
        if num == 1:
            n = 1
            while True:
                yield n**den
                n += 1
        else:
            prev = 1
            n = 1
            while True:
                x = n**den
                if n == 1:
                    r = 1
                else:
                    # first-order seed from the previous term; walk at most 8
                    # steps in either direction, else take the exact root
                    # (the seed's error grows like prev / n**2, so steep
                    # exponents need the fallback routinely)
                    r = prev + (den * prev) // (num * (n - 1)) + 1
                    if r**num > x:
                        for _ in range(8):
                            r -= 1
                            if r**num <= x:
                                break
                        else:
                            r = iroot(x, num)
                    elif (r + 1) ** num <= x:
                        for _ in range(8):
                            r += 1
                            if (r + 1) ** num > x:
                                break
                        else:
                            r = iroot(x, num)
                yield r
                prev = r
                n += 1

    def gen_float() -> Iterator[int]:
        ln = np.log
        n = 1
        while True:
            v = np.exp(ln(np.longdouble(n)) / np.longdouble(sf))
            a = int(np.floor(v))
            # correct the floor where extended precision is decisive
            while a >= 1 and sf * float(ln(np.longdouble(a))) > float(
                ln(np.longdouble(n))
            ) * (1 + 1e-18):
                a -= 1
            yield max(a, 1)
            n += 1

    if frac is not None:
        src = gen_exact(frac.numerator, frac.denominator)
    else:
        src = gen_float()
    return IntegerSet(src, label=f"power({sf:g})")


def logpower_set(q: float) -> IntegerSet:
    """The set {floor(n**(1/q) * log(n+1)**(2/q)) + 1 : n >= 1}, 0 < q < 1.

    Terms are evaluated in extended precision (long double); the logarithm
    makes an exact floor impossible in principle, so values within ~1e-18
    relative of an integer boundary could floor either way — none occur in
    the tested ranges.
    """
    if not 0 < q < 1:
        raise InvalidArgumentError(f"logpower exponent must be in (0, 1), got {q}")

    def gen() -> Iterator[int]:
        qd = np.longdouble(q)
        n = 1
        while True:
            nd = np.longdouble(n)
            v = np.exp(np.log(nd) / qd + (2 / qd) * np.log(np.log(nd + 1)))
            yield int(np.floor(v)) + 1
            n += 1

    return IntegerSet(gen(), label=f"logpower({q:g})")


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

    def gen() -> Iterator[int]:
        heap: list[tuple[int, int]] = [(1, 0)]
        while heap:
            v, i = heapq.heappop(heap)
            yield v
            for j in range(i, len(ps)):
                heapq.heappush(heap, (v * ps[j], j))

    label = "smooth({})".format(",".join(str(p) for p in ps))
    return IntegerSet(gen(), label=label)


def naturals() -> IntegerSet:
    def gen() -> Iterator[int]:
        n = 1
        while True:
            yield n
            n += 1

    return IntegerSet(gen(), label="naturals")


def primes_set() -> IntegerSet:
    """The primes, via an unbounded segmented sieve seeded by `small_primes`."""

    def gen() -> Iterator[int]:
        lo, width = 2, 1 << 16
        while True:
            hi = lo + width
            seg = np.ones(width, dtype=bool)
            for p in small_primes(math.isqrt(hi - 1)):
                seg[max(p * p, -(-lo // p) * p) - lo :: p] = False
            for off in np.flatnonzero(seg):
                yield lo + int(off)
            lo = hi
            width = min(width * 2, 1 << 22)

    return IntegerSet(gen(), label="primes")


def union(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """Merged stream of two sets, duplicates collapsed."""

    def gen() -> Iterator[int]:
        ia, ib = iter(a), iter(b)
        va = next(ia, None)
        vb = next(ib, None)
        while va is not None or vb is not None:
            if vb is None or (va is not None and va < vb):
                yield va
                va = next(ia, None)
            elif va is None or vb < va:
                yield vb
                vb = next(ib, None)
            else:  # equal heads
                yield va
                va = next(ia, None)
                vb = next(ib, None)

    return IntegerSet(gen(), label=f"union({a.label},{b.label})")


def scale(a: IntegerSet, k: int) -> IntegerSet:
    """The set {k * a : a in A} for an integer k >= 1."""
    if k < 1:
        raise InvalidArgumentError(f"scale factor must be >= 1, got {k}")

    def gen() -> Iterator[int]:
        for v in a:
            yield k * v

    return IntegerSet(gen(), label=f"scale({a.label},{k})")


def from_iterable(values: Iterable[int], label: str = "explicit") -> IntegerSet:
    return IntegerSet(list(values), label=label)


def from_file(path: str) -> IntegerSet:
    """Read a set from a text file, one integer per line.

    Blank lines are ignored.  Raises DataFormatError naming the first
    offending line if a value is not an integer or not strictly increasing.
    """
    values: list[int] = []
    with open(path) as fp:
        for lineno, line in enumerate(fp, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                v = int(text)
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: not an integer: {text!r}"
                ) from None
            if v < 1:
                raise DataFormatError(f"{path}:{lineno}: values must be >= 1")
            if values and v <= values[-1]:
                raise DataFormatError(
                    f"{path}:{lineno}: values must be strictly increasing "
                    f"({v} after {values[-1]})"
                )
            values.append(v)
    if not values:
        raise DataFormatError(f"{path}: no values found")
    return IntegerSet(values, label=path)
