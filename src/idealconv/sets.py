"""Lazy strictly-increasing integer sets and the constructions used throughout.

An `IntegerSet` wraps a single-pass stream of chunks (most CHUNK long)
behind a memoized prefix buffer, so counting and prefix queries never
re-enumerate and the same set object can back several consumers
(single-threaded).  A chunk is a list of ints or, where its values are
exact in int64, an int64 array.  The buffer keeps the elements below 2**63
in one int64 array (at most 16 bytes an element, with its spare capacity)
and those at or above 2**63 in a list of Python ints; every query still
answers in Python ints.  Constructors build each chunk with array arithmetic
where it is exact, and cover the floor-power families, the log-corrected
power family, smooth numbers, the naturals and primes, plus union / scale /
file input.
"""

from __future__ import annotations

import heapq
import io
import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .arith import iroot, require_prime
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

# A source's chunk: a list of ints, or an int64 array of values below 2**63.
Chunk = list[int] | np.ndarray


def _first_disorder(values: list[int], last: int) -> int:
    """Index of the first value not above its predecessor (`last` before
    values[0]), or -1 when the values rise strictly."""
    if values[0] > last and all(map(operator.lt, values, values[1:])):
        return -1
    return next(
        i for i, v in enumerate(values) if v <= (values[i - 1] if i else last)
    )


class _Buffer:
    """The elements a set has pulled, strictly increasing: those below 2**63
    in an int64 array whose capacity doubles as it fills, then those at or
    above 2**63 in the list `big`.  The split between the two parts is the
    number of elements in the array."""

    def __init__(self) -> None:
        self._arr = np.empty(0, dtype=np.int64)
        self.split = 0
        self.big: list[int] = []

    def __len__(self) -> int:
        return self.split + len(self.big)

    def last(self) -> int:
        """The last element, or 0 when there is none."""
        if self.big:
            return self.big[-1]
        return int(self._arr[self.split - 1]) if self.split else 0

    def append(self, values: np.ndarray) -> None:
        """Append int64 values that continue the array part (`big` is empty)."""
        n, m = self.split, len(values)
        if n + m > len(self._arr):
            grown = np.empty(max(2 * len(self._arr), n + m), dtype=np.int64)
            grown[:n] = self._arr[:n]
            self._arr = grown
        self._arr[n : n + m] = values
        self.split = n + m

    def runs(self, i: int, j: int) -> Iterator[Chunk]:
        """Elements i to j - 1 (from 0): a view of those below the split,
        then a list of those past it; an empty part is left out."""
        n = self.split
        if i < n:
            yield self._arr[i : min(j, n)]
        if j > n:
            yield self.big[max(i - n, 0) : j - n]

    def tolist(self, i: int, j: int) -> list[int]:
        """Elements i to j - 1 (from 0) as Python ints."""
        n = self.split
        out = self._arr[min(i, n) : min(j, n)].tolist()
        if j > n:
            out += self.big[max(i - n, 0) : j - n]
        return out

    def count(self, x: float) -> int:
        """The number of elements <= x, for x not nan; exact for an int x of
        any size and for any float x."""
        if x >= 2**63:
            return self.split + bisect_right(self.big, x)
        if x < 1:  # every element is at least 1
            return 0
        # an int64 compared with a float is rounded to float: compare the
        # integer floor(x) instead, below 2**63 here
        return int(np.searchsorted(self._arr[: self.split], math.floor(x), side="right"))


class IntegerSet:
    """A strictly increasing stream of positive integers with memoized prefix.

    The source yields chunks, each continuing the last: lists of ints, or
    int64 arrays where the values fit.  A chunk is pulled exactly once,
    checked for strict increase in one pass (vectorised for an int64 array,
    or a list whose values all fit in one) and appended to the buffer: an
    int64 array for the elements below 2**63 and a list of Python ints for
    the rest, the split between them a single index.  Every query (count,
    prefix, term, iteration) replays the buffer first, so a buggy
    construction fails fast, and answers in Python ints.
    """

    def __init__(self, source: Iterable[Chunk], label: str = "set"):
        self._it: Iterator[Chunk] | None = iter(source)
        self._buf = _Buffer()
        self.label = label

    # -- internal -----------------------------------------------------------

    def _pull(self) -> bool:
        """Append the next non-empty chunk; False when exhausted."""
        if self._it is None:
            return False
        for chunk in self._it:
            if len(chunk):
                break
        else:
            self._it = None
            return False
        self._push(chunk)
        return True

    def _push(self, chunk: Chunk) -> None:
        """Check that a non-empty chunk continues the buffer and append it."""
        buf = self._buf
        last = buf.last()
        if isinstance(chunk, np.ndarray):
            self._require_int64(chunk)
            head = chunk
        else:  # int64 when every value is an integer below 2**63
            head = None if buf.big or chunk[-1] >= 2**63 else np.array(chunk)
        if head is not None and head.dtype == np.int64:
            if int(head[0]) > last and (head[1:] > head[:-1]).all():
                buf.append(head)
                return
        values = chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
        i = _first_disorder(values, last)
        if i >= 0:
            raise DataFormatError(
                f"{self.label}: stream not strictly increasing at position "
                f"{len(buf) + i + 1} (got {values[i]})"
            )
        # a list that reaches 2**63, or holds values that are not integers
        split = 0 if buf.big else bisect_left(values, 2**63)
        if split:  # the split lies in this chunk, so `big` is empty
            head = np.array(values[:split])
            self._require_int64(head)
            buf.append(head)
            buf.big = values[split:]
        else:
            buf.big += values

    def _require_int64(self, values: np.ndarray) -> None:
        if values.dtype != np.int64:
            raise DataFormatError(f"{self.label}: a chunk of dtype {values.dtype}, not int64")

    def _ensure_terms(self, k: int) -> None:
        while len(self._buf) < k:
            if not self._pull():
                raise InsufficientDataError(
                    f"{self.label}: only {len(self._buf)} elements available, "
                    f"{k} requested"
                )

    def _ensure_upto(self, x: float) -> None:
        while (not self._buf or self._buf.last() <= x) and self._pull():
            pass

    def _spans(self) -> Iterator[tuple[int, int]]:
        """Buffer positions [i, j) that cover every element in order, at most
        CHUNK each: the buffer first, then each chunk as it is pulled."""
        i = 0
        while i < len(self._buf) or self._pull():
            j = min(len(self._buf), i + CHUNK)
            yield i, j
            i = j

    def _runs(self) -> Iterator[Chunk]:
        """All elements in order: int64 arrays below 2**63, lists past it."""
        for i, j in self._spans():
            yield from self._buf.runs(i, j)

    # -- queries ------------------------------------------------------------

    def term(self, i: int) -> int:
        """The i-th element, 1-indexed."""
        if i < 1:
            raise InvalidArgumentError(f"term index must be >= 1, got {i}")
        self._ensure_terms(i)
        return self._buf.tolist(i - 1, i)[0]

    def prefix(self, k: int) -> list[int]:
        """The first k elements."""
        if k < 0:
            raise InvalidArgumentError(f"prefix length must be >= 0, got {k}")
        return self.slice(0, k)

    def slice(self, i: int, j: int) -> list[int]:
        """The elements at 0-indexed positions i to j - 1, as prefix(j)[i:]
        without copying the first i."""
        if not 0 <= i <= j:
            raise InvalidArgumentError(f"slice needs 0 <= i <= j, got i={i}, j={j}")
        self._ensure_terms(j)
        return self._buf.tolist(i, j)

    def count(self, x: float) -> int:
        """A(x): number of elements <= x, exact for an int or a float x;
        x = nan is refused."""
        if x != x:
            raise InvalidArgumentError(f"{self.label}: cannot count the elements <= {x}")
        self._ensure_upto(x)
        return self._buf.count(x)

    def chunks(self) -> Iterator[list[int]]:
        """All elements in order, as lists of at most CHUNK: the buffer
        first, then each chunk as it is pulled."""
        for i, j in self._spans():
            yield self._buf.tolist(i, j)

    def __iter__(self) -> Iterator[int]:
        for chunk in self.chunks():
            yield from chunk

    def write(self, fp: TextIO, terms: int) -> None:
        """Write the first `terms` elements one per line, one write per
        chunk."""
        if terms < 0:
            raise InvalidArgumentError(f"terms must be >= 0, got {terms}")
        self._ensure_terms(terms)
        for i in range(0, terms, CHUNK):
            part = self._buf.tolist(i, min(i + CHUNK, terms))
            fp.write(("%d\n" * len(part)) % tuple(part))


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
    """Recognize s as a small exact rational other than 0, else None."""
    if isinstance(s, Fraction):
        return s
    frac = Fraction(s).limit_denominator(1000)
    return frac if frac and abs(float(frac) - float(s)) < 1e-12 else None


def power_set(s: float | Fraction) -> IntegerSet:
    """The set {floor(n ** (1/s)) : n >= 1} for an exponent s in (0, 1].

    When s is (or rounds to, within 1e-12) a rational num/den with den <= 1000
    the floor is exact: a_n = floor((n**den) ** (1/num)), from integer powers
    (num = 1), or from float64 roots checked with integer roots while the
    terms stay below 2**52 and from integer roots past it.
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


def _power_chunks(den: int) -> Iterator[Chunk]:
    """n**den for n >= 1, by chunks: int64 arrays while the values fit.
    Past 2**63, with a the largest exponent that keeps the chunk's n**a
    below 2**63, a chunk is n**r * (n**a)**k (den = k*a + r, 1 <= r <= a):
    the int64 powers n**r and n**a as lists of Python ints, multiplied
    element by element, with (n**a)**k taken by squaring.  Such a chunk is
    cut short to about 2**24 bits, so that a large den does not compute
    thousands of powers when a few are asked for."""
    hi = 1
    while True:
        lo, hi = hi, hi + CHUNK
        if (hi - 1) ** den < 2**63:
            yield np.arange(lo, hi, dtype=np.int64) ** den
            continue
        hi = lo + max(1, min(CHUNK, (1 << 24) // (den * (hi - 1).bit_length())))
        n = np.arange(lo, hi, dtype=np.int64)
        a = 1
        while (hi - 1) ** (a + 1) < 2**63:
            a += 1
        k, r = divmod(den - 1, a)
        r += 1
        out, base = (n**r).tolist(), (n**a).tolist()
        while k:
            if k & 1:
                out = list(map(operator.mul, out, base))
            k >>= 1
            if k:
                base = list(map(operator.mul, base, base))
        yield out


# log(2**52): below 2**52 a float64 floor is exact and n ** e is within
# 4e-15 relative (the rounding of e costs at most log(2**52) half-ulps).
_LOG_FLOAT_EXACT = 52 * math.log(2)

# Bits of n**den that one chunk of integer roots takes at most.
_ROOT_BITS = 1 << 20


def _root_chunks(num: int, den: int) -> Iterator[Chunk]:
    """floor(n ** (den/num)) for n >= 1 and num > 1, exactly, by chunks:
    int64 arrays below 2**52, lists past it.  A chunk past 2**52 is cut short
    to about _ROOT_BITS bits of n**den, so that a large den does not take
    thousands of roots when a few terms are asked for."""
    e = den / num
    hi = 1
    while True:
        lo, hi = hi, hi + CHUNK
        if e * math.log(hi - 1) < _LOG_FLOAT_EXACT:
            v = np.arange(lo, hi, dtype=np.float64) ** e
            f = np.floor(v)
            # only a floor within 1e-14 * v of an integer can be off; past
            # about 5e13 that is every floor
            near = np.flatnonzero(np.minimum(v - f, f + 1 - v) < 1e-14 * v)
            out = f.astype(np.int64)
            for i in near.tolist():
                out[i] = iroot((lo + i) ** den, num)
        else:
            hi = lo + max(1, min(CHUNK, _ROOT_BITS // (den * (hi - 1).bit_length())))
            out = [iroot(n**den, num) for n in range(lo, hi)]
        yield out


def _long_double_floors(
    log_term: Callable[[np.ndarray, np.ndarray], np.ndarray], label: str, plus: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray, Chunk]]:
    """ln n, the long-double floors f of exp(log_term(ln n, n)) up to the first
    infinite one, and the chunk f + plus (int64, or Python ints once the last
    reaches 2**63) for n = 1, 2, ... by chunks; raises after a chunk cut short."""
    for lo in itertools.count(1, CHUNK):
        n = np.arange(lo, lo + CHUNK, dtype=np.longdouble)
        ln_n = np.log(n)
        with np.errstate(over="ignore"):
            f = np.floor(np.exp(log_term(ln_n, n)))
        f = f[: np.searchsorted(f, np.inf)]  # f is nondecreasing
        if f.size and f[-1] + plus >= 2.0**63:
            out = [int(x) + plus for x in f]
        else:
            out = f.astype(np.int64) + plus
        yield ln_n[: f.size], f, out
        if f.size < CHUNK:
            raise InvalidArgumentError(
                f"{label}: term {lo + f.size} exceeds the long double range"
            )


def _float_power_chunks(sf: float, label: str) -> Iterator[Chunk]:
    """floor(n ** (1/sf)) in long double, corrected down where float64 logs
    say the floor is too high, by chunks; raises once a term overflows."""
    inv = np.longdouble(sf)
    for ln_n, f, out in _long_double_floors(lambda ln_n, n: ln_n / inv, label):
        ln_n = ln_n.astype(np.float64)
        # below 2**64 only: past it a long double no longer tells a from
        # a - 1, and float64 logs are far coarser than the floor they check
        high = (sf * np.log(f).astype(np.float64) > ln_n) & (f < 2.0**64)
        for i in np.flatnonzero(high).tolist():
            x = ln_n[i]
            a = _last_false(int(out[i]), lambda m: sf * float(np.log(np.longdouble(m))) > x)
            out[i] = max(a, 1)
        yield out


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

    qd = np.longdouble(q)
    label = f"logpower({q:g})"
    floors = _long_double_floors(
        lambda ln_n, n: ln_n / qd + (2 / qd) * np.log(np.log(n + 1)), label, plus=1
    )
    return IntegerSet((out for _, _, out in floors), label=label)


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
        require_prime(p)

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
        (np.arange(lo, lo + CHUNK, dtype=np.int64) for lo in itertools.count(1, CHUNK)),
        label="naturals",
    )


def primes_set() -> IntegerSet:
    """The primes, sieved window by window with `small_primes`.  The windows
    end at 2**16, 2**17, ... and then at multiples of 2**20, so the stream
    holds every prime below the sieve's cap 2**26 and raises
    InvalidArgumentError when pulled past them."""

    def gen() -> Iterator[np.ndarray]:
        lo, hi = 2, 1 << 16
        while True:
            found = small_primes(hi - 1, start=lo)
            for i in range(0, len(found), CHUNK):
                yield found[i : i + CHUNK]
            lo, hi = hi, hi + min(hi, 1 << 20)

    return IntegerSet(gen(), label="primes")


def union(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """Merged stream of two sets, duplicates collapsed.

    Each step merges the pending runs of both sides up to the smaller of
    their last elements, so at least one side's run is used up.
    """

    def gen() -> Iterator[Chunk]:
        ca, cb = a._runs(), b._runs()
        ra, rb = next(ca, None), next(cb, None)  # None once a side is done
        while ra is not None and rb is not None:
            cut = min(int(ra[-1]), int(rb[-1]))
            i, j = bisect_right(ra, cut), bisect_right(rb, cut)
            yield _merge(ra[:i], rb[:j])
            ra = ra[i:] if i < len(ra) else next(ca, None)
            rb = rb[j:] if j < len(rb) else next(cb, None)
        for run, rest in ((ra, ca), (rb, cb)):
            if run is not None:
                yield run
                yield from rest

    return IntegerSet(gen(), label=f"union({a.label},{b.label})")


def _merge(x: Chunk, y: Chunk) -> Chunk:
    """Two strictly increasing runs as one, a value in both kept once.  Both
    are int64 arrays or both lists, when neither is empty: an array run
    lies below 2**63 and a list run past it, so the cut at the smaller last
    element leaves nothing of one of them."""
    if not len(y):
        return x
    if not len(x):
        return y
    if isinstance(x, list):
        seen = set(x)
        merged = x + [v for v in y if v not in seen]
        merged.sort()  # two sorted runs: one linear merge
        return merged
    merged = np.sort(np.concatenate((x, y)), kind="stable")  # merges the two runs
    keep = np.empty(len(merged), dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def scale(a: IntegerSet, k: int) -> IntegerSet:
    """The set {k * a : a in A} for an integer k >= 1; a chunk is scaled in
    int64 while its last product stays below 2**63."""
    if not isinstance(k, int):
        raise InvalidArgumentError(f"scale factor must be an integer, got {k!r}")
    if k < 1:
        raise InvalidArgumentError(f"scale factor must be >= 1, got {k}")

    def gen() -> Iterator[Chunk]:
        for run in a._runs():
            if isinstance(run, np.ndarray):
                if k * int(run[-1]) < 2**63:
                    yield run * k
                    continue
                run = run.tolist()
            yield [k * v for v in run]

    return IntegerSet(gen(), label=f"scale({a.label},{k})")


def from_iterable(values: Iterable[int], label: str = "explicit") -> IntegerSet:
    return IntegerSet([list(map(int, values))], label=label)


def from_file(path: str) -> IntegerSet:
    """Read a set from a text file, one integer per line.

    Blank lines are ignored.  Raises DataFormatError naming the first
    offending line if a value is not an integer or not strictly increasing,
    or if the line is not text.  The file is read once as bytes.  A file of
    plain decimal lines (`_plain_decimal`) is parsed in numpy; any other
    file is parsed with a bytes `int()` per line.  The parsed values are
    checked and buffered as one chunk (one int64 array below 2**63); only a
    file that fails the bytes parse or that check is parsed again line by
    line as text, which names the line.
    """
    with open(path, "rb") as fp:
        data = fp.read()
    values = _plain_decimal(data)
    if values is None:
        try:
            values = list(map(int, io.BytesIO(data)))
        except ValueError:  # a blank line, a non-integer or a non-ASCII digit
            pass
    if values is not None:
        try:
            return _buffered(path, values)
        except DataFormatError:  # out of order or empty: the text parse says which
            pass
    # undecodable bytes become lone surrogates, which no int() accepts
    with open(path, errors="surrogateescape") as fp:
        return _buffered(path, _parse_lines(path, fp))


# Runs of equal-length lines past which `_plain_decimal` declines a file; a
# strictly increasing file without leading zeros has one run per digit count.
_MAX_RUNS = 64


def _plain_decimal(data: bytes) -> np.ndarray | None:
    """The values of a file whose every line is 1 to 18 ASCII digits and a
    newline, as int64, or None for any other file or for one of more than
    _MAX_RUNS runs of equal-length lines.

    Each run is a (rows, length + 1) array of digits, folded column by column
    into int64 (acc * 10 + digit), exact as 18 digits stay below 2**63.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    if not b.size or b[-1] != ord("\n"):
        return None
    ends = np.flatnonzero(b == ord("\n"))
    digits = b - np.uint8(ord("0"))  # a newline or any other byte wraps past 9
    if np.count_nonzero(digits < 10) != b.size - ends.size:
        return None
    widths = np.diff(ends, prepend=-1)  # each line's digits and its newline
    if widths.min() < 2 or widths.max() > 19:
        return None
    cuts = (np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist()
    if len(cuts) >= _MAX_RUNS:
        return None
    out = np.empty(ends.size, dtype=np.int64)
    for i, j in zip([0, *cuts], [*cuts, ends.size]):
        w = int(widths[i])
        start = int(ends[i]) + 1 - w
        rows = digits[start : start + (j - i) * w].reshape(j - i, w)
        acc = out[i:j]
        acc[:] = rows[:, 0]
        for c in range(1, w - 1):
            acc *= 10
            acc += rows[:, c]
    return out


def _buffered(path: str, values: list[int] | np.ndarray) -> IntegerSet:
    """The set of a file's parsed values, all in its buffer."""
    if not len(values):
        raise DataFormatError(f"{path}: no values found")
    chunk = values
    if isinstance(values, list) and values[-1] < 2**63:
        try:  # int() made every value an int, so no dtype needs inferring
            chunk = np.array(values, dtype=np.int64)
        except OverflowError:  # a value past 2**63 before the last: out of order
            pass
    a = IntegerSet((), label=path)
    a._push(chunk)
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
