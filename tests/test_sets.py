"""Integer-stream constructions, algebra, and checkpoint grids."""

import io
import itertools
import math
import re
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idealconv import (
    Checkpoints,
    DataFormatError,
    InsufficientDataError,
    IntegerSet,
    InvalidArgumentError,
    from_file,
    from_iterable,
    logpower_set,
    naturals,
    power_set,
    primes_set,
    scale,
    smooth_set,
    union,
)

from idealconv import sets
from idealconv.sets import CHUNK, _last_false
from oracles import logpower_term, power_term, primes_upto, smooth_upto


def chunk_edges(terms):
    """Every n on either side of a chunk boundary among the first terms."""
    return [n for k in range(CHUNK, terms, CHUNK) for n in (k, k + 1)]


# ---------------------------------------------------------------------------
# power sets  a_n = floor(n**(1/s))
# ---------------------------------------------------------------------------


def test_power_half_is_squares():
    assert power_set(0.5).prefix(6) == [1, 4, 9, 16, 25, 36]


def test_power_quarter_is_fourth_powers():
    assert power_set(0.25).prefix(4) == [1, 16, 81, 256]


def test_power_one_is_naturals():
    assert power_set(1).prefix(5) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("s", [0.3, 0.6, 0.75])
def test_power_matches_high_precision_oracle(s):
    a = power_set(s)
    for n, v in enumerate(a.prefix(300), start=1):
        assert v == power_term(n, s), (s, n)


@given(
    st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8),
    st.integers(min_value=1, max_value=2_000),
)
@settings(max_examples=200)
def test_power_floor_property(s, n):
    # a_n = floor(n**(1/s)) means a**num <= n**den < (a+1)**num for s=num/den
    a = power_set(s).term(n)
    num, den = s.numerator, s.denominator
    assert a**num <= n**den < (a + 1) ** num


@pytest.mark.parametrize(
    "s,terms,crossing",
    [
        # n**5 passes 2**63 after n = 6208, inside the second chunk
        (Fraction(1, 5), 4 * CHUNK, 6208),
        (Fraction(2, 3), 4 * CHUNK, None),
        (Fraction(3, 4), 4 * CHUNK, None),
        # floor(n**(5/2)) passes 2**52 after n = 1825676, where the chunks
        # turn from float64 roots (checked with integer roots) to integer roots
        (Fraction(2, 5), 1825676 + CHUNK, 1825676),
        # e = 9/2 is past 2**52 within the first chunk: integer roots from n = 1
        (Fraction(2, 9), 3 * CHUNK, None),
        # terms past 2**1024 from n = 5: iroot on n**999, which is past the
        # float range from n = 3 (for num = 2 iroot is math.isqrt)
        (Fraction(2, 999), CHUNK + 1, None),
    ],
)
def test_power_floor_exact_at_chunk_edges(s, terms, crossing):
    num, den = s.numerator, s.denominator
    got = power_set(s).prefix(terms)
    ns = chunk_edges(terms) + list(range(1, 40))
    if crossing is not None:
        ns += range(crossing - 3, crossing + 4)
    for n in ns:
        a = got[n - 1]
        assert a**num <= n**den < (a + 1) ** num, (s, n, a)
    if crossing is not None:
        bound = 2**63 if num == 1 else 2**52
        assert got[crossing - 1] < bound < got[crossing]


@pytest.mark.parametrize("s", [Fraction(3, 1000), Fraction(2, 999), Fraction(3, 200)])
def test_integer_root_chunks_are_cut_short_and_exact(s):
    # past 2**52 from n = 2: each chunk takes about 2**20 bits of n**den, so
    # the first holds about 80 to 400 terms, not CHUNK
    num, den = s.numerator, s.denominator
    chunks = list(itertools.islice(sets._root_chunks(num, den), 3))
    assert all(len(chunk) < CHUNK for chunk in chunks)
    got = [a for chunk in chunks for a in chunk]
    for n, a in enumerate(got, start=1):
        assert a**num <= n**den < (a + 1) ** num, (s, n, a)
    assert got == power_set(s).prefix(len(got))


def test_a_few_terms_of_a_large_denominator_take_a_few_roots():
    # a whole CHUNK of cube roots of n**1000 took about 3 s
    t0 = time.perf_counter()
    a = power_set(Fraction(3, 1000)).term(2)
    assert time.perf_counter() - t0 < 0.2
    assert a**3 <= 2**1000 < (a + 1) ** 3


@pytest.mark.parametrize(
    "den,terms",
    # past 2**63, n**den = n**r * (n**a)**k from int64 powers: one product
    # (n**4 = n * n**3 near 3*10**5, n**6 = n**3 * n**3), and (n**a)**k by
    # squaring (n**13 = n**3 * (n**5)**2 in the first chunk, n**64 =
    # n**4 * (n**5)**12, n**1000 = n**5 * (n**5)**199, in chunks cut short
    # to 1290 terms)
    [
        (4, 300_000),
        (5, 300_000),
        (6, 300_000),
        (13, 2 * CHUNK),
        (64, 2 * CHUNK),
        (1000, CHUNK),
    ],
)
def test_integer_powers_are_exact(den, terms):
    assert power_set(Fraction(1, den)).prefix(terms) == [n**den for n in range(1, terms + 1)]


def test_power_off_the_rational_grid_past_two_to_the_63():
    # 1/s = 8.1000000737...: the long-double floor, stepped down while the
    # float64 logs say it is too high, one n at a time
    sf = 0.123456789

    def term(n):
        a = int(np.floor(np.exp(np.log(np.longdouble(n)) / np.longdouble(sf))))
        while a >= 1 and sf * float(np.log(np.longdouble(a))) > float(np.log(np.longdouble(n))):
            a -= 1
        return max(a, 1)

    # past 2**63 the step-down would take about a * 1e-16 steps one by one
    got = power_set(sf).prefix(CHUNK + 1)
    assert got[-1] > 2**63
    assert got[:100] == [term(n) for n in range(1, 101)]


@pytest.mark.parametrize("a,last", [(1, 0), (2, 1), (50, 0), (50, 17), (50, 49), (10**20, 12345)])
def test_last_false_finds_where_stepping_down_ends(a, last):
    calls = []

    def too_high(x):
        calls.append(x)
        return x > last

    assert _last_false(a, too_high) == last
    assert len(calls) <= 2 * a.bit_length() + 2


def test_power_of_tiny_exponent_stops_at_the_long_double_range():
    # 1/s is about 1429: from n = 2 the terms are past 2**64, where the
    # long-double floor is not stepped down, and n = 2835 overflows
    sf = 0.0007
    a = power_set(sf)
    want = [int(np.floor(np.exp(np.log(np.longdouble(n)) / np.longdouble(sf)))) for n in range(1, 101)]
    assert a.prefix(100) == want
    with pytest.raises(InvalidArgumentError, match=r"power\(0.0007\): term 2835 exceeds"):
        a.prefix(3000)


def test_logpower_of_tiny_exponent_stops_at_the_long_double_range():
    a = logpower_set(0.001)
    assert len(a.prefix(1577)) == 1577
    with pytest.raises(InvalidArgumentError, match=r"logpower\(0.001\): term 1578 exceeds"):
        a.prefix(1578)


def test_power_rejects_bad_exponent():
    for s in (0, -0.5, 1.5):
        with pytest.raises(InvalidArgumentError):
            power_set(s)


# ---------------------------------------------------------------------------
# logpower sets  a_n = floor(n**(1/q) * log(n+1)**(2/q)) + 1
# ---------------------------------------------------------------------------


def test_logpower_half_first_terms():
    assert logpower_set(0.5).prefix(3) == [1, 6, 34]


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_logpower_matches_high_precision_oracle(q):
    a = logpower_set(q)
    for n, v in enumerate(a.prefix(300), start=1):
        assert v == logpower_term(n, q), (q, n)


def test_logpower_long_prefix_strictly_increases():
    # the stream validator raises on any non-increase, so pulling is the test
    a = logpower_set(0.5)
    assert len(a.prefix(20_000)) == 20_000


def test_logpower_past_two_to_the_63_matches_scalar_formula():
    # the long-double formula evaluated one n at a time
    qd = np.longdouble(0.3)

    def term(n):
        nd = np.longdouble(n)
        return int(np.floor(np.exp(np.log(nd) / qd + (2 / qd) * np.log(np.log(nd + 1))))) + 1

    terms = 3 * CHUNK
    got = logpower_set(0.3).prefix(terms)
    assert got[CHUNK] < 2**63 < got[-1]
    assert got == [term(n) for n in range(1, terms + 1)]


def test_logpower_rejects_bad_exponent():
    for q in (0, 1, 1.2):
        with pytest.raises(InvalidArgumentError):
            logpower_set(q)


# ---------------------------------------------------------------------------
# smooth sets
# ---------------------------------------------------------------------------


def test_smooth_23_first_terms():
    assert smooth_set((2, 3)).prefix(8) == [1, 2, 3, 4, 6, 8, 9, 12]


def test_smooth_23_count_100():
    assert smooth_set((2, 3)).count(100) == 20


@pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5), (3, 7)])
def test_smooth_matches_oracle(primes):
    want = smooth_upto(list(primes), 10_000)
    a = smooth_set(primes)
    assert a.prefix(len(want)) == want
    assert a.term(len(want) + 1) > 10_000


def test_smooth_rejects_non_prime():
    with pytest.raises(InvalidArgumentError):
        smooth_set((2, 4))
    with pytest.raises(InvalidArgumentError):
        smooth_set(())


# ---------------------------------------------------------------------------
# naturals / primes
# ---------------------------------------------------------------------------


def test_naturals_prefix():
    assert naturals().prefix(5) == [1, 2, 3, 4, 5]


def test_primes_match_oracle():
    want = primes_upto(100_000)
    got = primes_set().prefix(len(want))
    assert got == want


def test_primes_across_segment_edges():
    # sieve segments start at 2, 2 + 2**16 and 2 + 2**16 + 2**17
    want = primes_upto(2 + 2**16 + 2**17 + 5000)
    a = primes_set()
    assert a.prefix(len(want)) == want
    assert 2**16 + 1 in want and a.count(2 + 2**16) == want.index(2**16 + 1) + 1


# ---------------------------------------------------------------------------
# union and scale
# ---------------------------------------------------------------------------


def test_union_merges_and_dedupes():
    squares, cubes = power_set(0.5), from_iterable([n**3 for n in range(1, 50)])
    u = union(squares, cubes)
    assert u.prefix(8) == [1, 4, 8, 9, 16, 25, 27, 36]
    # 64 is in both streams and appears once
    assert u.count(64) == u.count(63) + 1


def test_union_with_self_is_identity():
    assert union(power_set(0.5), power_set(0.5)).prefix(10) == power_set(0.5).prefix(10)


def test_union_count_subadditive():
    a, b = power_set(0.5), smooth_set((2, 3))
    u = union(a, b)
    for x in (10, 100, 1000):
        assert max(a.count(x), b.count(x)) <= u.count(x) <= a.count(x) + b.count(x)


def test_scale_doubles_squares():
    assert scale(power_set(0.5), 2).prefix(4) == [2, 8, 18, 32]


def test_scale_by_one_is_identity():
    assert scale(naturals(), 1).prefix(5) == [1, 2, 3, 4, 5]


def test_union_sharing_every_fourth_power_matches_set_oracle():
    x = (3 * CHUNK) ** 2
    want = sorted({n * n for n in range(1, math.isqrt(x) + 1)}
                  | {n**4 for n in range(1, math.isqrt(math.isqrt(x)) + 1)})
    u = union(power_set(0.5), power_set(0.25))
    assert u.prefix(len(want)) == want
    assert u.count(x) == len(want) == 3 * CHUNK


def test_union_of_interleaved_sets_matches_set_oracle():
    x = 2 * 10**7
    want = sorted(
        {math.isqrt(n**3) for n in range(1, 80_000)} | {n * n for n in range(1, 5_000)}
    )
    want = [v for v in want if v <= x]
    assert len(want) > 3 * CHUNK
    assert union(power_set(Fraction(2, 3)), power_set(0.5)).prefix(len(want)) == want


def test_union_runs_on_after_one_side_ends():
    # [1, 5, 9] ends inside the first chunk of squares, which the union then
    # streams on its own, past that chunk
    want = sorted({1, 5, 9} | {n * n for n in range(1, CHUNK + 11)})[: CHUNK + 10]
    assert union(from_iterable([1, 5, 9]), power_set(0.5)).prefix(CHUNK + 10) == want


@pytest.mark.parametrize(
    "a,b",
    [
        ([2, 3, 5, 7, 11, 13, 17], [1, 3, 9]),
        ([1, 3, 9], [2, 3, 5, 7, 11, 13, 17]),
        ([4, 8], [4, 8]),
    ],
    ids=["left-outlasts", "right-outlasts", "equal"],
)
def test_union_of_finite_sets_matches_set_oracle(a, b):
    want = sorted(set(a) | set(b))
    u = union(from_iterable(a), from_iterable(b))
    assert u.prefix(len(want)) == want
    assert u.count(math.inf) == len(want)
    with pytest.raises(InsufficientDataError):
        union(from_iterable(a), from_iterable(b)).prefix(len(want) + 1)


def test_scale_matches_set_oracle():
    terms = 3 * CHUNK + 17
    want = sorted({7 * math.isqrt(n**3) for n in range(1, terms + 1)})
    assert scale(power_set(Fraction(2, 3)), 7).prefix(terms) == want


def test_scale_rejects_bad_factor():
    with pytest.raises(InvalidArgumentError):
        scale(naturals(), 0)


@pytest.mark.parametrize("k", [2.5, 2.0, Fraction(2), np.int64(2)])
def test_scale_refuses_a_factor_that_is_not_an_int(k):
    # an int64 buffer would truncate 2.5 * a silently
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        scale(power_set(0.5), k)


# ---------------------------------------------------------------------------
# stream mechanics
# ---------------------------------------------------------------------------


def test_term_is_one_indexed():
    a = power_set(0.5)
    assert a.term(3) == 9
    with pytest.raises(InvalidArgumentError):
        a.term(0)


def test_count_boundaries():
    a = power_set(0.5)
    assert a.count(0.5) == 0
    assert a.count(1) == 1
    assert a.count(3.9) == 1
    assert a.count(9) == 3


def test_count_of_a_float_past_two_to_the_53_is_exact():
    # float(2**53 + 1) is 2**53; compared as floats, 2**53 + 1 would count
    a = from_iterable([2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2])
    assert a.count(float(2**53 + 1)) == 2
    assert a.count(2.0**53 + 2) == 4
    assert a.count(2**53 + 1) == 3
    b = from_iterable([2**62 + 1, 2**62 + 1024])
    assert b.count(2.0**62) == 0
    assert b.count(float(2**62 + 1)) == 0  # 2**62 as a float


def test_count_at_infinities():
    a = from_iterable([1, 2, 2**63 - 1, 2**63, 2**70])
    assert a.count(math.inf) == 5
    assert a.count(-math.inf) == 0
    assert power_set(0.5).count(-math.inf) == 0


def test_count_at_or_above_two_to_the_63():
    small = from_iterable([1, 5, 2**63 - 1])
    assert small.count(2**63) == 3
    assert small.count(2**100) == 3
    a = from_iterable([1, 2**63 - 1, 2**63, 2**64 + 3])
    assert [a.count(x) for x in (2**63 - 1, 2**63, 2.0**63, 2**64 + 2, 2**64 + 3)] == [
        2, 3, 3, 3, 4,
    ]


def test_count_refuses_nan():
    a = power_set(0.5)
    with pytest.raises(InvalidArgumentError):
        a.count(math.nan)
    with pytest.raises(InvalidArgumentError):
        a.count(np.float64("nan"))


def test_iteration_replays_buffer():
    a = smooth_set((2, 3))
    first = a.prefix(6)
    replay = []
    for v in a:
        replay.append(v)
        if len(replay) == 6:
            break
    assert replay == first


def test_finite_set_exhaustion():
    a = from_iterable([1, 2, 3])
    assert a.prefix(3) == [1, 2, 3]
    with pytest.raises(InsufficientDataError):
        a.term(4)


def test_stream_validation():
    with pytest.raises(DataFormatError):
        from_iterable([3, 1]).prefix(2)
    with pytest.raises(DataFormatError):
        from_iterable([0]).prefix(1)


def int64_chunks(chunks):
    return [np.array(c, dtype=np.int64) for c in chunks]


CHUNK_KINDS = pytest.mark.parametrize("kind", [list, int64_chunks], ids=["list", "int64"])


@CHUNK_KINDS
def test_order_break_inside_a_chunk_names_its_position(kind):
    a = IntegerSet(kind([[1, 2, 3], [5, 8, 8, 9]]), label="broken")
    assert a.prefix(3) == [1, 2, 3]
    with pytest.raises(DataFormatError, match=r"broken: .* at position 6 \(got 8\)"):
        a.prefix(4)


@CHUNK_KINDS
def test_order_break_across_chunks_names_its_position(kind):
    a = IntegerSet(kind([[], [4, 6], [], [6, 7]]), label="broken")
    with pytest.raises(DataFormatError, match=r"at position 3 \(got 6\)"):
        a.count(10)


@pytest.mark.parametrize(
    "chunk",
    [np.array([1.5, 2.5]), np.array([1, 2], dtype=np.uint64), np.array([1, 2], dtype=np.int32),
     [1.5, 2.5], [1, 2.5]],
    ids=["float64", "uint64", "int32", "float-list", "mixed-list"],
)
def test_a_chunk_that_is_not_int64_is_refused(chunk):
    # the int64 buffer would truncate 1.5 to 1 silently
    with pytest.raises(DataFormatError, match="not int64"):
        IntegerSet([chunk], label="floats").prefix(1)


def test_order_break_at_an_int64_chunk_boundary_names_its_position():
    a = IntegerSet([[1, 5, 9], np.array([9, 10], dtype=np.int64)], label="broken")
    with pytest.raises(DataFormatError, match=r"at position 4 \(got 9\)"):
        a.prefix(4)
    b = IntegerSet([[3], np.array([2, 4], dtype=np.int64)], label="broken")
    with pytest.raises(DataFormatError, match=r"at position 2 \(got 2\)"):
        b.prefix(2)


class ListModel:
    """An IntegerSet whose buffer is a plain list of Python ints: each chunk
    is checked value by value and appended whole, or not at all."""

    def __init__(self, chunks, label):
        self.it, self.buf, self.label = iter(chunks), [], label

    def pull(self):
        for chunk in self.it:
            if len(chunk):
                break
        else:
            return False
        values = [int(v) for v in chunk]
        for i, v in enumerate(values):
            if v <= (values[i - 1] if i else self.buf[-1] if self.buf else 0):
                raise DataFormatError(
                    f"{self.label}: stream not strictly increasing at position "
                    f"{len(self.buf) + i + 1} (got {v})"
                )
        self.buf += values
        return True

    def ensure(self, k):
        while len(self.buf) < k:
            if not self.pull():
                raise InsufficientDataError(
                    f"{self.label}: only {len(self.buf)} elements available, {k} requested"
                )

    def term(self, i):
        self.ensure(i)
        return self.buf[i - 1]

    def prefix(self, k):
        self.ensure(k)
        return self.buf[:k]

    def count(self, x):
        while (not self.buf or self.buf[-1] <= x) and self.pull():
            pass
        return bisect_right(self.buf, x)

    def chunks(self):
        i = 0
        while i < len(self.buf) or self.pull():
            j = min(len(self.buf), i + sets.CHUNK)
            yield self.buf[i:j]
            i = j

    def __iter__(self):
        for chunk in self.chunks():
            yield from chunk


# values near 2**62, where floats are 1024 apart, on both sides of 2**63,
# 2**63 itself, and past 2**64
_POINTS = st.one_of(
    st.integers(1, 50),
    st.integers(2**62 - 4, 2**62 + 4),
    st.integers(2**63 - 8, 2**63 + 8),
    st.just(2**63),
    st.integers(2**64 - 3, 2**64 + 3),
)


@st.composite
def chunk_streams(draw, disorder=True):
    """A strictly increasing stream cut into chunks, some of them empty, each
    a list or (where its values fit) an int64 array; with `disorder`, maybe
    one value not above its predecessor, wherever it falls: inside a chunk,
    at a chunk edge or at 2**63."""
    values = sorted(set(draw(st.lists(_POINTS, min_size=1, max_size=24))))
    if disorder and draw(st.booleans()):
        i = draw(st.integers(0, len(values) - 1))
        values[i] = draw(st.sampled_from([0, *values[:i], values[i - 1] - 1 if i else 0]))
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=8)))
    chunks = []
    for lo, hi in zip([0, *cuts], [*cuts, len(values)]):
        chunk = values[lo:hi]
        if draw(st.booleans()) and all(-(2**63) <= v < 2**63 for v in chunk):
            chunk = np.array(chunk, dtype=np.int64)
        chunks.append(chunk)
    return chunks


_COUNT_AT = st.one_of(
    _POINTS,
    _POINTS.map(float),  # past 2**53 a float rounds, and the count must not
    st.sampled_from([math.inf, -math.inf, 0, 0.5, 2.0**62, 2**63 - 1, 2.0**63, 2**100]),
)
_QUERIES = st.lists(
    st.one_of(
        st.tuples(st.just("term"), st.integers(1, 30)),
        st.tuples(st.just("prefix"), st.integers(0, 30)),
        st.tuples(st.just("count"), _COUNT_AT),
        st.tuples(st.just("chunks")),
        st.tuples(st.just("iter"), st.integers(0, 30)),
    ),
    max_size=8,
)


def _answer(a, query):
    """The query's result, or the type and text of what it raised."""
    name, *args = query
    try:
        if name == "chunks":
            return list(a.chunks())
        if name == "iter":
            return list(itertools.islice(a, args[0]))
        return getattr(a, name)(*args)
    except (DataFormatError, InsufficientDataError) as e:
        return type(e), str(e)


def _python_ints(result) -> bool:
    """Whether every number in a query's result is a Python int."""
    if isinstance(result, tuple):  # what the query raised
        return True
    if isinstance(result, list):
        return all(map(_python_ints, result))
    return type(result) is int


@settings(max_examples=300, deadline=None)
@given(chunk_streams(), _QUERIES)
def test_buffer_matches_a_list_model(chunks, queries):
    # a small CHUNK, so that chunks() cuts the buffer at several places
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sets, "CHUNK", 5)
        a, model = IntegerSet(chunks, label="s"), ListModel(chunks, "s")
        for query in queries:
            got = _answer(a, query)
            assert got == _answer(model, query)
            assert _python_ints(got)
        # the int64 part holds exactly the elements below 2**63
        assert len(a._buf) == len(model.buf)
        assert a._buf.split == bisect_left(model.buf, 2**63)


@settings(max_examples=200, deadline=None)
@given(chunk_streams(disorder=False), chunk_streams(disorder=False),
       st.sampled_from([1, 2, 3, 2**40]), st.lists(_COUNT_AT, max_size=4))
def test_union_and_scale_match_a_list_model(left, right, k, xs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sets, "CHUNK", 5)
        a, b = list(ListModel(left, "a")), list(ListModel(right, "b"))
        for got, want in (
            (union(IntegerSet(left), IntegerSet(right)), sorted(set(a) | set(b))),
            (scale(IntegerSet(left), k), [k * v for v in a]),
        ):
            assert [got.count(x) for x in xs] == [bisect_right(want, x) for x in xs]
            head, chunks = got.prefix(len(want)), list(got.chunks())
            assert head == want == [v for chunk in chunks for v in chunk] == list(got)
            assert all(len(chunk) <= 5 for chunk in chunks)
            assert _python_ints(head) and _python_ints(chunks)
            with pytest.raises(InsufficientDataError):
                got.term(len(want) + 1)


@pytest.mark.parametrize(
    "make, terms",
    [
        (lambda: power_set(Fraction(1, 3)), 3 * CHUNK),
        (lambda: power_set(Fraction(2, 3)), 3 * CHUNK),
        (lambda: power_set(Fraction(3, 4)), 3 * CHUNK),
        # n**4 passes 2**63 in the chunk that starts at n = 53249
        (lambda: power_set(Fraction(1, 4)), 53248 + CHUNK + 1),
        (primes_set, 3 * CHUNK),
        (naturals, 3 * CHUNK),
        (lambda: scale(power_set(Fraction(2, 3)), 7), 3 * CHUNK),
        (lambda: power_set(0.3), 2 * CHUNK),
        (lambda: logpower_set(0.5), 2 * CHUNK),
    ],
    ids=["power1/3", "power2/3", "power3/4", "power1/4", "primes", "naturals", "scale",
         "power0.3", "logpower0.5"],
)
def test_buffer_holds_python_ints(make, terms):
    a = make()
    head = a.prefix(terms)
    assert all(type(x) is int for x in head)
    assert all(type(a.term(i)) is int for i in (1, terms // 2, terms))
    assert all(type(x) is int for x in itertools.islice(a, terms))
    chunks = itertools.islice(a.chunks(), -(-terms // CHUNK))
    assert all(type(x) is int for chunk in chunks for x in chunk)


def test_power_quarter_switches_to_python_ints_exactly():
    head = power_set(Fraction(1, 4)).prefix(53248 + 2)
    assert head[53246:] == [53247**4, 53248**4, 53249**4, 53250**4]


def test_scale_past_two_to_the_63_does_not_wrap():
    k = 2**40
    assert scale(power_set(Fraction(1, 3)), k).prefix(300_000) == [
        k * n**3 for n in range(1, 300_001)
    ]


def test_write_and_read_back(tmp_path):
    path = tmp_path / "squares.txt"
    with open(path, "w") as fp:
        power_set(0.5).write(fp, terms=20)
    assert from_file(str(path)).prefix(20) == power_set(0.5).prefix(20)


def test_write_one_value_per_line():
    buf = io.StringIO()
    naturals().write(buf, terms=4)
    assert buf.getvalue() == "1\n2\n3\n4\n"


def test_from_file_reports_offending_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("5\n4\n")
    with pytest.raises(DataFormatError, match=r"bad\.txt:2"):
        from_file(str(path)).prefix(2)
    path.write_text("abc\n")
    with pytest.raises(DataFormatError, match=r"bad\.txt:1.*not an integer"):
        from_file(str(path)).prefix(1)


def test_from_file_with_blank_lines_names_offending_line(tmp_path):
    path = tmp_path / "gaps.txt"
    path.write_text("1\n\n3\n  \n7\n")
    assert from_file(str(path)).prefix(3) == [1, 3, 7]
    path.write_text("1\n\n3\n2\n")
    with pytest.raises(DataFormatError, match=r"gaps\.txt:4: .*\(2 after 3\)"):
        from_file(str(path))


def test_from_file_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(DataFormatError, match="no values"):
        from_file(str(path)).prefix(1)


def test_from_file_refuses_values_below_one(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("3\n0\n")
    with pytest.raises(DataFormatError, match=r"zero\.txt:2: values must be >= 1"):
        from_file(str(path)).prefix(2)


def _text_parse(path: str):
    """The values, or the error message, of the text-mode parse that reads
    every line as `str`, which the digit-column and bytes parses of
    `from_file` must match."""
    try:
        with open(path, errors="surrogateescape") as fp:
            return sets._parse_lines(path, fp)
    except DataFormatError as exc:
        return str(exc)


# Each file's values, or the message after "f.txt:", as the text-mode parse
# gives them.
@pytest.mark.parametrize(
    "content,want",
    [
        (b"1\r\n5\r\n9\r\n", [1, 5, 9]),
        (b" 1\n\t5 \n9\t \n", [1, 5, 9]),
        # str.strip and a str's int() drop \x1c; a bytes int() refuses it
        (b"\x1c1\x1c\n5\n", [1, 5]),
        ("\u0661\n\u0665\u0663\n".encode(), [1, 53]),
        (b"\xef\xbb\xbf1\n2\n", "1: not an integer: '\\ufeff1'"),
        (f"1\n{2**64 + 1}\n".encode(), [1, 2**64 + 1]),
        (b"1\n\n3\n", [1, 3]),
        (b"1\nx\n", "2: not an integer: 'x'"),
        (b"1\n5\n4\n", "3: values must be strictly increasing (4 after 5)"),
        # a lone carriage return ends a text line but not a bytes line
        (b"5\n\r3\n", "3: values must be strictly increasing (3 after 5)"),
        (b" \r12\n20\n", [12, 20]),
        # values on both sides of 2**63, in order and with one past it too early
        (f"1\n{2**63 - 1}\n{2**63}\n".encode(), [1, 2**63 - 1, 2**63]),
        (f"1\n{2**64}\n5\n".encode(), f"3: values must be strictly increasing (5 after {2**64})"),
        # plain decimal lines, which the numpy digit columns parse
        (b"8\n9\n10\n9\n", "4: values must be strictly increasing (9 after 10)"),
        (b"0\n1\n", "1: values must be >= 1"),
        (b"1\n2", [1, 2]),
        (b"7\n", [7]),
        (f"{10**17}\n{10**18 - 1}\n{10**18}\n".encode(), [10**17, 10**18 - 1, 10**18]),
        # a leading zero on every other line: more runs of equal-length lines
        # than the digit columns take
        ("".join(f"{'0' * (i % 2)}{i}\n" for i in range(1, 200)).encode(), list(range(1, 200))),
    ],
    ids=[
        "crlf", "spaces-and-tabs", "x1c", "arabic-indic-digits", "bom", "past-2**63",
        "blank-line", "non-integer", "disorder", "lone-cr-disorder", "lone-cr-blank",
        "across-2**63", "disorder-past-2**63", "plain-disorder", "plain-zero-first",
        "no-final-newline", "single-line", "18-and-19-digits", "runs-past-the-cap",
    ],
)
def test_from_file_parses_as_the_text_parse_does(tmp_path, content, want):
    path = tmp_path / "f.txt"
    path.write_bytes(content)
    if isinstance(want, str):
        want = f"{path}:{want}"
    assert _text_parse(str(path)) == want
    try:
        got = from_file(str(path)).prefix(len(want))
    except DataFormatError as exc:
        got = str(exc)
    assert got == want


_ODD_BYTES = [b"\n", b"\r", b" ", b"\t", b"+", b"-", b"_", b"\x1c", b"\xa0", b"\xff", b"0"]
_EDGE_VALUES = [0, 1, 10**17 - 1, 10**17, 10**18 - 1, 10**18, 10**19 - 1, 10**19,
                2**63 - 1, 2**63, 2**63 + 1, 10**20]


@st.composite
def set_files(draw):
    """The bytes of a set file: decimal lines, sorted or not, some with
    leading zeros, odd bytes and blank lines put in, the final newline kept
    or not."""
    digits = st.integers(1, 18).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1))
    values = draw(st.lists(digits, max_size=40))
    values += draw(st.lists(st.sampled_from(_EDGE_VALUES), max_size=2))
    if draw(st.booleans()):
        values = sorted(set(values))
    lines = [b"0" * draw(st.sampled_from([0] * 8 + [1, 2])) + b"%d" % v for v in values]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines)))
        if i == len(lines) or draw(st.booleans()):
            lines.insert(i, b"")  # a blank line
        else:
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + draw(st.sampled_from(_ODD_BYTES)) + lines[i][j:]
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b"\n", b""]))


@settings(max_examples=400, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(set_files())
def test_from_file_matches_the_text_parse_on_drawn_files(tmp_path, content):
    path = tmp_path / "f.txt"
    path.write_bytes(content)
    want = _text_parse(str(path)) or f"{path}: no values found"
    try:
        a = from_file(str(path))
        got = a.prefix(len(a._buf))
    except DataFormatError as exc:
        got = str(exc)
    assert got == want
    # the digit columns take every file of plain lines of 1 to 18 digits
    plain = re.fullmatch(rb"([0-9]{1,18}\n)+", content) is not None
    assert (sets._plain_decimal(content) is not None) == plain


def test_digit_columns_decline_a_file_past_the_run_cap():
    # the values need not rise here: the runs are of equal-length lines
    assert sets._plain_decimal(b"1\n22\n" * 32).tolist() == [1, 22] * 32  # 64 runs
    assert sets._plain_decimal(b"1\n22\n" * 32 + b"1\n") is None


def test_from_file_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"1\n2\n\xff3\n")
    with pytest.raises(DataFormatError, match=r"f\.txt:3: not an integer: '\\udcff3'"):
        from_file(str(path))


def test_prefix_of_negative_length_is_refused():
    with pytest.raises(InvalidArgumentError, match="prefix length must be >= 0, got -1"):
        naturals().prefix(-1)


# ---------------------------------------------------------------------------
# checkpoint grids
# ---------------------------------------------------------------------------


def test_checkpoints_geometric():
    cp = Checkpoints.geometric(1_000, start=10, factor=10)
    assert cp.values == (10, 100, 1000)
    assert cp.decades() == pytest.approx(2.0)


def test_checkpoints_default_grid():
    cp = Checkpoints.geometric(10**7)
    assert cp.values[0] == 1000
    assert cp.values[-1] <= 10**7
    assert all(b == 2 * a for a, b in zip(cp.values, cp.values[1:]))


def test_checkpoints_validation():
    with pytest.raises(InvalidArgumentError):
        Checkpoints((100, 100))
    with pytest.raises(InvalidArgumentError):
        Checkpoints((1, 10))
    with pytest.raises(InvalidArgumentError):
        Checkpoints.geometric(10, start=100)


def test_empty_checkpoints_are_refused():
    with pytest.raises(InvalidArgumentError, match="checkpoints must be non-empty"):
        Checkpoints(())
