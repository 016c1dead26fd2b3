"""Integer-stream constructions, algebra, and checkpoint grids."""

import io
import math
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
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
        # turn from float64 roots (checked with integer roots) to the walk
        (Fraction(2, 5), 1825676 + CHUNK, 1825676),
        # e = 9/2 is past 2**52 within the first chunk: the walk from n = 1
        (Fraction(2, 9), 3 * CHUNK, None),
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


def test_scale_matches_set_oracle():
    terms = 3 * CHUNK + 17
    want = sorted({7 * math.isqrt(n**3) for n in range(1, terms + 1)})
    assert scale(power_set(Fraction(2, 3)), 7).prefix(terms) == want


def test_scale_rejects_bad_factor():
    with pytest.raises(InvalidArgumentError):
        scale(naturals(), 0)


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


def test_order_break_inside_a_chunk_names_its_position():
    a = IntegerSet([[1, 2, 3], [5, 8, 8, 9]], label="broken")
    assert a.prefix(3) == [1, 2, 3]
    with pytest.raises(DataFormatError, match=r"broken: .* at position 6 \(got 8\)"):
        a.prefix(4)


def test_order_break_across_chunks_names_its_position():
    a = IntegerSet([[], [4, 6], [], [6, 7]], label="broken")
    with pytest.raises(DataFormatError, match=r"at position 3 \(got 6\)"):
        a.count(10)


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
