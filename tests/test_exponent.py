"""Exponent estimation and growth-ideal classification."""

import math
from fractions import Fraction

import pytest

from idealconv import exponent
from idealconv.exponent import classify_rows_leq, classify_rows_less
from idealconv import (
    Checkpoints,
    InsufficientDataError,
    InvalidArgumentError,
    Trend,
    Verdict,
    chain_report,
    classify_leq,
    classify_less,
    estimate_lambda,
    from_iterable,
    logpower_set,
    naturals,
    partial_sum_probe,
    power_set,
    primes_set,
    scale,
    smooth_set,
    union,
)

DECADES = Checkpoints.geometric(10**7, start=10**3, factor=10)


def scalar_slope(prefix, n):
    """estimate_lambda's clipped secant slope at n, from math.log."""
    n0 = math.isqrt(n)
    den = math.log(prefix[n - 1]) - math.log(prefix[n0 - 1])
    if den <= 0.0:
        return 1.0
    return min(max((math.log(n) - math.log(n0)) / den, 0.0), 1.0)


def scalar_estimate(prefix, terms, tail_fraction):
    """estimate_lambda's value and samples, one index at a time."""

    def ratio(n):
        return scalar_slope(prefix, n)

    lo = max(2, math.ceil((1 - tail_fraction) * terms))
    marks = [2**k for k in range(1, terms.bit_length()) if 2**k < terms] + [terms]
    return max(ratio(n) for n in range(lo, terms + 1)), [(n, ratio(n)) for n in marks]


# ---------------------------------------------------------------------------
# estimate_lambda
# ---------------------------------------------------------------------------


def test_naturals_have_exponent_one():
    est = estimate_lambda(naturals(), terms=1_000)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.trend is Trend.FLAT


def test_squares_have_exponent_half():
    est = estimate_lambda(power_set(0.5), terms=10_000)
    assert est.value == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_power_sets_recover_exponent(s):
    est = estimate_lambda(power_set(s), terms=10_000)
    assert est.value == pytest.approx(s, abs=1e-3)


def test_primes_estimate_climbs_toward_one():
    est = estimate_lambda(primes_set(), terms=100_000)
    assert 0.80 <= est.value < 1.0
    assert est.trend is Trend.INCREASING


@pytest.mark.parametrize(
    "make",
    [
        lambda: power_set(Fraction(3, 4)),
        lambda: power_set(0.25),
        lambda: logpower_set(0.3),
        lambda: smooth_set((2, 3)),
        lambda: union(power_set(0.25), power_set(Fraction(2, 3))),
        lambda: scale(power_set(0.5), 3),
        lambda: from_iterable([1, 2, *range(40, 40_000, 3)]),
    ],
    ids=["power 3/4", "power 1/4", "logpower 0.3", "smooth 2,3", "union", "scale", "explicit"],
)
@pytest.mark.parametrize("terms,tail_fraction", [(12_289, 0.2), (4_097, 1.0), (990, 0.5)])
def test_estimate_matches_scalar_slopes_bit_for_bit(make, terms, tail_fraction):
    a = make()
    est = estimate_lambda(a, terms=terms, tail_fraction=tail_fraction)
    value, samples = scalar_estimate(a.prefix(terms), terms, tail_fraction)
    assert est.value == value
    assert list(est.window_ratios) == samples


def test_every_slope_matches_scalar_formula():
    # np.log can differ from libm in the last bit (on 17 of the first 3*10**5
    # values of power 3/4 with numpy 2.4 on x86-64), which moves slopes
    terms = 60_000
    prefix = power_set(Fraction(3, 4)).prefix(terms)
    got = exponent._slopes(prefix, 2, terms + 1).tolist()
    assert got == [scalar_slope(prefix, n) for n in range(2, terms + 1)]


def test_logpower_estimate_stays_under_its_exponent():
    # a_n ~ n**2 * log**4 n: the log factor drags finite estimates below 0.5
    est = estimate_lambda(logpower_set(0.5), terms=10_000)
    assert 0.2 < est.value < 0.5


def test_estimate_window_samples_are_recorded():
    est = estimate_lambda(power_set(0.5), terms=256)
    ns = [n for n, _ in est.window_ratios]
    assert ns == [2, 4, 8, 16, 32, 64, 128, 256]
    assert est.terms == 256
    assert est.tail_fraction == pytest.approx(0.2)


@pytest.mark.parametrize("k", [2, 3, 10])
def test_estimate_is_scale_invariant(k):
    a = power_set(0.5)
    base = estimate_lambda(a, terms=10_000).value
    scaled = estimate_lambda(scale(a, k), terms=10_000).value
    assert scaled == pytest.approx(base, abs=0.01)


@pytest.mark.parametrize("s,t", [(0.25, 0.5), (0.25, 0.75), (0.5, 0.75)])
def test_estimate_union_rule(s, t):
    u = union(power_set(s), power_set(t))
    assert estimate_lambda(u, terms=10_000).value == pytest.approx(max(s, t), abs=0.02)


def test_estimate_monotone_under_subsequence():
    # fourth powers <= squares <= naturals as streams
    est4 = estimate_lambda(power_set(0.25), terms=1_000).value
    est2 = estimate_lambda(power_set(0.5), terms=1_000).value
    est1 = estimate_lambda(naturals(), terms=1_000).value
    assert est4 <= est2 + 0.01 <= est1 + 0.02


def test_estimate_validation():
    with pytest.raises(InvalidArgumentError):
        estimate_lambda(naturals(), terms=99)
    with pytest.raises(InvalidArgumentError):
        estimate_lambda(naturals(), terms=1_000, tail_fraction=0)
    with pytest.raises(InsufficientDataError):
        estimate_lambda(from_iterable(range(1, 101)), terms=200)


# ---------------------------------------------------------------------------
# classify_leq  (membership in "growth at most q")
# ---------------------------------------------------------------------------


def test_squares_not_below_quarter():
    assert classify_leq(power_set(0.5), 0.25).verdict is Verdict.INCONSISTENT


def test_squares_at_most_half():
    v = classify_leq(power_set(0.5), 0.5)
    assert v.verdict is Verdict.CONSISTENT
    assert v.q == 0.5 and v.ideal.value == "leq"


def test_naturals_not_at_most_half():
    assert classify_leq(naturals(), 0.5).verdict is Verdict.INCONSISTENT


def test_borderline_margin_is_indeterminate():
    # at q = 0.48 the smallest-delta series is flat with floor noise:
    # neither decaying nor growing
    assert classify_leq(power_set(0.5), 0.48).verdict is Verdict.INDETERMINATE


def test_smooth_sets_sit_in_every_ideal():
    # counts grow polylog, so decay is visible once checkpoints span enough
    wide = Checkpoints.geometric(10**30, start=10**4, factor=10)
    for q in (0.05, 0.25, 0.5, 0.75):
        assert classify_leq(smooth_set((2, 3)), q, checkpoints=wide).verdict is Verdict.CONSISTENT


def test_smooth_set_at_q_zero():
    wide = Checkpoints.geometric(10**40, start=10**4, factor=10)
    v = classify_leq(smooth_set((2, 3, 5)), 0.0, deltas=(0.2, 0.1), checkpoints=wide)
    assert v.verdict is Verdict.CONSISTENT


def test_classify_leq_validation():
    with pytest.raises(InvalidArgumentError):
        classify_leq(naturals(), 1.0)
    with pytest.raises(InvalidArgumentError):
        classify_leq(naturals(), -0.1)
    with pytest.raises(InvalidArgumentError):
        classify_leq(naturals(), 0.5, deltas=(0.6,))  # q + delta > 1
    with pytest.raises(InvalidArgumentError):
        classify_leq(naturals(), 0.5, checkpoints=Checkpoints((100, 200, 400)))


def test_verdict_records_policy_and_evidence():
    v = classify_leq(power_set(0.5), 0.5)
    assert v.notes == (exponent.POLICY,)
    assert "drop" in exponent.POLICY and "rate" in exponent.POLICY
    assert len(v.evidence) > 0
    recs = v.to_records()
    assert {"set", "ideal", "q", "delta", "x", "count", "ratio", "verdict"} <= recs[0].keys()


# ---------------------------------------------------------------------------
# classify_less  (membership in "growth strictly below q")
# ---------------------------------------------------------------------------


def test_fourth_powers_below_half():
    v = classify_less(power_set(0.25), 0.5)
    assert v.verdict is Verdict.CONSISTENT
    assert v.delta_used == pytest.approx(0.1)


def test_squares_not_below_their_own_exponent():
    assert classify_less(power_set(0.5), 0.5).verdict is Verdict.INCONSISTENT


def test_squares_below_three_quarters():
    v = classify_less(power_set(0.5), 0.75)
    assert v.verdict is Verdict.CONSISTENT
    assert v.delta_used == pytest.approx(0.1)


def test_finite_set_below_everything():
    v = classify_less(from_iterable(range(1, 101)), 0.1)
    assert v.verdict is Verdict.CONSISTENT


def test_less_implies_leq_on_same_evidence():
    assert classify_less(power_set(0.25), 0.5).verdict is Verdict.CONSISTENT
    assert classify_leq(power_set(0.25), 0.5).verdict is Verdict.CONSISTENT


def test_classify_less_validation():
    with pytest.raises(InvalidArgumentError):
        classify_less(naturals(), 0.0)
    with pytest.raises(InvalidArgumentError):
        classify_less(naturals(), 0.5, deltas=(0.5,))  # delta >= q
    with pytest.raises(InvalidArgumentError):
        classify_less(naturals(), 0.5, deltas=())


# ---------------------------------------------------------------------------
# verdict truth table
# ---------------------------------------------------------------------------
#
# Every row has a known exponent lambda, so "at most q" holds exactly when
# lambda <= q and "below q" exactly when lambda < q.  A verdict may be
# INDETERMINATE on any row, but never the wrong definite answer.  The rows in
# WRONG get the wrong answer today: on the default grid a factor (log x)**t
# moves a log-log slope as much as a power of x does (ROADMAP item 1).

GRID = Checkpoints.geometric(10**7)

_SETS = {
    "power 1/2": (lambda: power_set(0.5), 0.5),
    "primes": (primes_set, 1.0),
    "logpower 0.3": (lambda: logpower_set(0.3), 0.3),
    "logpower 0.5": (lambda: logpower_set(0.5), 0.5),
    "smooth 2,3": (lambda: smooth_set((2, 3)), 0.0),
}

# (ideal, q, s, t) for counts floor(x**s * log(x)**t), or (ideal, q, set name)
TRUTH_ROWS = [
    (ideal, q, round(q + ds, 2), t)
    for ideal in ("leq", "less")
    for q in (0.3, 0.5, 0.75)
    for ds in (-0.03, 0.0, 0.03)
    for t in range(-2, 3)
] + [
    ("leq", 0.5, "power 1/2"),
    ("less", 0.5, "power 1/2"),
    ("leq", 0.5, "primes"),
    ("less", 1.0, "primes"),
    ("leq", 0.3, "logpower 0.3"),
    ("less", 0.3, "logpower 0.3"),
    ("leq", 0.5, "logpower 0.5"),
    ("less", 0.5, "logpower 0.5"),
    ("leq", 0.25, "smooth 2,3"),
    ("less", 0.25, "smooth 2,3"),
]


def _row_id(row) -> str:
    ideal, q, *rest = row
    if len(rest) == 1:
        return f"{ideal}-q{q:g}-{rest[0]}"
    s, t = rest
    return f"{ideal}-q{q:g}-s{s:g}-t{t}"


WRONG = {
    "leq-q0.3-s0.27-t1", "leq-q0.3-s0.27-t2", "leq-q0.3-s0.3-t1", "leq-q0.3-s0.3-t2",
    "leq-q0.3-s0.33-t-2",
    "leq-q0.5-s0.47-t1", "leq-q0.5-s0.47-t2", "leq-q0.5-s0.5-t1", "leq-q0.5-s0.5-t2",
    "leq-q0.5-s0.53-t-2", "leq-q0.5-s0.53-t-1",
    "leq-q0.75-s0.72-t1", "leq-q0.75-s0.72-t2", "leq-q0.75-s0.75-t1", "leq-q0.75-s0.75-t2",
    "leq-q0.75-s0.78-t-2", "leq-q0.75-s0.78-t-1",
    "less-q0.3-s0.27-t0", "less-q0.3-s0.27-t1", "less-q0.3-s0.27-t2",
    "less-q0.3-s0.3-t-2", "less-q0.3-s0.33-t-2",
    "less-q0.5-s0.47-t-2", "less-q0.5-s0.47-t0", "less-q0.5-s0.47-t1", "less-q0.5-s0.47-t2",
    "less-q0.5-s0.5-t-2", "less-q0.5-s0.5-t-1", "less-q0.5-s0.53-t-2", "less-q0.5-s0.53-t-1",
    "less-q0.75-s0.72-t0", "less-q0.75-s0.72-t1", "less-q0.75-s0.72-t2",
    "less-q0.75-s0.75-t-2", "less-q0.75-s0.75-t-1",
    "less-q0.75-s0.78-t-2", "less-q0.75-s0.78-t-1",
    "less-q1-primes", "less-q0.3-logpower 0.3", "less-q0.5-logpower 0.5",
}

_WHY = {
    ("leq", True): "A(x)/x**(q+delta) grows at delta 0.02 through the log factor alone",
    ("leq", False): "A(x)/x**(q+delta) falls at every delta through the 1/log x factor alone",
    ("less", True): "one growing series at the smallest delta is taken as proof, "
    "though it shows only lambda >= q - delta",
    ("less", False): "A(x)/x**(q-delta) falls through the 1/log x factor alone, "
    "for a witness",
}
_WHY_PRIMES = (
    "_series_decays takes pi(x)/x**0.98, which falls on the "
    "default grid only through the 1/log x factor, for a witness"
)


def _truth_param(row):
    ideal, q, *rest = row
    lam = _SETS[rest[0]][1] if len(rest) == 1 else rest[0]
    truth = lam <= q if ideal == "leq" else lam < q
    name = _row_id(row)
    marks = ()
    if name in WRONG:
        why = _WHY_PRIMES if name == "less-q1-primes" else _WHY[(ideal, truth)]
        marks = pytest.mark.xfail(reason=why)
    return pytest.param(row, truth, id=name, marks=marks)


@pytest.mark.parametrize("row,truth", [_truth_param(r) for r in TRUTH_ROWS])
def test_verdict_truth_table(row, truth):
    ideal, q, *rest = row
    if len(rest) == 1:
        classify = classify_leq if ideal == "leq" else classify_less
        v = classify(_SETS[rest[0]][0](), q)
    else:
        s, t = rest
        counts = [math.floor(x**s * math.log(x) ** t) for x in GRID.values]
        classify = classify_rows_leq if ideal == "leq" else classify_rows_less
        v = classify("synthetic", q, list(GRID.values), counts, None)
    wrong = Verdict.INCONSISTENT if truth else Verdict.CONSISTENT
    assert v.verdict is not wrong


# ---------------------------------------------------------------------------
# chain reports
# ---------------------------------------------------------------------------


def test_chain_of_squares():
    rep = chain_report(power_set(0.5), (0.25, 0.5, 0.75))
    assert [v.verdict for v in rep.verdicts] == [
        Verdict.INCONSISTENT,
        Verdict.CONSISTENT,
        Verdict.CONSISTENT,
    ]
    assert rep.monotone


def test_chain_of_naturals_rejects_every_q():
    rep = chain_report(naturals(), (0.25, 0.5, 0.75))
    assert all(v.verdict is Verdict.INCONSISTENT for v in rep.verdicts)
    assert rep.monotone  # no consistent-then-inconsistent inversion


def test_chain_requires_increasing_grid():
    with pytest.raises(InvalidArgumentError):
        chain_report(naturals(), (0.5, 0.25))


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------


def test_partial_sums_of_squares_track_harmonic_growth():
    rows = partial_sum_probe(power_set(0.5), 0.5, checkpoints=DECADES)
    assert rows[-1][1] / rows[0][1] > 2  # unbounded growth visible
    assert rows[-1][1] - rows[-2][1] > 0.5  # still climbing in the last decade


def test_partial_sums_of_logpower_level_off():
    rows = partial_sum_probe(logpower_set(0.5), 0.5, checkpoints=DECADES)
    assert rows[-1][1] - rows[-2][1] < 0.05


def test_partial_sums_constant_after_exhaustion():
    rows = partial_sum_probe(
        from_iterable([2, 4, 10]), 1.0, checkpoints=Checkpoints.geometric(10**4, start=10, factor=10)
    )
    assert [s for _, s in rows] == pytest.approx([0.85, 0.85, 0.85, 0.85])


def test_partial_sum_validation():
    with pytest.raises(InvalidArgumentError):
        partial_sum_probe(naturals(), 0.0)
    with pytest.raises(InvalidArgumentError):
        partial_sum_probe(naturals(), 1.5)
