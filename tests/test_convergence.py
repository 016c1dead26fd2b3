"""Exceptional sets, envelopes, limsup rows, and the statement suite."""

import json
import math
import pathlib

import numpy as np
import pytest

import idealconv.arith as arith_mod
import idealconv.convergence as convergence_mod
import idealconv.suite as suite_mod
from idealconv import (
    Checkpoints,
    InvalidArgumentError,
    count_report,
    default_envelope,
    envelope_value,
    exceptional_members,
    exceptional_scan,
    exceptional_set,
    remark_limsup,
    sequence_spec,
    smooth_bound_for,
    statement_suite,
)

from idealconv.bulk import BLOCK, iter_blocks
from oracles import pascal_rowscan, perfect_powers_upto, sequence_value

GAMMA = sequence_spec("power_rep_count")
TAU = sequence_spec("power_rep_weight")
PASCAL = sequence_spec("pascal_count")
H_MIN = sequence_spec("min_exponent_over_log")


# ---------------------------------------------------------------------------
# sequence specs
# ---------------------------------------------------------------------------


def test_sequence_spec_validation():
    with pytest.raises(InvalidArgumentError):
        sequence_spec("nope")
    with pytest.raises(InvalidArgumentError):
        sequence_spec("valuation_scaled")  # needs p
    with pytest.raises(InvalidArgumentError):
        sequence_spec("valuation_scaled", p=4)
    with pytest.raises(InvalidArgumentError):
        sequence_spec("power_rep_count", p=2)  # p is meaningless here


def test_loglog_family_starts_at_three():
    assert sequence_spec("omega_over_loglog").start_n == 3
    assert sequence_spec("loglog_fstar").start_n == 3
    assert GAMMA.start_n == 2


def test_sequence_value_examples():
    # the per-n oracle that the membership tests below compare against
    assert sequence_value(GAMMA, 64) == 4.0
    assert sequence_value(TAU, 64) == 12.0
    assert sequence_value(PASCAL, 3003) == 8.0
    assert sequence_value(sequence_spec("valuation_scaled", p=2), 48) == (
        pytest.approx(math.log(2) * 4 / math.log(48))
    )
    # primes give f*(p) = 1, whose log log is undefined -> -inf marker
    assert sequence_value(sequence_spec("loglog_fstar"), 7) == -math.inf


# ---------------------------------------------------------------------------
# exceptional sets
# ---------------------------------------------------------------------------


def test_gamma_exceptional_is_perfect_powers():
    a = exceptional_set(GAMMA, 0.5, 1_000)
    assert a.prefix(9) == [4, 8, 9, 16, 25, 27, 32, 36, 49]
    assert a.count(100) == 12


def test_gamma_exceptional_matches_oracle_to_1e5():
    want = perfect_powers_upto(100_000)
    got = [int(v) for block in exceptional_members(GAMMA, 0.5, 100_000) for v in block]
    assert got == want


def test_tau_and_gamma_sets_coincide():
    g = [int(v) for b in exceptional_members(GAMMA, 1.0, 50_000) for v in b]
    t = [int(v) for b in exceptional_members(TAU, 1.0, 50_000) for v in b]
    assert g == t == perfect_powers_upto(50_000)


def test_pascal_exceptional_first_members():
    assert exceptional_set(PASCAL, 0.5, 3_000).prefix(6) == [2, 6, 10, 15, 20, 21]


def test_pascal_exceptional_matches_rowscan():
    scan = pascal_rowscan(3_000)
    want = [n for n in range(2, 3_001) if abs(scan[n] - 2) >= 0.5]
    got = [int(v) for b in exceptional_members(PASCAL, 0.5, 3_000) for v in b]
    assert got == want


def test_min_exponent_set_empty_beyond_hard_bound():
    # h(n)/log n never exceeds 1/log 2
    eps = 1 / math.log(2) + 0.01
    assert exceptional_set(H_MIN, eps, 10_000).count(10_000) == 0


# tolerances on a tie boundary: |x_n - L| = eps exactly in real arithmetic
# for some n (n = p**k at eps = 1/log p, say), where np.log and math.log
# can round apart; the two first disagree on integers at 9170 and 19143
_TIE_EPS = (
    0.25,
    0.5,
    1.0,
    *(1 / math.log(p) for p in (2, 3, 5, 7, 11)),
    2 / math.log(3),
)


def test_membership_matches_direct_evaluation():
    # every sequence against the per-n recomputation by trial division
    keys = [
        ("min_exponent_over_log", None),
        ("max_exponent_over_log", None),
        ("valuation_scaled", 2),
        ("valuation_scaled", 3),
        ("valuation_scaled", 5),  # x_125 rounds below 1 in float64
        ("power_rep_count", None),
        ("power_rep_weight", None),
        ("pascal_count", None),
        ("omega_over_loglog", None),
        ("bigomega_over_loglog", None),
        ("loglog_f", None),
        ("loglog_fstar", None),
    ]
    for key, p in keys:
        spec = sequence_spec(key, p=p)
        limit = 5_000 if key == "pascal_count" else 20_000
        dev = [
            (n, abs(sequence_value(spec, n) - spec.limit_value))
            for n in range(spec.start_n, limit + 1)
        ]
        for eps in _TIE_EPS:
            got = [int(v) for b in exceptional_members(spec, eps, limit) for v in b]
            assert got == [n for n, d in dev if d >= eps], (spec.label, eps)


def test_prime_valuation_tie_at_eps_one_is_exact():
    # x_n = v_p(n) log p / log n is exactly 1 at n = p**k and below 1 at
    # every other n, so at eps = 1 the members are the powers of p; float64
    # rounds the quotient below 1 at some of them (5**3, 13**3, 7**5)
    primes = (2, 3, 5, 7, 11, 13)
    limit = 10**7
    specs = {p: sequence_spec("valuation_scaled", p=p) for p in primes}
    got = {p: [] for p in primes}
    for stats, hits in exceptional_scan([(s, 1.0) for s in specs.values()], limit):
        for spec, _, idx, _ in hits:
            got[spec.p] += (idx + stats.lo).tolist()
    for p in primes:
        want = [p**k for k in range(1, 30) if p**k <= limit]
        assert got[p] == want, p


def test_oracle_decides_the_valuation_tie_exactly():
    for p in (2, 3, 5, 7, 11, 13):
        spec = sequence_spec("valuation_scaled", p=p)
        for k in range(1, 63):
            if p**k < 2**63:
                assert sequence_value(spec, p**k) == 1.0, (p, k)
        assert sequence_value(spec, 2 * 3 * p**2) < 1


def test_monotone_in_eps():
    for key in ("power_rep_count", "omega_over_loglog", "min_exponent_over_log"):
        spec = sequence_spec(key)
        a_wide = exceptional_set(spec, 0.25, 10_000)
        a_narrow = exceptional_set(spec, 0.75, 10_000)
        for x in (10, 100, 1_000, 10_000):
            assert a_narrow.count(x) <= a_wide.count(x)


def test_members_independent_of_block_size():
    one = [int(v) for b in exceptional_members(GAMMA, 0.5, 20_000, block_size=64) for v in b]
    two = [int(v) for b in exceptional_members(GAMMA, 0.5, 20_000) for v in b]
    assert one == two
    spec = sequence_spec("omega_over_loglog")
    one = [int(v) for b in exceptional_members(spec, 0.5, 20_000, block_size=999) for v in b]
    two = [int(v) for b in exceptional_members(spec, 0.5, 20_000) for v in b]
    assert one == two


@pytest.mark.parametrize("size", [0, -5])
def test_members_reject_block_size_below_one(size):
    # -5 used to give an empty set without a word
    with pytest.raises(InvalidArgumentError, match="block size"):
        list(exceptional_members(H_MIN, 0.25, 10_000, block_size=size))


_LOG_SPECS = [
    sequence_spec(key, p=p)
    for key, p in (
        ("min_exponent_over_log", None),
        ("valuation_scaled", 3),
        ("power_rep_weight", None),
        ("omega_over_loglog", None),
        ("loglog_fstar", None),
    )
]


def test_collected_members_equal_blocks_taken_one_at_a_time():
    # the scan reuses its deviation and log buffers; the member arrays it
    # yields are the caller's
    for spec in _LOG_SPECS:
        one = [b.copy() for b in exceptional_members(spec, 0.5, 3 * 10**5, block_size=4097)]
        kept = list(exceptional_members(spec, 0.5, 3 * 10**5, block_size=4097))
        assert len(kept) == len(one) > 1, spec.label
        for got, want in zip(kept, one):
            np.testing.assert_array_equal(got, want, err_msg=spec.label)


def test_scan_buffers_hold_each_block_and_spec():
    # dev and the logs, read while they are valid, equal fresh arrays
    pairs = [(spec, eps) for spec in _LOG_SPECS for eps in (0.25, 1.0)]
    for stats, hits in exceptional_scan(pairs, 3 * 10**5, block_size=4097):
        fresh_ln = np.log(stats.n.astype(np.float64))
        for spec, eps, idx, dev in hits:
            np.testing.assert_array_equal(stats.ln_n, fresh_ln)
            np.testing.assert_array_equal(stats.lnln_n, np.log(fresh_ln))
            want = convergence_mod.deviation(spec, stats)
            np.testing.assert_array_equal(dev, want, err_msg=spec.label)
            np.testing.assert_array_equal(idx, np.flatnonzero(want >= eps))


def test_exceptional_eps_validation():
    with pytest.raises(InvalidArgumentError):
        list(exceptional_members(GAMMA, 0.0, 100))


# ---------------------------------------------------------------------------
# smooth bound (containment prime for the min-exponent set)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "eps,p0", [(0.25, 53), (0.3, 23), (0.5, 7), (0.9, 3), (1.0, 2)]
)
def test_smooth_bound_values(eps, p0):
    assert smooth_bound_for(eps) == p0


def test_smooth_bound_edge_cases():
    assert smooth_bound_for(1.5) is None  # e**(1/eps) < 2: no prime qualifies
    with pytest.raises(InvalidArgumentError):
        smooth_bound_for(0)
    # e**(1/eps) past the prime sieve's cap 2**26, and past float range
    for eps in (0.05, 0.001):
        with pytest.raises(InvalidArgumentError, match="sieve cap 2\\*\\*26"):
            smooth_bound_for(eps)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def test_envelope_values():
    # 2*sqrt(2) * x**(1 - eps*log2/2) at x=1e6, eps=0.5
    assert envelope_value("max_exponent", 1e6, 0.5) == pytest.approx(
        2 * math.sqrt(2) * 10 ** (6 * (1 - 0.25 * math.log(2))), rel=1e-12
    )
    assert envelope_value("prime_valuation", 1e4, 0.5, p=2) == pytest.approx(
        1328.77, abs=0.01
    )
    assert envelope_value("perfect_power", 100, 0.5) == pytest.approx(66.44, abs=0.01)


def test_envelope_validation():
    with pytest.raises(InvalidArgumentError):
        envelope_value("perfect_power", 3, 0.5)  # stated for x >= 4
    with pytest.raises(InvalidArgumentError):
        envelope_value("prime_valuation", 100, 0.5)  # needs p
    with pytest.raises(InvalidArgumentError):
        envelope_value("nope", 100, 0.5)


def test_default_envelope_selection():
    assert default_envelope(GAMMA) == "perfect_power"
    assert default_envelope(sequence_spec("max_exponent_over_log")) == "max_exponent"
    assert default_envelope(sequence_spec("omega_over_loglog")) is None


def test_count_report_counts_and_envelope():
    cp = Checkpoints.geometric(10_000, start=10, factor=10)
    rep = count_report(GAMMA, 0.5, cp)
    assert [(r.x, r.count) for r in rep.rows] == [
        (10, 3),
        (100, 12),
        (1000, 40),
        (10000, 124),
    ]
    assert rep.envelope_kind == "perfect_power"
    assert rep.envelope_ok
    # counts agree with the lazily enumerated set
    a = exceptional_set(GAMMA, 0.5, 10_000)
    for r in rep.rows:
        assert r.count == a.count(r.x)
    # no envelope gives blank columns
    bare = count_report(GAMMA, 0.5, cp, envelope=False)
    assert bare.envelope_kind is None and bare.envelope_ok
    assert [r.count for r in bare.rows] == [r.count for r in rep.rows]
    assert all(r.envelope is None and r.ratio is None for r in bare.rows)


def test_prime_valuation_envelope_holds_at_equality():
    # at eps = 1 the bound log x / log p equals the count at every x = p**k;
    # math.log(243) / math.log(3) is 4.999999999999999
    rep = count_report(
        sequence_spec("valuation_scaled", p=3), 1.0, Checkpoints((81, 243, 729))
    )
    assert [r.count for r in rep.rows] == [4, 5, 6]
    assert all(r.ok for r in rep.rows) and rep.envelope_ok
    over = count_report(
        sequence_spec("valuation_scaled", p=3), 0.5, Checkpoints((81, 243, 729))
    )
    assert over.envelope_ok


def test_prime_valuation_envelope_is_exact_at_powers():
    # log x / log p misses the integer k at 37 powers p**k < 2**63 with
    # p <= 13 (3**5 among them); the envelope takes k itself there
    missed = 0
    for p in (2, 3, 5, 7, 11, 13):
        k = 1
        while p**k < 2**63:
            missed += math.log(p**k) / math.log(p) != k
            assert envelope_value("prime_valuation", p**k, 1.0, p) == k, (p, k)
            assert envelope_value("prime_valuation", p**k, 0.5, p) == k * (p**k) ** 0.5
            k += 1
    assert missed == 37
    # off the powers the quotient stands
    assert envelope_value("prime_valuation", 244, 1.0, 3) == math.log(244) / math.log(3)


def test_count_report_skips_perfect_power_below_four():
    cp = Checkpoints((2, 100))
    rep = count_report(GAMMA, 0.5, cp)
    assert rep.rows[0].envelope is None
    assert rep.rows[1].envelope is not None


# ---------------------------------------------------------------------------
# limsup rows
# ---------------------------------------------------------------------------


def test_remark_limsup_rows():
    rep = remark_limsup(sequence_spec("omega_over_loglog"), 0.5, 10_000)
    rows = rep.rows
    assert rows[0].k == 1 and rows[0].ratio == 0.0  # log 1 = 0
    ks = [r.k for r in rows]
    assert ks[1:-1] == [2 ** i for i in range(1, len(ks) - 2 + 1)]
    assert rows[-1].k == rep.total
    for r in rows:
        assert r.ratio == pytest.approx(
            math.log(r.k) / math.log(r.member) if r.k > 1 else 0.0
        )


def test_remark_limsup_empty_set():
    rep = remark_limsup(H_MIN, 2.0, 10_000)
    assert rep.total == 0 and rep.rows == ()


def test_remark_limsup_ratio_climbs():
    rep = remark_limsup(sequence_spec("omega_over_loglog"), 0.5, 100_000)
    assert rep.rows[-1].ratio >= 0.8


# ---------------------------------------------------------------------------
# statement suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_1e5():
    return statement_suite(10**5, pascal_check_limit=3_000)


def test_suite_passes_at_1e5(suite_1e5):
    assert suite_1e5.passed


def test_suite_covers_all_statements(suite_1e5):
    assert [r.statement for r in suite_1e5.results[::3]] == [
        "I",
        "II",
        "III",
        "IV",
        "V",
        "VI",
        "VII",
        "VIII",
    ]
    assert {r.eps for r in suite_1e5.results} == {0.25, 0.5, 1.0}


def test_suite_records_are_flat(suite_1e5):
    recs = suite_1e5.to_records()
    assert {"statement", "eps", "check", "passed", "blocking", "details"} <= recs[0].keys()
    assert all(isinstance(r["passed"], bool) for r in recs)
    json.dumps(suite_1e5.to_records(include_rows=True))


def test_suite_subset_selection():
    rep = statement_suite(10**5, statements=("IV",))
    assert {r.statement for r in rep.results} == {"IV"}
    assert rep.passed
    names = {c.name for r in rep.results for c in r.checks}
    assert names == {"envelope[power]", "ideal-fit"}  # set-equality needs V too


def test_suite_envelope_underflow_has_no_ratio():
    # at eps = 2000 the II and III envelopes underflow to 0.0 at every
    # checkpoint: the empty sets meet them, and no ratio is defined
    rep = statement_suite(10**5, eps_grid=(2000.0,), statements=("II", "III"))
    assert rep.passed
    envs = [c for r in rep.results for c in r.checks if c.name.startswith("envelope")]
    assert len(envs) == 3
    for chk in envs:
        assert chk.passed and chk.details.endswith("; max ratio 0")
        assert all(r["envelope"] == 0.0 and r["count"] == 0 for r in chk.rows)


def test_suite_vi_verdict_reads_the_suite_checkpoints():
    # the members at eps >= 3 end at 24310 below 10**6, so the counts at the
    # checkpoints to 10**6 decay against sqrt(x)
    rep = statement_suite(10**6, eps_grid=(3.0, 4.0), statements=("VI",))
    assert rep.passed
    for res in rep.results:
        checks = {c.name: c for c in res.checks}
        sqrt_rows, fit_rows = checks["sqrt-ratio"].rows, checks["ideal-fit"].rows
        assert [r["x"] for r in sqrt_rows] == list(rep.checkpoints.values)
        # the verdict's rows repeat the checkpoint counts once per delta
        assert [(r["x"], r["count"]) for r in fit_rows] == [
            (r["x"], r["count"]) for r in sqrt_rows
        ] * (len(fit_rows) // len(sqrt_rows))


@pytest.mark.parametrize("limit", [10**4, 2 * 10**4])
def test_suite_vi_verdict_skipped_on_short_ranges(limit):
    rep = statement_suite(limit, statements=("VI",))
    assert rep.passed
    for res in rep.results:
        (fit,) = [c for c in res.checks if c.name == "ideal-fit"]
        assert fit == suite_mod.CheckResult(
            name="ideal-fit",
            passed=True,
            blocking=False,
            details="skipped: range below three decades for a decay verdict",
        )


def test_statement_i_containment_fails_with_its_witnesses(monkeypatch):
    # a smooth bound of 2 is too small at eps = 0.5: 3, 5, 6, 7 and 9 are
    # members (h_min(n) / log n >= 0.5) that are not 2-smooth
    monkeypatch.setattr(suite_mod, "smooth_bound_for", lambda eps: 2)
    rep = statement_suite(10**5, eps_grid=(0.5,), statements=("I",))
    assert not rep.passed
    (res,) = rep.results
    chk = {c.name: c for c in res.checks}["containment"]
    assert not chk.passed and chk.blocking
    assert [r["n"] for r in chk.rows] == [3, 5, 6, 7, 9]
    assert chk.rows[0]["value"] == pytest.approx(1 / math.log(3))
    assert chk.details.startswith(
        "every member is 2-smooth (largest prime with 1/log p >= eps); "
        "witnesses [(3, "
    )


def test_suite_validation():
    with pytest.raises(InvalidArgumentError):
        statement_suite(5_000)  # needs at least four decades
    with pytest.raises(InvalidArgumentError):
        statement_suite(10**4, statements=("IX",))
    # a decay verdict needs three points; the suite refuses before it scans
    for values in ((5000,), (5000, 6000)):
        with pytest.raises(InvalidArgumentError, match="^need at least 3 checkpoints$"):
            statement_suite(10**5, checkpoints=Checkpoints(values))


# the (sequence key, prime) pairs the suite scans, statements I..V, VII, VIII
_SUITE_SEQUENCES = (
    ("min_exponent_over_log", None),
    ("max_exponent_over_log", None),
    ("valuation_scaled", 2),
    ("valuation_scaled", 3),
    ("power_rep_count", None),
    ("power_rep_weight", None),
    ("omega_over_loglog", None),
    ("bigomega_over_loglog", None),
    ("loglog_f", None),
    ("loglog_fstar", None),
)
_SCANNED = ("I", "II", "III", "IV", "V", "VII", "VIII")


def test_suite_tallies_match_count_and_limsup_reports(monkeypatch):
    # the suite's tallies, taken from the helper that reads them after the scan
    seen = {}
    checks_i = suite_mod._statement_i_checks

    def grab(tallies, *args):
        seen.update(tallies)
        return checks_i(tallies, *args)

    monkeypatch.setattr(suite_mod, "_statement_i_checks", grab)
    limit = 10**6
    rep = statement_suite(limit, statements=_SCANNED)
    assert len(seen) == 3 * len(_SUITE_SEQUENCES)
    for key, p in _SUITE_SEQUENCES:
        spec = sequence_spec(key, p=p)
        for eps in rep.eps_grid:
            tally = seen[(spec.label, eps)]
            counts = count_report(spec, eps, rep.checkpoints, envelope=False)
            assert tally.counts == [r.count for r in counts.rows], (spec.label, eps)
            limsup = remark_limsup(spec, eps, limit)
            assert tuple(tally.final_rows()) == limsup.rows, (spec.label, eps)


def test_vi_direct_counts_independent_of_chunk_size(monkeypatch):
    args = ((0.25, 0.5, 1.0, 2.0), 10**5, (1000, 10**5), 10**5)
    want = suite_mod._statement_vi_checks(*args)
    monkeypatch.setattr(suite_mod, "BLOCK", 997)
    assert suite_mod._statement_vi_checks(*args) == want
    assert all(c.passed for checks in want.values() for c in checks)

    # a wrong per-n count shows as the first disagreement
    def off_at_3003(n):
        counts = arith_mod.pascal_counts(n)
        counts[n == 3003] = 2
        return counts

    monkeypatch.setattr(suite_mod, "pascal_counts", off_at_3003)
    (agree,) = [c for c in suite_mod._statement_vi_checks(*args)[2.0] if "agree" in c.name]
    assert not agree.passed and agree.details.endswith("first disagreement at 3003")


def test_statement_suite_walks_pascal_once(monkeypatch):
    walks = []

    def counted(limit):
        walks.append(limit)
        return convergence_mod.pascal_distances(limit)

    monkeypatch.setattr(suite_mod, "pascal_distances", counted)
    golden = pathlib.Path(__file__).parent / "golden" / "verify.json"
    want = json.loads(golden.read_text())["records"]  # limit 10**5, eps 0.25, 0.5, 1
    records = {}
    for grid in ((0.25, 0.5, 1.0), (0.5, 2.0, 3.0)):
        walks.clear()
        rep = statement_suite(10**5, eps_grid=grid)
        assert walks == [10**5]
        records[grid] = json.loads(json.dumps(rep.to_records()))
    assert records[(0.25, 0.5, 1.0)] == want
    # each eps is checked on its own, whatever else the grid holds
    at_half = [[r for r in recs if r["eps"] == 0.5] for recs in records.values()]
    assert at_half[0] == at_half[1]
    agree = [r for r in records[(0.5, 2.0, 3.0)] if r["check"] == "membership-agreement"]
    assert len(agree) == 3 and all(r["passed"] for r in agree)


def _per_member_trend_peaks(blocks) -> dict[int, float]:
    """The peaks of `_TrendTally`, bucketed member by member: the absorb that
    the k-threshold buckets replaced."""
    peaks: dict[int, float] = {}
    total = 0
    for members, ln_members in blocks:
        m = len(members)
        if m:
            ks = np.arange(total + 1, total + m + 1, dtype=np.float64)
            ratios = np.log(ks) / ln_members
            buckets = np.floor(np.log2(ks) * suite_mod._TREND_SUB).astype(np.int64)
            starts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
            for b, r in zip(buckets[starts], np.maximum.reduceat(ratios, starts)):
                if r > peaks.get(int(b), -1.0):
                    peaks[int(b)] = float(r)
        total += m
    return peaks


def test_bucket_starts_equal_per_member_buckets_to_2e6():
    top = 2 * 10**6
    buckets = np.floor(np.log2(np.arange(1, top + 1.0)) * suite_mod._TREND_SUB)
    firsts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
    below = suite_mod._FIRSTS <= top
    assert suite_mod._BUCKETS[below].tolist() == buckets[firsts].tolist()
    assert suite_mod._FIRSTS[below].tolist() == (firsts + 1).tolist()
    # the table's end: the bucket of 2**62, every first k inside its bucket,
    # and the k just below a first k in an earlier bucket while k < 2**48
    b, k = suite_mod._BUCKETS, suite_mod._FIRSTS
    assert b[-1] == 62 * suite_mod._TREND_SUB and k[-1] < 2**62
    assert (np.diff(b) > 0).all() and (np.diff(k) > 0).all()

    def bucket(ks):
        return np.floor(np.log2(ks.astype(np.float64)) * suite_mod._TREND_SUB)

    assert (bucket(k) == b).all()
    exact = k < 2**48
    assert exact.sum() > 2700 and (bucket(k[exact][1:] - 1) < b[exact][1:]).all()


def _held_peaks(tally) -> dict[int, float]:
    held = tally.peaks >= 0
    return dict(zip(suite_mod._BUCKETS[held].tolist(), tally.peaks[held].tolist()))


@pytest.mark.parametrize("seed", range(6))
def test_trend_peaks_equal_per_member_buckets(seed):
    rng = np.random.default_rng(seed)
    limit = int(rng.integers(10**3, 10**6))
    members = np.flatnonzero(rng.random(limit) < rng.uniform(0.01, 0.95)) + 3
    edges = rng.integers(0, len(members) + 1, int(rng.integers(0, 40))).tolist()
    # the member at index i has k = i + 1.  k = 1 alone; a one-member block
    # at a bucket's first k f, then a block from f + 1; a one-member block
    # one past another first k g, in the sparse buckets below 93 for even seeds
    firsts = suite_mod._FIRSTS[suite_mod._FIRSTS < len(members)]
    f = int(rng.choice(firsts[firsts > 93]))
    g = int(rng.choice(firsts[firsts <= 93] if seed % 2 == 0 else firsts))
    edges = sorted([*edges, 1, f - 1, f, g, g + 1])
    blocks = [(b, np.log(b.astype(np.float64))) for b in np.split(members, edges)]
    assert [len(b) for b, _ in blocks].count(1) >= 3
    tally = suite_mod._TrendTally()
    upto = 3
    for block, ln_block in blocks:
        upto = int(block[-1]) + 1 if len(block) else upto
        tally.absorb(block, upto, ln_block)
    assert tally.total == len(members)
    assert _held_peaks(tally) == _per_member_trend_peaks(blocks)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 129, 257])
def test_peak_step_equals_per_member_decade_maxima(seed):
    rng = np.random.default_rng(100 + seed)
    limit = int(rng.integers(10**4, 2 * 10**6))
    members = np.flatnonzero(rng.random(limit) < rng.uniform(0.01, 0.95)) + 3
    if seed > 3:
        # n_k = k + 1 up to k = seed, then n_k = k**2: a decade's peak sits
        # in its lowest bucket, 448 (k = 128, 129) or 512 (k = 256, 257)
        members = np.r_[2 : seed + 2, np.arange(seed + 1, 30_000) ** 2]
    # at these totals a decade's bound is a whole bucket: b_cur = 448 at 1280
    # members, b_prev = 512 at 25600
    totals = [t for t in (99, 100, 160, 1280, 25600) if t < len(members)]
    for total in [*totals, len(members)]:
        head = members[:total]
        tally = suite_mod._TrendTally()
        for block in np.split(head, np.sort(rng.integers(0, total + 1, 30))):
            tally.absorb(block, int(head[-1]) + 1, np.log(block.astype(np.float64)))
        if total < 100:  # under two decades there is no step
            assert tally.peak_step() is None
            continue
        ks = np.arange(1, total + 1, dtype=np.float64)
        ratios = np.log(ks) / np.log(head.astype(np.float64))
        buckets = np.floor(np.log2(ks) * suite_mod._TREND_SUB)
        b_hi = math.log2(total) * suite_mod._TREND_SUB
        b_cur = b_hi - suite_mod._TREND_SUB * math.log2(10)
        b_prev = b_hi - 2 * suite_mod._TREND_SUB * math.log2(10)
        cur = ratios[b_cur <= buckets].max()
        prev = ratios[(b_prev <= buckets) & (buckets < b_cur)].max()
        assert tally.peak_step() == cur - prev, total


def test_suite_records_independent_of_block_size(monkeypatch):
    limit = 3 * 10**5
    blocks = []

    def records(size):
        def sized(*args, **kwargs):
            for stats in iter_blocks(*args, **{**kwargs, "block_size": size}):
                blocks.append(stats.hi - stats.lo)
                yield stats

        blocks.clear()
        monkeypatch.setattr(convergence_mod, "iter_blocks", sized)
        rep = statement_suite(limit, pascal_check_limit=1000)
        assert sum(blocks) == limit - 1 and max(blocks) == min(size, limit - 1)
        return rep.to_records(include_rows=True)

    want = records(BLOCK)
    for size in (1000, 4097):
        assert records(size) == want, size
