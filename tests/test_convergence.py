"""Exceptional sets, envelopes, limsup rows, and the statement suite."""

import json
import math
import pathlib
import warnings

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


def _in_blocks_of(monkeypatch, size, start=None):
    """Run every scan of `convergence` in sieve blocks of `size` integers,
    from `start` on when it is given."""
    moved = {"block_size": size} if start is None else {"block_size": size, "start": start}

    def sized(*args, **kwargs):
        yield from iter_blocks(*args, **{**kwargs, **moved})

    monkeypatch.setattr(convergence_mod, "iter_blocks", sized)


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
        for spec, _, mask in hits:
            got[spec.p] += (np.flatnonzero(mask) + stats.lo).tolist()
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


def test_members_independent_of_block_size(monkeypatch):
    for spec, size in ((GAMMA, 64), (sequence_spec("omega_over_loglog"), 999)):
        want = [int(v) for b in exceptional_members(spec, 0.5, 20_000) for v in b]
        _in_blocks_of(monkeypatch, size)
        assert [int(v) for b in exceptional_members(spec, 0.5, 20_000) for v in b] == want
        monkeypatch.undo()


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


def test_collected_members_equal_blocks_taken_one_at_a_time(monkeypatch):
    # the member arrays the scan yields are the caller's
    _in_blocks_of(monkeypatch, 4097)
    for spec in _LOG_SPECS:
        one = [b.copy() for b in exceptional_members(spec, 0.5, 3 * 10**5)]
        kept = list(exceptional_members(spec, 0.5, 3 * 10**5))
        assert len(kept) == len(one) > 1, spec.label
        for got, want in zip(kept, one):
            np.testing.assert_array_equal(got, want, err_msg=spec.label)


def test_scan_masks_are_the_callers_to_keep(monkeypatch):
    # every mask the scan yields stays valid after the scan has moved on
    _in_blocks_of(monkeypatch, 4097)
    pairs = [(spec, eps) for spec in _LOG_SPECS for eps in (0.25, 1.0)]
    kept = [
        (stats, spec, eps, mask)
        for stats, hits in exceptional_scan(pairs, 3 * 10**5)
        for spec, eps, mask in hits
    ]
    assert len(kept) == len(pairs) * -(-(3 * 10**5 - 1) // 4097)
    for stats, spec, eps, mask in kept:
        want = convergence_mod.deviation(spec, stats) >= eps
        np.testing.assert_array_equal(mask, want, err_msg=f"{spec.label} {eps} {stats.lo}")


# every sequence the scan decides by cut-offs on a block field
_CUTOFF_SPECS = [
    sequence_spec(key, p=p)
    for key, p in (
        ("min_exponent_over_log", None),
        ("max_exponent_over_log", None),
        ("valuation_scaled", 2),
        ("valuation_scaled", 3),
        ("valuation_scaled", 5),
        ("power_rep_count", None),
        ("power_rep_weight", None),
        ("omega_over_loglog", None),
        ("bigomega_over_loglog", None),
        ("loglog_f", None),
        ("loglog_fstar", None),
    )
]


def _check_masks(pairs, limit, oracle=convergence_mod.deviation):
    """Scan the pairs to `limit` and check every mask against oracle >= eps;
    the number of masks checked."""
    checked = 0
    for stats, hits in exceptional_scan(pairs, limit):
        devs = {}
        for spec, eps, mask in hits:
            if spec not in devs:
                devs[spec] = oracle(spec, stats)
            wrong = np.flatnonzero(mask != (devs[spec] >= eps)) + stats.lo
            assert not len(wrong), (spec.label, eps, wrong[:5].tolist())
            checked += 1
    return checked


def test_scan_masks_equal_deviation_masks(monkeypatch):
    # the cut-offs against the per-n floats they stand in for, on the tie
    # tolerances and others; the single blocks hold 2**40 and 3**25, where
    # x_n of valuation_scaled is exactly 1, a tie at eps = 1
    eps_grid = (*_TIE_EPS, 0.1, 1 / 3, 0.75, 2.0, 3.0)
    pairs = [(spec, eps) for spec in _CUTOFF_SPECS for eps in eps_grid]
    assert _check_masks(pairs, 10**6) == 8 * len(pairs)
    for start in (10**9, 10**12, 2**40 - 5000, 3**25 - 100):
        _in_blocks_of(monkeypatch, 10**4, start)
        assert _check_masks(pairs, start + 10**4 - 1) == len(pairs), start


@pytest.mark.parametrize("size", [64, 999, 4097])
def test_zones_are_signed(monkeypatch, size):
    # in the first blocks, x of a value m can fall from above L + eps to below
    # L - eps: |x - L| >= eps at both ends of the block, yet some n between
    # are not members, so the zones of the two ends must agree in sign
    _in_blocks_of(monkeypatch, size)
    keys = ("omega_over_loglog", "bigomega_over_loglog", "loglog_f", "loglog_fstar")
    eps_grid = (0.01, 0.02, 0.03, 0.04, 0.05)
    pairs = [(sequence_spec(key), eps) for key in keys for eps in eps_grid]
    _check_masks(pairs, 3 * 10**5)


def test_masks_equal_deviation_when_every_value_is_undecided(monkeypatch):
    # a margin that no end clears leaves every value of every block to the
    # fallback, deviation on the gathered positions
    gathered = []
    oracle = convergence_mod.deviation

    def spy(spec, stats):
        gathered.append(len(stats.n))
        return oracle(spec, stats)

    monkeypatch.setattr(convergence_mod, "_DELTA", 1e9)
    monkeypatch.setattr(convergence_mod, "deviation", spy)
    pairs = [(spec, eps) for spec in _CUTOFF_SPECS for eps in (0.25, 1.0, 3.0)]
    for start, size, limit in ((2, 4097, 2 * 10**5), (3**25 - 100, 10**4, 3**25 + 9899)):
        _in_blocks_of(monkeypatch, size, start)
        gathered.clear()
        masks = _check_masks(pairs, limit, oracle)
        # a gathering per mask (only x = -inf, of loglog_fstar at the primes,
        # clears any margin)
        assert len(gathered) >= masks


def test_scan_does_not_warn():
    # the ends are evaluated at the field values between the block's least
    # and greatest, never at one that cannot occur (log of d(n)/2 - 1 <= 0)
    pairs = [(spec, eps) for spec in _CUTOFF_SPECS for eps in _TIE_EPS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, hits in exceptional_scan(pairs, 3 * 10**5):
            for _ in hits:
                pass


def test_valuation_values_of_gathered_n():
    # x_n = 1 at n = p**k is found by n: in positions gathered from a block,
    # and where one n holds several field values, only at the valuation k
    spec = sequence_spec("valuation_scaled", p=5)
    (stats,) = iter_blocks(200, frozenset(), ap_primes=(5,), start=100)
    whole = convergence_mod.sequence_values(spec, stats)
    idx = np.array([0, 24, 25, 26, 100])  # n = 100, 124, 125, 126, 200
    sub = convergence_mod._field_stats(spec, stats.n[idx], stats.ap[5][idx])
    got = convergence_mod.sequence_values(spec, sub)
    np.testing.assert_array_equal(got, whole[idx])
    assert got[2] == 1.0
    n = np.full(3, 125, dtype=np.int64)
    ends = convergence_mod._field_stats(spec, n, np.array([2, 3, 4]))
    lo, one, hi = convergence_mod.sequence_values(spec, ends)
    assert lo < one == 1.0 < hi


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
# the count-only path of a tally
# ---------------------------------------------------------------------------


def _block_case(tally, mask, upto) -> str:
    """Which of the paths of `Tally.absorb_mask` a block takes."""
    cps, m = tally.checkpoints, int(np.count_nonzero(mask))
    pending = len(tally.counts) < len(cps) and cps[len(tally.counts)] < upto
    rank = (1 << len(tally.rows)) <= tally.total + m
    if pending:
        return "both" if rank else "checkpoint"
    return "rank" if rank else "neither"


@pytest.mark.parametrize("seed", range(6))
def test_absorb_mask_equals_absorb_of_listed_members(seed):
    rng = np.random.default_rng(seed)
    lo, size = 3, int(rng.integers(2000, 200_000))
    mask = rng.random(size) < rng.uniform(0.01, 0.95)
    # an all-false block [a, mid) and an all-true block [mid, b)
    a, b = np.sort(rng.integers(0, size, 2)).tolist()
    mid = (a + b) // 2
    mask[a:mid], mask[mid:b] = False, True
    members = np.flatnonzero(mask)
    rank_at = [int(members[2**j - 1]) for j in range(30) if 2**j <= len(members)]
    # random checkpoints, and one at the member of a rank k = 2**j
    cps = {*(rng.integers(0, size, 12) + lo).tolist(), int(rng.choice(rank_at)) + lo}
    cps = sorted(cps)
    # random edges, a block of one rank's member alone and one of a checkpoint
    # alone; the repeated first edge makes a zero-length block
    i, x = int(rng.choice(rank_at)), int(rng.choice(cps)) - lo
    edges = {0, size, a, mid, b, i, i + 1, x, x + 1, *rng.integers(0, size, 30).tolist()}
    edges = [0, *sorted(edges)]
    by_mask = convergence_mod.Tally(tuple(cps))
    by_list = convergence_mod.Tally(tuple(cps))
    cases = set()
    for s0, s1 in zip(edges, edges[1:]):
        block, upto = mask[s0:s1], lo + s1
        cases.add(_block_case(by_mask, block, upto))
        cases.add("empty" if not block.any() else "full" if block.all() else "mixed")
        by_mask.absorb_mask(block, lo + s0, upto)
        by_list.absorb(np.flatnonzero(block) + lo + s0, upto)
        assert by_mask == by_list, (s0, s1)
    assert cases >= {"both", "checkpoint", "rank", "neither", "empty", "full"}
    for tally in (by_mask, by_list):
        tally.absorb(np.empty(0, dtype=np.int64), lo + size + 1)
    assert by_mask == by_list and len(by_mask.counts) == len(cps)
    assert by_mask.total == len(members) and by_mask.last_member == members[-1] + lo
    assert by_mask.final_rows() == by_list.final_rows()


def _listed_report(spec, eps, limit, xs):
    """A(x) at xs, and the rows at k = 1, 2, 4, ... and the final member, from
    the members that `exceptional_members` lists."""
    members = np.concatenate(
        [np.empty(0, dtype=np.int64), *exceptional_members(spec, eps, limit)]
    ).tolist()
    ks = [2**j for j in range(64) if 2**j <= len(members)]
    if members and ks[-1] != len(members):
        ks.append(len(members))
    rows = [(k, members[k - 1], math.log(k) / math.log(members[k - 1])) for k in ks]
    counts = [sum(n <= x for n in members) for x in xs]
    return counts, rows, len(members)


@pytest.mark.parametrize("size", [1, 7, 4097])
def test_count_and_limsup_reports_equal_listed_members(monkeypatch, size):
    _in_blocks_of(monkeypatch, size)
    limit = 2000 if size < 100 else 30_000
    cp = Checkpoints((2, 3, 17, 64, 100, 1000, limit))
    for spec, eps in (
        (sequence_spec("bigomega_over_loglog"), 0.25),
        (sequence_spec("omega_over_loglog"), 0.5),
        (sequence_spec("valuation_scaled", p=3), 0.5),
        (GAMMA, 0.5),
        (H_MIN, 0.25),
        (H_MIN, 2.0),
    ):
        counts, rows, total = _listed_report(spec, eps, limit, cp.values)
        rep = count_report(spec, eps, cp, envelope=False)
        assert [r.count for r in rep.rows] == counts, (spec.label, eps)
        limsup = remark_limsup(spec, eps, limit)
        assert limsup.total == total, (spec.label, eps)
        assert [(r.k, r.member, r.ratio) for r in limsup.rows] == rows, (spec.label, eps)


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
    # members (h_min(n) / log n >= 0.5) that are not 2-smooth; in blocks of
    # 4 from n = 2 they lie in two blocks, 2..5 and 6..9
    monkeypatch.setattr(suite_mod, "smooth_bound_for", lambda eps: 2)
    for size, limit in ((BLOCK, 10**5), (4, 10**4)):
        _in_blocks_of(monkeypatch, size)
        rep = statement_suite(limit, eps_grid=(0.5,), statements=("I",))
        assert not rep.passed
        (res,) = rep.results
        chk = {c.name: c for c in res.checks}["containment"]
        assert not chk.passed and chk.blocking
        assert [r["n"] for r in chk.rows] == [3, 5, 6, 7, 9], size
        assert chk.rows[0]["value"] == pytest.approx(1 / math.log(3))
        assert chk.details.startswith(
            "every member is 2-smooth (largest prime with 1/log p >= eps); "
            "witnesses [(3, "
        )


def test_set_equality_names_the_first_differing_member(monkeypatch):
    # with sigma(6) read as 1, the sixth powers 64, 729, ... leave tau's set
    # and stay in gamma's; from n = 2, 64 is the last entry of the ninth
    # block of 7, at index 12 of the second block of 50, and in the first
    # block of 4097 with 729 and 4096
    table = convergence_mod._SIGMA_SMALL.copy()
    table[6] = 1.0
    monkeypatch.setattr(convergence_mod, "_SIGMA_SMALL", table)
    for size in (7, 50, 4097):
        _in_blocks_of(monkeypatch, size)
        rep = statement_suite(10**4, eps_grid=(0.5,), statements=("IV", "V"))
        for res in rep.results:
            (eq,) = [c for c in res.checks if c.name == "set-equality"]
            assert not eq.passed and eq.blocking
            assert eq.details.endswith("; first differing member 64"), size


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
        # at eps 1.5 the IV and V sets differ, first at n = 4
        rep = statement_suite(limit, eps_grid=(0.25, 0.5, 1.0, 1.5), pascal_check_limit=1000)
        assert sum(blocks) == limit - 1 and max(blocks) == min(size, limit - 1)
        return rep.to_records(include_rows=True)

    want = records(BLOCK)
    for size in (1000, 4097):
        assert records(size) == want, size
