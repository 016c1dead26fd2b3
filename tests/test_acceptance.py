"""Acceptance battery: ten quantitative criteria at desk scale.

Each test prints one `criterion NN [PASS|FAIL]` line (visible under
`pytest -s` or in failure output) and asserts the stated tolerances and
runtime budgets.  The battery touches every public layer: constructions,
the exponent estimator, ideal classification, exceptional-set scans,
envelopes, and the statement suite, at the 10**6..10**8 scales the library
is meant for.
"""

import math
import time

import numpy as np
import pytest

from idealconv import (
    Checkpoints,
    classify_leq,
    classify_less,
    count_report,
    estimate_lambda,
    exceptional_members,
    exceptional_set,
    from_iterable,
    iter_blocks,
    partial_sum_probe,
    pascal_count,
    power_set,
    logpower_set,
    remark_limsup,
    scale,
    sequence_spec,
    sequence_values,
    smooth_set,
    statement_suite,
    union,
)

from oracles import pascal_rowscan, perfect_powers_upto, smooth_upto

GAMMA = sequence_spec("power_rep_count")
TAU = sequence_spec("power_rep_weight")
PASCAL = sequence_spec("pascal_count")
OMEGA = sequence_spec("omega_over_loglog")


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. exponent recovery on power sets
# ---------------------------------------------------------------------------


def test_01_exponent_recovery():
    t0 = time.perf_counter()
    errors = {
        s: abs(estimate_lambda(power_set(s), terms=10**6).value - s)
        for s in (0.25, 0.5, 0.75)
    }
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    ok = worst <= 0.01 and elapsed < 10.0
    _report(
        1,
        "exponent recovery",
        ok,
        f"max |estimate - s| = {worst:.6f} over s in (0.25, 0.5, 0.75) "
        f"at 10^6 terms; {elapsed:.1f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# 2. chain placement and partial-sum separation
# ---------------------------------------------------------------------------


def test_02_chain_placement():
    t0 = time.perf_counter()
    sq = power_set(0.5)
    verdicts = (
        classify_leq(sq, 0.25).verdict.value,
        classify_leq(sq, 0.5).verdict.value,
        classify_less(sq, 0.75).verdict.value,
    )
    placement_ok = verdicts == ("inconsistent", "consistent", "consistent")

    decades = Checkpoints.geometric(10**7, start=10**3, factor=10)
    power_sums = partial_sum_probe(sq, 0.5, decades)
    log_sums = partial_sum_probe(logpower_set(0.5), 0.5, decades)
    power_step = power_sums[-1][1] - power_sums[-2][1]
    log_step = log_sums[-1][1] - log_sums[-2][1]
    elapsed = time.perf_counter() - t0
    ok = placement_ok and power_step > 0.5 and log_step < 0.05 and elapsed < 30.0
    _report(
        2,
        "chain placement",
        ok,
        f"verdicts {verdicts}; final-decade partial sums grow "
        f"{power_step:.3f} (power, need > 0.5) vs {log_step:.3f} "
        f"(logpower, need < 0.05); {elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# 3. smooth-count bound to 10^8
# ---------------------------------------------------------------------------


def test_03_smooth_count_bound():
    t0 = time.perf_counter()
    cp = Checkpoints.geometric(10**8, start=10, factor=10)
    worst = 0.0
    for primes in ((2, 3), (2, 3, 5)):
        d = smooth_set(primes)
        for x in cp.values:
            bound = math.prod(math.log(x) / math.log(p) + 1 for p in primes)
            count = d.count(x)
            worst = max(worst, count / bound)
            assert count <= bound, (primes, x, count, bound)
    exact = smooth_set((2, 3)).count(100)
    oracle = len(smooth_upto([2, 3], 100))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and exact == oracle == 20 and elapsed < 5.0
    _report(
        3,
        "smooth-count bound",
        ok,
        f"A(x) <= prod(log x/log p + 1) up to 10^8 (max ratio {worst:.3f}); "
        f"D(2,3)(100) = {exact} (oracle {oracle}); {elapsed:.1f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# 4. smooth containment of the min-exponent exceptional sets
# ---------------------------------------------------------------------------


def test_04_smooth_containment():
    t0 = time.perf_counter()
    rep = statement_suite(10**7, statements=("I",), eps_grid=(0.3, 0.5, 0.9))
    containment = [
        c for r in rep.results for c in r.checks if c.name == "containment"
    ]
    elapsed = time.perf_counter() - t0
    violations = sum(len(c.rows) for c in containment)
    ok = (
        len(containment) == 3
        and all(c.passed for c in containment)
        and violations == 0
        and elapsed < 60.0
    )
    _report(
        4,
        "smooth containment",
        ok,
        f"all members p0-smooth at eps in (0.3, 0.5, 0.9) up to 10^7, "
        f"{violations} violations; {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# 5./6. counting envelopes over [4, 10^7]
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def envelope_suite():
    cp = Checkpoints.geometric(10**7, start=4, factor=2)
    return statement_suite(
        10**7, statements=("II", "III"), eps_grid=(0.25, 0.5), checkpoints=cp
    )


def _envelope_checks(rep, statement, eps, names):
    out = []
    for r in rep.results:
        if r.statement == statement and r.eps == eps:
            out.extend(c for c in r.checks if c.name in names)
    return out


def test_05_max_exponent_envelope(envelope_suite):
    checks = [
        c
        for eps in (0.25, 0.5)
        for c in _envelope_checks(
            envelope_suite, "II", eps, {"envelope[max_exponent]"}
        )
    ]
    bad = sum(1 for c in checks for row in c.rows if not row["ok"])
    ok = len(checks) == 2 and all(c.passed for c in checks) and bad == 0
    _report(
        5,
        "max-exponent envelope",
        ok,
        f"count <= 2*sqrt(2)*x^(1 - eps*log2/2) at all checkpoints in "
        f"[4, 10^7] for eps in (0.25, 0.5); {bad} violations",
    )


def test_06_valuation_envelope(envelope_suite):
    names = {"envelope[valuation p=2]", "envelope[valuation p=3]"}
    checks = _envelope_checks(envelope_suite, "III", 0.5, names)
    bad = sum(1 for c in checks for row in c.rows if not row["ok"])
    ok = len(checks) == 2 and all(c.passed for c in checks) and bad == 0
    _report(
        6,
        "prime-valuation envelope",
        ok,
        f"count <= (log x/log p)*x^(1-eps) at all checkpoints in [4, 10^7] "
        f"for p in (2, 3) at eps=0.5; {bad} violations",
    )


# ---------------------------------------------------------------------------
# 7. perfect-power identification, envelope, and the Pascal count
# ---------------------------------------------------------------------------


def test_07_perfect_powers_and_pascal():
    t0 = time.perf_counter()
    want = perfect_powers_upto(10**7)

    got_gamma = [int(v) for b in exceptional_members(GAMMA, 0.5, 10**7) for v in b]
    got_tau = [int(v) for b in exceptional_members(TAU, 0.5, 10**7) for v in b]
    sets_ok = got_gamma == want and got_tau == want
    a100 = sum(1 for v in got_gamma if v <= 100)

    cp = Checkpoints.geometric(10**7, start=4, factor=2)
    envelope_ok = count_report(GAMMA, 0.5, cp).envelope_ok
    verdict = classify_leq(exceptional_set(GAMMA, 0.5, 10**7), 0.5).verdict.value

    # Pascal occurrence count: full per-n scan to 10^5, sqrt ratio to 10^7
    direct = [n for n in range(2, 10**5 + 1) if abs(pascal_count(n) - 2) >= 0.5]
    enum = exceptional_set(PASCAL, 0.5, 10**5).prefix(len(direct))
    pascal_sets_ok = direct == enum
    n_set = exceptional_set(PASCAL, 0.5, 10**7)
    sup_ratio = max(n_set.count(x) / math.sqrt(x) for x in cp.values)
    n_verdict = classify_leq(
        from_iterable(direct),
        0.5,
        checkpoints=Checkpoints.geometric(10**5, start=50, factor=2),
    ).verdict.value

    elapsed = time.perf_counter() - t0
    ok = (
        sets_ok
        and a100 == 12
        and envelope_ok
        and verdict == "consistent"
        and pascal_sets_ok
        and n_verdict == "consistent"
        and elapsed < 300.0
    )
    _report(
        7,
        "perfect powers and Pascal count",
        ok,
        f"gamma/tau exceptional sets == {len(want)} perfect powers <= 10^7, "
        f"A(100)={a100}; envelope holds, classify_leq(0.5) {verdict}; "
        f"Pascal row-scan agrees to 10^5 ({len(direct)} members, "
        f"classify {n_verdict}), sup A(x)/sqrt(x) = {sup_ratio:.4f} "
        f"(reported); {elapsed:.1f}s (budget 300s)",
    )


# ---------------------------------------------------------------------------
# 8. oracle equivalence for the combinatorial counters
# ---------------------------------------------------------------------------


def test_08_oracle_equivalence():
    t0 = time.perf_counter()
    limit = 10**5
    reps = np.zeros(limit + 1, dtype=np.int64)
    weight = np.zeros(limit + 1, dtype=np.int64)
    for a in range(2, math.isqrt(limit) + 1):
        v, b = a * a, 2
        while v <= limit:
            reps[v] += 1
            weight[v] += b
            v *= a
            b += 1
    # gamma and tau as the sieve gives them: divisor count and sum of exp_gcd
    gt_bad = 0
    for stats in iter_blocks(limit, {"exp_gcd"}):
        gamma = sequence_values(sequence_spec("power_rep_count"), stats)
        tau = sequence_values(sequence_spec("power_rep_weight"), stats)
        gt_bad += int(np.sum(gamma != 1 + reps[stats.n]))
        gt_bad += int(np.sum(tau != 1 + weight[stats.n]))

    scan = pascal_rowscan(10**4)
    pc_bad = sum(1 for n in range(2, 10**4 + 1) if pascal_count(n) != scan[n])
    elapsed = time.perf_counter() - t0
    ok = gt_bad == 0 and pc_bad == 0
    _report(
        8,
        "oracle equivalence",
        ok,
        f"gamma/tau vs (a,b) enumeration: {gt_bad} mismatches on [2, 10^5]; "
        f"pascal_count vs row scan: {pc_bad} mismatches on [2, 10^4]; "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. limsup ratio march for the omega exceptional set
# ---------------------------------------------------------------------------


def test_09_limsup_trend():
    t0 = time.perf_counter()
    members = np.concatenate(list(exceptional_members(OMEGA, 0.5, 10**7)))
    total = len(members)
    ks = np.arange(1, total + 1, dtype=np.float64)
    ratio = np.where(ks > 1, np.log(ks) / np.log(members.astype(np.float64)), 0.0)
    final = float(ratio[-1])
    c1, c2 = total // 100, total // 10
    peak_step = float(ratio[c2:].max() - ratio[c1:c2].max())

    rep = remark_limsup(OMEGA, 0.5, 10**7)
    api_agrees = rep.total == total and rep.rows[-1].ratio == pytest.approx(final)
    elapsed = time.perf_counter() - t0
    ok = final >= 0.8 and peak_step >= -0.01 and api_agrees
    _report(
        9,
        "limsup trend",
        ok,
        f"log k/log n_k reaches {final:.4f} at k={total} (bar 0.8); "
        f"final-decade peak step {peak_step:+.4f} (tolerance -0.01); "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 10. estimator algebra: union and scale invariance
# ---------------------------------------------------------------------------


def test_10_estimator_algebra():
    t0 = time.perf_counter()
    grid = (0.25, 0.5, 0.75)
    terms = 10**6
    base = {s: estimate_lambda(power_set(s), terms=terms).value for s in grid}

    scale_worst = 0.0
    for s in grid:
        for k in (2, 3, 10):
            est = estimate_lambda(scale(power_set(s), k), terms=terms).value
            scale_worst = max(scale_worst, abs(est - base[s]))

    union_worst = 0.0
    for s in grid:
        for t in grid:
            est = estimate_lambda(
                union(power_set(s), power_set(t)), terms=terms
            ).value
            union_worst = max(union_worst, abs(est - max(base[s], base[t])))
    elapsed = time.perf_counter() - t0
    ok = scale_worst <= 0.01 and union_worst <= 0.02
    _report(
        10,
        "estimator algebra",
        ok,
        f"scale invariance: max drift {scale_worst:.6f} over 3x3 (s, k) "
        f"pairs (tolerance 0.01); union rule: max deviation "
        f"{union_worst:.6f} over 3x3 (s, t) pairs (tolerance 0.02); "
        f"{elapsed:.1f}s",
    )
