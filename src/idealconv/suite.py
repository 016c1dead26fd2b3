"""Verification suite for the eight exceptional-set statements.

Each statement asserts something checkable about the exceptional sets of one
or two arithmetic sequences: a smooth-containment property, a closed-form
counting envelope, membership evidence for a growth ideal, or a full-exponent
limsup.  `statement_suite` runs the whole battery from a single block-sieve
pass over [2, limit], so the 10**7-scale run costs one scan regardless of
how many statements and tolerances are enabled.  That pass is
`convergence.exceptional_scan`, the generator that feeds every tally of the
package: here one `convergence.Tally` per (sequence, eps), and one per
smooth bound of statement I from the same blocks, each fed the block's mask.
The suite adds two hooks to the scan.  Statement I's smooth-containment
witnesses are the first five members where the smooth mask is false, listed
only from a block that holds one.  The IV/V set equality is one more
`Tally` per eps, fed the mask gamma != tau: it holds when that tally counts
no member, and its first row names the first differing member.  The checks
read counts and ratio rows off the tallies; the VII/VIII limsup checks read
the final row, and the rows at k = 2**j show the climb.
Statement VI walks Pascal's triangle once, `convergence.pascal_distances`,
and each eps thresholds that one table of |N(n) - 2|; its counts at the
suite's checkpoints feed the same decay verdict as II to V.

Statement identifiers (I .. VIII) index the suite's own checklist:

  I     min-exponent ratio h(n)/log n: exceptional sets are p0-smooth and
        polylog-small (evidence for membership in the intersection ideal).
  II    max-exponent ratio H(n)/log n: explicit envelope, below-exponent-1
        evidence.
  III   scaled prime valuation: explicit envelope (p = 2, 3), below-1
        evidence.
  IV/V  power-representation count/weight: sqrt-type envelope, at-most-1/2
        evidence, and the two sets coincide.
  VI    Pascal occurrence count: measured sqrt ratio and at-most-1/2
        evidence at the suite's checkpoints (the verdict is skipped, not
        blocking, below limit 50,000), and agreement with the direct per-n
        count.
  VII   omega/Omega over loglog: exceptional sets are exponent-1 large
        (limsup log k / log n_k climbs toward 1).
  VIII  loglog of the divisor products: same full-exponent behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import pascal_counts
from .bulk import BLOCK, small_primes
from .convergence import (
    SequenceSpec,
    Tally,
    _field_stats,
    default_envelope,
    deviation,
    envelope_rows,
    exceptional_scan,
    pascal_distances,
    sequence_spec,
    smooth_bound_for,
)
from .errors import InvalidArgumentError
from .exponent import POLICY, Ideal, Verdict, classify_rows
from .sets import Checkpoints

__all__ = [
    "CheckResult",
    "StatementResult",
    "SuiteReport",
    "statement_suite",
]

STATEMENTS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII")
DEFAULT_EPS_GRID = (0.25, 0.5, 1.0)

# limsup bars are asserted only where members are plentiful at desk scale;
# larger tolerances are reported without blocking (members of the
# omega-family sets appear only beyond ~exp(exp(2)) once eps > 1/2).
_REMARK_BAR = 0.80
_REMARK_BLOCKING_MAX_EPS = 0.5

# statement -> the (sequence key, prime) pairs it adds to the shared scan,
# and for the statements checked against an envelope and a decay verdict,
# (envelope check label, the ideal of its verdict, exponent q)
_SCAN = {
    "I": ((("min_exponent_over_log", None),), None),
    "II": ((("max_exponent_over_log", None),), ("max_exponent", Ideal.BELOW, 1.0)),
    "III": (
        (("valuation_scaled", 2), ("valuation_scaled", 3)),
        ("valuation p={p}", Ideal.BELOW, 1.0),
    ),
    "IV": ((("power_rep_count", None),), ("power", Ideal.AT_MOST, 0.5)),
    "V": ((("power_rep_weight", None),), ("power", Ideal.AT_MOST, 0.5)),
    "VII": ((("omega_over_loglog", None), ("bigomega_over_loglog", None)), None),
    "VIII": ((("loglog_f", None), ("loglog_fstar", None)), None),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    blocking: bool
    details: str
    rows: tuple[dict, ...] = ()


@dataclass(frozen=True)
class StatementResult:
    statement: str
    eps: float
    passed: bool
    checks: tuple[CheckResult, ...]


@dataclass(frozen=True)
class SuiteReport:
    limit: int
    eps_grid: tuple[float, ...]
    checkpoints: Checkpoints
    results: tuple[StatementResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_records(self, include_rows: bool = False) -> list[dict]:
        records = []
        for res in self.results:
            for chk in res.checks:
                rec = {
                    "statement": res.statement,
                    "eps": res.eps,
                    "check": chk.name,
                    "passed": chk.passed,
                    "blocking": chk.blocking,
                    "details": chk.details,
                }
                if include_rows:
                    rec["rows"] = list(chk.rows)
                records.append(rec)
        return records


def _count_bound(x: int, primes: list[int]) -> float:
    return math.prod(math.log(x) / math.log(p) + 1 for p in primes)


def _verdict_check(name: str, verdict_obj) -> CheckResult:
    return CheckResult(
        name=name,
        passed=verdict_obj.verdict is Verdict.CONSISTENT,
        blocking=True,
        details=f"verdict={verdict_obj.verdict.value} at q={verdict_obj.q:g}"
        f"{verdict_obj.witness_note}; " + POLICY,
        rows=tuple(
            {"delta": r.delta, "x": r.x, "count": r.count, "ratio": r.ratio}
            for r in verdict_obj.evidence
        ),
    )


def _envelope_check(
    label: str, spec: SequenceSpec, eps: float, cps: tuple[int, ...], counts: list[int]
) -> CheckResult:
    rows = envelope_rows(default_envelope(spec), eps, spec.p, cps, counts)
    rows = [r for r in rows if r.envelope is not None]
    # an envelope that underflows to 0.0 has no ratio
    worst = max((r.ratio for r in rows if r.ratio is not None), default=0.0)
    return CheckResult(
        name=f"envelope[{label.format(p=spec.p)}]",
        passed=all(r.ok for r in rows),
        blocking=True,
        details=f"count <= envelope at {len(rows)} checkpoints; max ratio {worst:.3g}",
        rows=tuple(
            {"x": r.x, "count": r.count, "envelope": r.envelope, "ok": r.ok}
            for r in rows
        ),
    )


def _limsup_check(label: str, tally: Tally, eps: float) -> CheckResult:
    rows = tally.final_rows()
    blocking = eps <= _REMARK_BLOCKING_MAX_EPS
    if not rows:
        return CheckResult(
            name=f"limsup[{label}]",
            passed=not blocking,
            blocking=blocking,
            details="exceptional set empty in range",
        )
    final = rows[-1].ratio
    ok = final >= _REMARK_BAR
    return CheckResult(
        name=f"limsup[{label}]",
        passed=ok or not blocking,
        blocking=blocking,
        details=(
            f"log k/log n_k reaches {final:.3f} at k={rows[-1].k} "
            f"(bar {_REMARK_BAR:g})"
        ),
        rows=tuple({"k": r.k, "member": r.member, "ratio": r.ratio} for r in rows),
    )


def statement_suite(
    limit: int,
    checkpoints: Checkpoints | None = None,
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID,
    statements: tuple[str, ...] | None = None,
    pascal_check_limit: int = 100_000,
) -> SuiteReport:
    """Run the verification checklist over [2, limit].

    Individual check failures are collected in the report, never raised.
    """
    if limit < 10**4:
        raise InvalidArgumentError(
            f"suite needs at least four decades of range, got limit={limit}"
        )
    cp = checkpoints or Checkpoints.geometric(limit, start=1000, factor=2)
    if len(cp.values) < 3:  # the decay verdicts need three points
        raise InvalidArgumentError("need at least 3 checkpoints")
    if cp.values[-1] > limit:
        raise InvalidArgumentError(
            f"checkpoint {cp.values[-1]} exceeds the scan limit {limit}"
        )
    if any(not e > 0 for e in eps_grid):
        raise InvalidArgumentError("eps grid must be positive")
    # each (sequence, eps) has one tally, which a repeated eps would feed twice
    if len(set(eps_grid)) < len(eps_grid):
        raise InvalidArgumentError(
            f"eps grid must not repeat a value, got {tuple(eps_grid)}"
        )
    eps_grid = tuple(eps_grid)
    stmts = tuple(statements) if statements is not None else STATEMENTS
    unknown = set(stmts) - set(STATEMENTS)
    if unknown:
        raise InvalidArgumentError(f"unknown statements: {sorted(unknown)}")
    stmts = tuple(s for s in STATEMENTS if s in stmts)
    cps = cp.values
    xs = list(cps)

    scan = {
        sid: [sequence_spec(key, p) for key, p in _SCAN[sid][0]]
        for sid in stmts
        if sid in _SCAN
    }
    smooth_bounds = {eps: smooth_bound_for(eps) for eps in eps_grid if "I" in stmts}
    bounds = tuple(sorted({b for b in smooth_bounds.values() if b is not None}))

    # one tally per (sequence, eps) and one per smooth bound
    tallies: dict[tuple[str, float], Tally] = {}
    for specs in scan.values():
        for spec in specs:
            for eps in eps_grid:
                tallies[(spec.label, eps)] = Tally(cps)
    smooth = {b: Tally(cps) for b in bounds}
    violations: dict[float, list[tuple[int, float]]] = {eps: [] for eps in eps_grid}
    # per eps, the members of one IV/V set that the other lacks
    differ = {eps: Tally() for eps in eps_grid} if {"IV", "V"} <= set(stmts) else {}
    gamma: dict[float, np.ndarray] = {}  # the block's gamma mask per eps

    pairs = [(spec, eps) for sp in scan.values() for spec in sp for eps in eps_grid]
    for stats, hits in exceptional_scan(pairs, limit, bounds):
        # a mask indexes the block: its members are n = lo + index
        lo, hi = stats.lo, stats.hi
        for b, tally in smooth.items():
            tally.absorb_mask(stats.smooth_ok[b], lo, hi)
        for spec, eps, mask in hits:
            tallies[(spec.label, eps)].absorb_mask(mask, lo, hi)
            if spec.key == "min_exponent_over_log":
                b = smooth_bounds[eps]
                vio = violations[eps]
                if len(vio) < 5:
                    bad = mask if b is None else mask & ~stats.smooth_ok[b]
                    if bad.any():
                        idx = np.flatnonzero(bad)[:5]
                        at = _field_stats(spec, stats.n[idx], stats.h_min[idx])
                        dev = deviation(spec, at)  # x_n itself, as L = 0
                        vio += [(lo + int(i), float(d)) for i, d in zip(idx, dev)]
            elif differ and spec.key == "power_rep_count":
                gamma[eps] = mask
            elif differ and spec.key == "power_rep_weight":
                differ[eps].absorb_mask(np.not_equal(gamma[eps], mask, out=mask), lo, hi)

    vi_checks = (
        _statement_vi_checks(eps_grid, limit, cps, pascal_check_limit)
        if "VI" in stmts
        else {}
    )
    results: list[StatementResult] = []
    for sid in stmts:
        for eps in eps_grid:
            checks: list[CheckResult] = []
            if sid == "I":
                checks.extend(
                    _statement_i_checks(
                        tallies, smooth_bounds, smooth, violations[eps], eps, xs
                    )
                )
            elif sid in _SCAN and _SCAN[sid][1]:
                label, ideal, q = _SCAN[sid][1]
                for spec in scan[sid]:
                    counts = tallies[(spec.label, eps)].counts
                    env = _envelope_check(label, spec, eps, cps, counts)
                    tag = f"[p={spec.p}]" if spec.p is not None else ""
                    v = classify_rows(ideal, spec.label, q, xs, counts)
                    checks += [env, _verdict_check(f"ideal-fit{tag}", v)]
                if sid in ("IV", "V") and differ:
                    diff = differ[eps]
                    wit = f"; first differing member {diff.rows[0].member}" if diff.total else ""
                    checks.append(
                        CheckResult(
                            name="set-equality",
                            passed=diff.total == 0,
                            blocking=True,
                            details="count and weight exceptional sets coincide" + wit,
                        )
                    )
            elif sid == "VI":
                checks.extend(vi_checks[eps])
            else:  # VII, VIII
                for spec in scan[sid]:
                    tally = tallies[(spec.label, eps)]
                    checks.append(_limsup_check(spec.key, tally, eps))
            passed = all(c.passed for c in checks if c.blocking)
            results.append(
                StatementResult(
                    statement=sid, eps=eps, passed=passed, checks=tuple(checks)
                )
            )
    return SuiteReport(
        limit=limit, eps_grid=eps_grid, checkpoints=cp, results=tuple(results)
    )


def _statement_i_checks(
    tallies, smooth_bounds, smooth, vio, eps, xs
) -> list[CheckResult]:
    key = "min_exponent_over_log"
    tally = tallies[(key, eps)]
    b = smooth_bounds[eps]
    if b is None:
        detail = (
            "no prime has 1/log p >= eps, so the exceptional set must be empty"
        )
        ok = tally.total == 0
    else:
        detail = f"every member is {b}-smooth (largest prime with 1/log p >= eps)"
        ok = not vio
    if vio:
        detail += f"; witnesses {vio[:3]}"
    checks = [
        CheckResult(
            name="containment",
            passed=ok,
            blocking=True,
            details=detail,
            rows=tuple({"n": n, "value": v} for n, v in vio),
        )
    ]
    if b is not None:
        primes = small_primes(b).tolist()
        # +1 counts n = 1, smooth by convention
        caps = (_count_bound(x, primes) for x in xs)
        rows = [
            {"x": x, "smooth_count": c + 1, "bound": cap, "ok": c + 1 <= cap}
            for x, c, cap in zip(xs, smooth[b].counts, caps)
        ]
        checks.append(
            CheckResult(
                name="count-bound",
                passed=all(r["ok"] for r in rows),
                blocking=True,
                details=f"smooth counts under prod(log x/log p + 1) for primes <= {b}",
                rows=tuple(rows),
            )
        )
    checks.append(
        _verdict_check(
            "ideal-fit", classify_rows(Ideal.AT_MOST, key, 0.25, xs, tally.counts)
        )
    )
    return checks


def _statement_vi_checks(
    eps_grid: tuple[float, ...],
    limit: int,
    cps: tuple[int, ...],
    pascal_check_limit: int,
) -> dict[float, list[CheckResult]]:
    """Statement VI's checks for each eps.  One walk of Pascal's triangle
    to `limit` and one direct per-n count to `pascal_check_limit`, on arrays
    of at most BLOCK integers, each give a table of the n whose count is not
    2 and |N(n) - 2|; each eps takes its members from both as dist >= eps.
    The sqrt-ratio rows and the ideal-fit verdict read the members' counts
    at the checkpoints `cps`."""
    check_to = min(limit, pascal_check_limit)
    odd = [np.empty((2, 0), dtype=np.int64)]  # rows n and |N(n) - 2|
    for lo in range(2, check_to + 1, BLOCK):
        n = np.arange(lo, min(lo + BLOCK, check_to + 1), dtype=np.int64)
        dist = np.abs(pascal_counts(n) - 2)
        odd.append(np.stack([n, dist])[:, dist > 0])
    direct_n, direct_dist = np.concatenate(odd, axis=1)
    walk_n, walk_dist = pascal_distances(limit)
    out = {}
    for eps in eps_grid:
        members = walk_n[walk_dist >= eps]
        counts = np.searchsorted(members, cps, side="right").tolist()
        rows = [
            {"x": x, "count": c, "sqrt_ratio": c / math.sqrt(x)}
            for x, c in zip(cps, counts)
        ]
        sup_ratio = max((r["sqrt_ratio"] for r in rows), default=0.0)
        checks = [
            CheckResult(
                name="sqrt-ratio",
                passed=True,
                blocking=False,
                details=f"measured sup A(x)/sqrt(x) = {sup_ratio:.4f} over the "
                "checkpoints",
                rows=tuple(rows),
            )
        ]
        if limit < 50_000:
            checks.append(
                CheckResult(
                    name="ideal-fit",
                    passed=True,
                    blocking=False,
                    details="skipped: range below three decades for a decay verdict",
                )
            )
        else:
            verdict = classify_rows(Ideal.AT_MOST, "pascal_count", 0.5, list(cps), counts)
            checks.append(_verdict_check("ideal-fit", verdict))
        if check_to >= 2:
            direct = direct_n[direct_dist >= eps]
            enum = members[members <= check_to]
            diff = np.setxor1d(direct, enum)
            wit = f"; first disagreement at {diff[0]}" if len(diff) else ""
            checks.append(
                CheckResult(
                    name="membership-agreement",
                    passed=not len(diff),
                    blocking=True,
                    details=f"enumerated members match the per-n count up to {check_to}"
                    + wit,
                )
            )
        out[eps] = checks
    return out
