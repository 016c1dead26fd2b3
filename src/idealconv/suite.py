"""Verification suite for the eight exceptional-set statements.

Each statement asserts something checkable about the exceptional sets of one
or two arithmetic sequences: a smooth-containment property, a closed-form
counting envelope, membership evidence for a growth ideal, or a full-exponent
limsup.  `statement_suite` runs the whole battery from a single block-sieve
pass over [2, limit], so the 10**7-scale run costs one scan regardless of
how many statements and tolerances are enabled.  The pass feeds one
`convergence.Tally` per (sequence, eps) and one per smooth bound of
statement I; the checks read counts and ratio rows off those tallies.
Statement VI takes the Pascal members from `exceptional_members`, which
enumerates Pascal's triangle instead of scanning.

Statement identifiers (I .. VIII) index the suite's own checklist:

  I     min-exponent ratio h(n)/log n: exceptional sets are p0-smooth and
        polylog-small (evidence for membership in the intersection ideal).
  II    max-exponent ratio H(n)/log n: explicit envelope, below-exponent-1
        evidence.
  III   scaled prime valuation: explicit envelope (p = 2, 3), below-1
        evidence.
  IV/V  power-representation count/weight: sqrt-type envelope, at-most-1/2
        evidence, and the two sets coincide.
  VI    Pascal occurrence count: measured sqrt ratio, at-most-1/2 evidence,
        and agreement with the direct per-n count.
  VII   omega/Omega over loglog: exceptional sets are exponent-1 large
        (limsup log k / log n_k climbs toward 1).
  VIII  loglog of the divisor products: same full-exponent behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bulk import iter_blocks, small_primes
from .convergence import (
    Tally,
    default_envelope,
    deviation,
    envelope_rows,
    exceptional_members,
    required_fields,
    sequence_spec,
    smooth_bound_for,
)
from .errors import InvalidArgumentError
from .exponent import Verdict, classify_rows_leq, classify_rows_less
from .sets import Checkpoints

__all__ = [
    "STATEMENTS",
    "CheckResult",
    "StatementResult",
    "SuiteReport",
    "statement_suite",
]

STATEMENTS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII")

_TITLES = {
    "I": "min-exponent ratio: smooth containment, smallest-ideal evidence",
    "II": "max-exponent ratio: envelope and below-exponent-1 evidence",
    "III": "scaled prime valuation: envelope and below-exponent-1 evidence",
    "IV": "power-representation count: envelope and at-most-1/2 evidence",
    "V": "power-representation weight: envelope and at-most-1/2 evidence",
    "VI": "Pascal occurrence count: sqrt ratio and at-most-1/2 evidence",
    "VII": "prime-factor counts over loglog: exceptional sets of exponent 1",
    "VIII": "divisor-product loglog: exceptional sets of exponent 1",
}

# limsup bars are asserted only where members are plentiful at desk scale;
# larger tolerances are reported without blocking (members of the
# omega-family sets appear only beyond ~exp(exp(2)) once eps > 1/2).
_REMARK_BAR = 0.80
_REMARK_BLOCKING_MAX_EPS = 0.5
# resolution for the streamed trend statistic: k-buckets per doubling of k
_TREND_SUB = 64

# the (sequence key, prime) pairs each statement adds to the shared scan
_SCAN = {
    "I": (("min_exponent_over_log", None),),
    "II": (("max_exponent_over_log", None),),
    "III": (("valuation_scaled", 2), ("valuation_scaled", 3)),
    "IV": (("power_rep_count", None),),
    "V": (("power_rep_weight", None),),
    "VII": (("omega_over_loglog", None), ("bigomega_over_loglog", None)),
    "VIII": (("loglog_f", None), ("loglog_fstar", None)),
}
# statements checked against an envelope and a decay verdict:
# (envelope check label, verdict rule, exponent q)
_FIT = {
    "II": ("max_exponent", classify_rows_less, 1.0),
    "III": ("valuation p={p}", classify_rows_less, 1.0),
    "IV": ("power", classify_rows_leq, 0.5),
    "V": ("power", classify_rows_leq, 0.5),
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


@dataclass
class _TrendTally(Tally):
    """A tally that also keeps the peak of log k / log n_k in each geometric
    k-bucket, for the decade peak step that statements VII and VIII report."""

    peaks: dict[int, float] = field(default_factory=dict)

    def absorb(self, members: np.ndarray, upto: int, ln_members: np.ndarray) -> None:
        """`Tally.absorb`, given also the members' logs, which the block has."""
        m = len(members)
        if m:
            ks = np.arange(self.total + 1, self.total + m + 1, dtype=np.float64)
            ratios = np.log(ks) / ln_members
            buckets = np.floor(np.log2(ks) * _TREND_SUB).astype(np.int64)
            starts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
            for b, r in zip(buckets[starts], np.maximum.reduceat(ratios, starts)):
                if r > self.peaks.get(int(b), -1.0):
                    self.peaks[int(b)] = float(r)
        super().absorb(members, upto)

    def peak_step(self) -> float | None:
        """Final-decade peak of log k / log n_k minus the previous decade's.

        A limsup statement pins the envelope of the curve's peaks, so this is
        the finite trend indicator; None when the range is under two decades.
        """
        if self.total < 100:
            return None
        b_hi = math.log2(self.total) * _TREND_SUB
        cur = [v for b, v in self.peaks.items() if b_hi - _TREND_SUB * math.log2(10) <= b]
        prev = [
            v
            for b, v in self.peaks.items()
            if b_hi - 2 * _TREND_SUB * math.log2(10) <= b < b_hi - _TREND_SUB * math.log2(10)
        ]
        if not cur or not prev:
            return None
        return max(cur) - max(prev)


def _count_bound(x: int, primes: list[int]) -> float:
    b = 1.0
    for p in primes:
        b *= math.log(x) / math.log(p) + 1
    return b


def _verdict_check(name: str, verdict_obj) -> CheckResult:
    rows = tuple(
        {"delta": r.delta, "x": r.x, "count": r.count, "ratio": r.ratio}
        for r in verdict_obj.evidence
    )
    extra = (
        f", witness delta={verdict_obj.delta_used:g}"
        if verdict_obj.delta_used is not None
        else ""
    )
    return CheckResult(
        name=name,
        passed=verdict_obj.verdict is Verdict.CONSISTENT,
        blocking=True,
        details=f"verdict={verdict_obj.verdict.value} at q={verdict_obj.q:g}{extra}; "
        + verdict_obj.notes[0],
        rows=rows,
    )


def _envelope_check(
    label: str, kind: str, eps: float, cps: tuple[int, ...], counts: list[int],
    p: int | None,
) -> CheckResult:
    rows = envelope_rows(kind, eps, p, cps, counts)
    rows = [r for r in rows if r.envelope is not None]
    ok = [r.count <= r.envelope for r in rows]
    worst = max((r.ratio for r in rows), default=0.0)
    return CheckResult(
        name=f"envelope[{label}]",
        passed=all(ok),
        blocking=True,
        details=f"count <= envelope at {len(rows)} checkpoints; max ratio {worst:.3g}",
        rows=tuple(
            {"x": r.x, "count": r.count, "envelope": r.envelope, "ok": good}
            for r, good in zip(rows, ok)
        ),
    )


def _limsup_check(label: str, tally: _TrendTally, eps: float) -> CheckResult:
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
    # The peak step is reported but never blocks: the curve scallops where
    # the membership threshold crosses an integer, so whether one decade's
    # peak tops the last depends on where the scan happens to stop.
    step = tally.peak_step()
    trend = f"; decade peak step {step:+.4f}" if step is not None else ""
    return CheckResult(
        name=f"limsup[{label}]",
        passed=ok or not blocking,
        blocking=blocking,
        details=(
            f"log k/log n_k reaches {final:.3f} at k={rows[-1].k} "
            f"(bar {_REMARK_BAR:g}){trend}"
        ),
        rows=tuple({"k": r.k, "member": r.member, "ratio": r.ratio} for r in rows),
    )


def statement_suite(
    limit: int,
    checkpoints: Checkpoints | None = None,
    eps_grid: tuple[float, ...] = (0.25, 0.5, 1.0),
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
    if cp.values[-1] > limit:
        raise InvalidArgumentError(
            f"checkpoint {cp.values[-1]} exceeds the scan limit {limit}"
        )
    if any(not e > 0 for e in eps_grid):
        raise InvalidArgumentError("eps grid must be positive")
    eps_grid = tuple(eps_grid)
    stmts = tuple(statements) if statements is not None else STATEMENTS
    unknown = set(stmts) - set(STATEMENTS)
    if unknown:
        raise InvalidArgumentError(f"unknown statements: {sorted(unknown)}")
    stmts = tuple(s for s in STATEMENTS if s in stmts)
    cps = cp.values
    xs = list(cps)

    scan = {
        sid: [sequence_spec(key, p) for key, p in _SCAN[sid]]
        for sid in stmts
        if sid in _SCAN
    }
    fields: set[str] = set()
    ap_primes: set[int] = set()
    for specs in scan.values():
        for spec in specs:
            fields |= set(required_fields(spec))
            if spec.p is not None:
                ap_primes.add(spec.p)
    smooth_bounds: dict[float, int | None] = {}
    if "I" in stmts:
        for eps in eps_grid:
            smooth_bounds[eps] = smooth_bound_for(eps)
    bounds = tuple(sorted({b for b in smooth_bounds.values() if b is not None}))

    # one tally per (sequence, eps) and one per smooth bound
    tallies: dict[tuple[str, float], Tally] = {}
    for sid, specs in scan.items():
        kind = _TrendTally if sid in ("VII", "VIII") else Tally
        for spec in specs:
            for eps in eps_grid:
                tallies[(spec.label, eps)] = kind(cps)
    smooth = {b: Tally(cps) for b in bounds}
    violations: dict[float, list[tuple[int, float]]] = {eps: [] for eps in eps_grid}
    eq_ok: dict[float, bool] = {eps: True for eps in eps_grid}
    eq_witness: dict[float, int | None] = {eps: None for eps in eps_grid}

    if scan:
        for stats in iter_blocks(
            limit,
            frozenset(fields),
            ap_primes=tuple(sorted(ap_primes)),
            smooth_bounds=bounds,
        ):
            # members are taken by index: n = lo + index
            for b, tally in smooth.items():
                tally.absorb(np.flatnonzero(stats.smooth_ok[b]) + stats.lo, stats.hi)
            gamma_members: dict[float, np.ndarray] = {}
            for sid, specs in scan.items():
                for spec in specs:
                    dev = deviation(spec, stats)
                    for eps in eps_grid:
                        mask = dev >= eps
                        idx = np.flatnonzero(mask)
                        members = idx + stats.lo
                        tally = tallies[(spec.label, eps)]
                        if isinstance(tally, _TrendTally):
                            tally.absorb(members, stats.hi, stats.ln_n[idx])
                        else:
                            tally.absorb(members, stats.hi)
                        if sid == "I":
                            b = smooth_bounds[eps]
                            bad = (
                                mask & ~stats.smooth_ok[b] if b is not None else mask
                            )
                            vio = violations[eps]  # dev is x_n itself, as L = 0
                            if bad.any() and len(vio) < 5:
                                for idx in np.flatnonzero(bad)[:5]:
                                    vio.append((int(stats.n[idx]), float(dev[idx])))
                        if sid == "IV":
                            gamma_members[eps] = members
                        elif sid == "V" and eps in gamma_members:
                            if not np.array_equal(gamma_members[eps], members):
                                eq_ok[eps] = False
                                if eq_witness[eps] is None:
                                    diff = np.setxor1d(gamma_members[eps], members)
                                    if len(diff):
                                        eq_witness[eps] = int(diff[0])

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
            elif sid in _FIT:
                label, classify, q = _FIT[sid]
                for spec in scan[sid]:
                    counts = tallies[(spec.label, eps)].counts
                    kind = default_envelope(spec)
                    env = _envelope_check(
                        label.format(p=spec.p), kind, eps, cps, counts, spec.p
                    )
                    tag = f"[p={spec.p}]" if spec.p is not None else ""
                    v = classify(spec.label, q, xs, counts, None)
                    checks += [env, _verdict_check(f"ideal-fit{tag}", v)]
                if sid in ("IV", "V") and "IV" in stmts and "V" in stmts:
                    wit = (
                        f"; first differing member {eq_witness[eps]}"
                        if eq_witness[eps] is not None
                        else ""
                    )
                    checks.append(
                        CheckResult(
                            name="set-equality",
                            passed=eq_ok[eps],
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
        rows = []
        all_ok = True
        # +1 counts n = 1, smooth by convention
        for x, c in zip(xs, smooth[b].counts):
            bound = _count_bound(x, primes)
            good = c + 1 <= bound
            all_ok = all_ok and good
            rows.append({"x": x, "smooth_count": c + 1, "bound": bound, "ok": good})
        checks.append(
            CheckResult(
                name="count-bound",
                passed=all_ok,
                blocking=True,
                details=f"smooth counts under prod(log x/log p + 1) for primes <= {b}",
                rows=tuple(rows),
            )
        )
    checks.append(
        _verdict_check(
            "ideal-fit", classify_rows_leq(key, 0.25, xs, tally.counts, None)
        )
    )
    return checks


def _statement_vi_checks(
    eps_grid: tuple[float, ...],
    limit: int,
    cps: tuple[int, ...],
    pascal_check_limit: int,
) -> dict[float, list[CheckResult]]:
    """Statement VI's checks for each eps; the per-n Pascal counts of the
    membership-agreement check are computed once for the whole grid."""
    from .arith import pascal_count

    check_to = min(limit, pascal_check_limit)
    direct_counts = [pascal_count(n) for n in range(2, check_to + 1)]
    return {
        eps: _statement_vi_eps_checks(eps, limit, cps, check_to, direct_counts)
        for eps in eps_grid
    }


def _statement_vi_eps_checks(
    eps: float,
    limit: int,
    cps: tuple[int, ...],
    check_to: int,
    direct_counts: list[int],
) -> list[CheckResult]:
    pascal = sequence_spec("pascal_count")
    members = np.concatenate(
        [np.empty(0, dtype=np.int64), *exceptional_members(pascal, eps, limit)]
    )
    counts = np.searchsorted(members, np.asarray(cps), side="right")
    rows = []
    sup_ratio = 0.0
    for x, c in zip(cps, counts):
        r = float(c) / math.sqrt(x)
        sup_ratio = max(sup_ratio, r)
        rows.append({"x": int(x), "count": int(c), "sqrt_ratio": r})
    checks = [
        CheckResult(
            name="sqrt-ratio",
            passed=True,
            blocking=False,
            details=f"measured sup A(x)/sqrt(x) = {sup_ratio:.4f} over the checkpoints",
            rows=tuple(rows),
        )
    ]
    # membership evidence over a span with at least three decades
    vi_cap = min(limit, 100_000)
    if vi_cap >= 50_000:
        vi_cp = Checkpoints.geometric(vi_cap, start=50, factor=2)
        vi_counts = [
            int(np.searchsorted(members, x, side="right")) for x in vi_cp.values
        ]
        checks.append(
            _verdict_check(
                "ideal-fit",
                classify_rows_leq(
                    f"pascal_count eps={eps:g}",
                    0.5,
                    list(vi_cp.values),
                    vi_counts,
                    None,
                ),
            )
        )
    else:
        checks.append(
            CheckResult(
                name="ideal-fit",
                passed=True,
                blocking=False,
                details="skipped: range below three decades for a decay verdict",
            )
        )
    if check_to >= 2:
        direct = [
            n for n, c in enumerate(direct_counts, start=2) if abs(c - 2) >= eps
        ]
        enum = [int(v) for v in members if v <= check_to]
        same = direct == enum
        wit = ""
        if not same:
            diff = sorted(set(direct) ^ set(enum))
            wit = f"; first disagreement at {diff[0]}"
        checks.append(
            CheckResult(
                name="membership-agreement",
                passed=same,
                blocking=True,
                details=f"enumerated members match the per-n count up to {check_to}"
                + wit,
            )
        )
    return checks
