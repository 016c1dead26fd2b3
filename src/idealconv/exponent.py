"""Convergence-exponent estimation and growth-ideal membership verdicts.

The exponent of a set A = {a_1 < a_2 < ...} is the limit superior of
log n / log a_n, equivalently the infimum of t for which sum a_n**(-t)
converges.  Membership of A in the growth ideals is decided here from
finite counting evidence:

  * "at most q":  for every delta > 0 the series A(x) / x**(q+delta) -> 0;
  * "below q":    for some delta > 0 the series A(x) / x**(q-delta) -> 0.

A finite table of ratios can never witness a limit, so verdicts follow fixed
decay rules: a series counts as vanishing when its final window is
nonincreasing and it has either dropped below `_DROP_FACTOR` times its
starting value or sustained a log-log decay rate of at least
`_RATE_FRACTION * delta`.  Every verdict records these rules (`POLICY`) and
the evidence rows it was based on, and verdicts may be INDETERMINATE.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError
from .sets import CHUNK, Checkpoints, IntegerSet

__all__ = [
    "Trend",
    "Verdict",
    "Ideal",
    "ExponentEstimate",
    "EvidenceRow",
    "IdealVerdict",
    "ChainReport",
    "estimate_lambda",
    "classify_leq",
    "classify_less",
    "classify_rows_leq",
    "classify_rows_less",
    "partial_sum_probe",
    "chain_report",
    "DEFAULT_DELTAS",
]


class Trend(str, enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    OSCILLATING = "oscillating"
    FLAT = "flat"


class Verdict(str, enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    INDETERMINATE = "indeterminate"


class Ideal(str, enum.Enum):
    AT_MOST = "leq"
    BELOW = "less"


DEFAULT_DELTAS = (0.2, 0.1, 0.05, 0.02)


# ---------------------------------------------------------------------------
# exponent estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentEstimate:
    value: float
    terms: int
    tail_fraction: float
    window_ratios: tuple[tuple[int, float], ...]
    trend: Trend


def _logs(values) -> np.ndarray:
    # math.log, not np.log, whose last bit differs from libm on some values
    return np.fromiter(map(math.log, values), dtype=np.float64, count=len(values))


def _slopes(prefix: list[int], start: int, stop: int) -> np.ndarray:
    """The clipped secant slopes of `estimate_lambda` at n in [start, stop),
    2 <= start < stop <= len(prefix) + 1; logs are taken at these indices
    and their isqrt anchors only."""
    lo0, hi0 = math.isqrt(start), math.isqrt(stop - 1) + 1
    # isqrt(n) - lo0; a float64 square root floors exactly below 2**52
    at0 = np.sqrt(np.arange(start, stop)).astype(np.int64) - lo0
    log_n0 = _logs(range(lo0, hi0))[at0]
    log_a0 = _logs(prefix[lo0 - 1 : hi0 - 1])[at0]
    den = _logs(prefix[start - 1 : stop - 1]) - log_a0
    slope = np.divide(
        _logs(range(start, stop)) - log_n0, den, out=np.ones_like(den), where=den > 0
    )
    return np.clip(slope, 0.0, 1.0)


def estimate_lambda(
    a: IntegerSet, terms: int = 10_000, tail_fraction: float = 0.2
) -> ExponentEstimate:
    """Estimate the convergence exponent from the first `terms` elements.

    Each index n contributes the log-log secant slope

        (log n - log n0) / (log a_n - log a_n0),   n0 = isqrt(n),

    anchored at the geometric midpoint of the index range.  Unlike the raw
    ratio log n / log a_n, the secant is invariant under multiplicative
    rescaling of the stream (a constant factor cancels in the denominator),
    which the estimator algebra relies on.  The estimate is the maximum
    slope over the tail window (the last `tail_fraction` of indices),
    clipped to [0, 1]; it tracks the limit superior while discarding
    small-n noise.  `window_ratios` samples the slope at n = 2, 4, 8, ...
    for trend inspection.
    """
    if terms < 100:
        raise InvalidArgumentError(f"need at least 100 terms, got {terms}")
    if not 0 < tail_fraction <= 1:
        raise InvalidArgumentError(
            f"tail_fraction must be in (0, 1], got {tail_fraction}"
        )
    prefix = a.prefix(terms)
    lo = max(2, math.ceil((1 - tail_fraction) * terms))
    value = float(
        max(
            _slopes(prefix, n, min(n + CHUNK, terms + 1)).max()
            for n in range(lo, terms + 1, CHUNK)
        )
    )
    marks = [1 << k for k in range(1, (terms - 1).bit_length())] + [terms]
    samples = [(n, float(_slopes(prefix, n, n + 1)[0])) for n in marks]

    tail = [r for _, r in samples[-8:]]
    diffs = [b - a_ for a_, b in zip(tail, tail[1:])]
    tol = 1e-6
    if all(abs(d) <= tol for d in diffs):
        trend = Trend.FLAT
    elif all(d >= -tol for d in diffs):
        trend = Trend.INCREASING
    elif all(d <= tol for d in diffs):
        trend = Trend.DECREASING
    else:
        trend = Trend.OSCILLATING

    return ExponentEstimate(
        value=value,
        terms=terms,
        tail_fraction=tail_fraction,
        window_ratios=tuple(samples),
        trend=trend,
    )


# ---------------------------------------------------------------------------
# decay rules over finite ratio series
# ---------------------------------------------------------------------------


# A series r_1, ..., r_m over checkpoints x_1 < ... < x_m (at margin delta)
# *decays* when its final window (the last third of the points, at least 3)
# is nonincreasing up to _REL_TOL, and either the last value is below
# _DROP_FACTOR * r_1 or the log-log slope across the window is at most
# -_RATE_FRACTION * delta.  It *grows* when the final window is nondecreasing
# with a strictly positive net change.
_DROP_FACTOR = 0.1
_RATE_FRACTION = 0.5
_REL_TOL = 1e-9

POLICY = (
    f"decay = nonincreasing final window and (drop below "
    f"{_DROP_FACTOR:g} x start or log-log rate >= {_RATE_FRACTION:g} x delta)"
)


def _window(m: int) -> int:
    return min(m, max(3, math.ceil(m / 3)))


def _series_decays(xs: list[int], ratios: list[float], delta: float) -> bool:
    m = len(ratios)
    w = _window(m)
    win = ratios[m - w :]
    wxs = xs[m - w :]
    if any(b > a_ * (1 + _REL_TOL) + 1e-300 for a_, b in zip(win, win[1:])):
        return False
    if win[-1] == 0.0:
        return True
    if ratios[0] > 0 and win[-1] <= _DROP_FACTOR * ratios[0]:
        return True
    if win[0] <= 0:
        return False
    rate = (math.log(win[0]) - math.log(win[-1])) / (
        math.log(wxs[-1]) - math.log(wxs[0])
    )
    return rate >= _RATE_FRACTION * delta


def _series_grows(xs: list[int], ratios: list[float]) -> bool:
    w = _window(len(ratios))
    win = ratios[len(ratios) - w :]
    if any(b < a_ * (1 - _REL_TOL) for a_, b in zip(win, win[1:])):
        return False
    return win[-1] > win[0] * (1 + _REL_TOL)


# ---------------------------------------------------------------------------
# verdict objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvidenceRow:
    delta: float
    x: int
    count: int
    ratio: float


@dataclass(frozen=True)
class IdealVerdict:
    set_label: str
    ideal: Ideal
    q: float
    verdict: Verdict
    delta_used: float | None
    evidence: tuple[EvidenceRow, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_records(self) -> list[dict]:
        return [
            {
                "set": self.set_label,
                "ideal": self.ideal.value,
                "q": self.q,
                "delta": row.delta,
                "x": row.x,
                "count": row.count,
                "ratio": row.ratio,
                "verdict": self.verdict.value,
            }
            for row in self.evidence
        ]


@dataclass(frozen=True)
class ChainReport:
    set_label: str
    q_grid: tuple[float, ...]
    verdicts: tuple[IdealVerdict, ...]
    monotone: bool


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _valid_checkpoints(checkpoints: Checkpoints | None, default_cap: int) -> Checkpoints:
    cp = checkpoints or Checkpoints.geometric(default_cap)
    if len(cp.values) < 3:
        raise InvalidArgumentError("need at least 3 checkpoints")
    if cp.decades() < 3:
        raise InvalidArgumentError(
            f"checkpoints span {cp.decades():.2f} decades; need at least 3 "
            "for a meaningful decay verdict"
        )
    return cp


def _counts_at(a: IntegerSet, cp: Checkpoints) -> list[int]:
    return [a.count(x) for x in cp.values]


def _leq_deltas(q: float, deltas: tuple[float, ...] | None) -> tuple[float, ...]:
    if deltas is None:
        deltas = tuple(d for d in DEFAULT_DELTAS if q + d <= 1)
        if not deltas:
            deltas = (1 - q,) if q < 1 else (0.02,)
    if not deltas:
        raise InvalidArgumentError("delta grid must not be empty")
    for d in deltas:
        if not d > 0:
            raise InvalidArgumentError(f"delta must be positive, got {d}")
        if q + d > 1:
            raise InvalidArgumentError(
                f"q + delta must stay at most 1; got q={q}, delta={d}"
            )
    return tuple(deltas)


def _less_deltas(q: float, deltas: tuple[float, ...] | None) -> tuple[float, ...]:
    if deltas is None:
        deltas = tuple(d for d in DEFAULT_DELTAS if d < q)
        if not deltas:
            deltas = (q / 2,)
    if not deltas:
        raise InvalidArgumentError("delta grid must not be empty")
    for d in deltas:
        if not 0 < d < q:
            raise InvalidArgumentError(
                f"delta for a below-q verdict must lie in (0, q); got {d} at q={q}"
            )
    return tuple(deltas)


def classify_rows_leq(
    set_label: str,
    q: float,
    xs: list[int],
    counts: list[int],
    deltas: tuple[float, ...] | None,
) -> IdealVerdict:
    """Verdict for "exponent at most q" from precomputed counts; deltas=None
    means the default grid."""
    evidence: list[EvidenceRow] = []
    all_decay = True
    any_grow = False
    for d in _leq_deltas(q, deltas):
        ratios = [c / x ** (q + d) for x, c in zip(xs, counts)]
        evidence.extend(
            EvidenceRow(d, x, c, r) for x, c, r in zip(xs, counts, ratios)
        )
        if not _series_decays(xs, ratios, d):
            all_decay = False
            if _series_grows(xs, ratios):
                any_grow = True
    if all_decay:
        verdict = Verdict.CONSISTENT
    elif any_grow:
        verdict = Verdict.INCONSISTENT
    else:
        verdict = Verdict.INDETERMINATE
    return IdealVerdict(
        set_label=set_label,
        ideal=Ideal.AT_MOST,
        q=q,
        verdict=verdict,
        delta_used=None,
        evidence=tuple(evidence),
        notes=(POLICY,),
    )


def classify_rows_less(
    set_label: str,
    q: float,
    xs: list[int],
    counts: list[int],
    deltas: tuple[float, ...] | None,
) -> IdealVerdict:
    """Verdict for "exponent below q" from precomputed counts; deltas=None
    means the default grid."""
    evidence: list[EvidenceRow] = []
    witness: float | None = None
    grow_delta: float | None = None
    for d in _less_deltas(q, deltas):
        ratios = [c / x ** (q - d) for x, c in zip(xs, counts)]
        evidence.extend(
            EvidenceRow(d, x, c, r) for x, c, r in zip(xs, counts, ratios)
        )
        if witness is None and _series_decays(xs, ratios, d):
            witness = d
        if _series_grows(xs, ratios):
            if grow_delta is None or d < grow_delta:
                grow_delta = d
    if witness is not None:
        verdict = Verdict.CONSISTENT
    elif grow_delta is not None:
        verdict = Verdict.INCONSISTENT
    else:
        verdict = Verdict.INDETERMINATE
    return IdealVerdict(
        set_label=set_label,
        ideal=Ideal.BELOW,
        q=q,
        verdict=verdict,
        delta_used=witness,
        evidence=tuple(evidence),
        notes=(POLICY,),
    )


def classify_leq(
    a: IntegerSet,
    q: float,
    deltas: tuple[float, ...] | None = None,
    checkpoints: Checkpoints | None = None,
) -> IdealVerdict:
    """Is the evidence consistent with exponent(A) <= q?

    Tests A(x) / x**(q + delta) for every delta in the grid; consistent only
    when every series decays under the decay rules.
    """
    if not 0 <= q < 1:
        raise InvalidArgumentError(f"q must be in [0, 1) for an at-most verdict, got {q}")
    deltas = _leq_deltas(q, deltas)
    cp = _valid_checkpoints(checkpoints, 10**7)
    counts = _counts_at(a, cp)
    return classify_rows_leq(a.label, q, list(cp.values), counts, deltas)


def classify_less(
    a: IntegerSet,
    q: float,
    deltas: tuple[float, ...] | None = None,
    checkpoints: Checkpoints | None = None,
) -> IdealVerdict:
    """Is the evidence consistent with exponent(A) < q?

    Searches the delta grid in order for a witness margin whose series
    A(x) / x**(q - delta) decays; the first witness is recorded.
    """
    if not 0 < q <= 1:
        raise InvalidArgumentError(f"q must be in (0, 1] for a below verdict, got {q}")
    deltas = _less_deltas(q, deltas)
    cp = _valid_checkpoints(checkpoints, 10**7)
    counts = _counts_at(a, cp)
    return classify_rows_less(a.label, q, list(cp.values), counts, deltas)


def partial_sum_probe(
    a: IntegerSet, q: float, checkpoints: Checkpoints | None = None
) -> list[tuple[int, float]]:
    """Running partial sums of a**(-q) reported at each checkpoint.

    A visibly stalling sum suggests convergence (exponent below q); steady
    growth suggests divergence.  This is a probe, not a verdict.
    """
    if not 0 < q <= 1:
        raise InvalidArgumentError(f"series exponent must be in (0, 1], got {q}")
    cp = checkpoints or Checkpoints.geometric(10**7)
    out: list[tuple[int, float]] = []
    total = 0.0
    it = iter(a)
    pending = next(it, None)
    for x in cp.values:
        while pending is not None and pending <= x:
            total += pending ** (-q)
            pending = next(it, None)
        out.append((x, total))
    return out


def chain_report(
    a: IntegerSet,
    q_grid: tuple[float, ...],
    checkpoints: Checkpoints | None = None,
) -> ChainReport:
    """at-most verdicts along an increasing q grid, with a monotonicity check.

    Consistency at q must persist at every larger q; `monotone` is False
    when a consistent verdict is followed by an inconsistent one (which
    would indicate contradictory evidence, not a property of the set).
    """
    if any(b <= a_ for a_, b in zip(q_grid, q_grid[1:])):
        raise InvalidArgumentError("q grid must be strictly increasing")
    if any(not 0 <= q < 1 for q in q_grid):
        raise InvalidArgumentError("q grid values must lie in [0, 1)")
    cp = _valid_checkpoints(checkpoints, 10**7)
    counts = _counts_at(a, cp)
    verdicts = [
        classify_rows_leq(a.label, q, list(cp.values), counts, None)
        for q in q_grid
    ]
    seen_consistent = False
    monotone = True
    for v in verdicts:
        if v.verdict is Verdict.CONSISTENT:
            seen_consistent = True
        elif v.verdict is Verdict.INCONSISTENT and seen_consistent:
            monotone = False
    return ChainReport(
        set_label=a.label,
        q_grid=tuple(q_grid),
        verdicts=tuple(verdicts),
        monotone=monotone,
    )
