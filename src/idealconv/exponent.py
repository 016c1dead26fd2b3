"""Convergence-exponent estimation and growth-ideal membership verdicts.

The exponent of a set A = {a_1 < a_2 < ...} is the limit superior of
log n / log a_n, equivalently the infimum of t for which sum a_n**(-t)
converges.  Membership of A in the growth ideals is decided here from
finite counting evidence:

  * "at most q":  for every delta > 0 the series A(x) / x**(q+delta) -> 0;
  * "below q":    for some delta > 0 the series A(x) / x**(q-delta) -> 0.

One classifier, `classify_rows`, serves both ideals: the `Ideal` sets the
sign of delta, the quantifier over the delta grid and the range of q.
`classify_leq` and `classify_less` feed it a set's counts.
A finite table of ratios can never witness a limit, so verdicts follow fixed
decay rules: a series counts as vanishing when its final window is
nonincreasing and it has either dropped below `_DROP_FACTOR` times its
starting value or sustained a log-log decay rate of at least
`_RATE_FRACTION * delta`.  `POLICY` states these rules, every verdict
records the evidence rows it was based on, and verdicts may be INDETERMINATE.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidArgumentError
from .sets import CHUNK, Checkpoints, IntegerSet

__all__ = [
    "Trend",
    "Verdict",
    "Ideal",
    "ExponentEstimate",
    "EvidenceRow",
    "IdealVerdict",
    "estimate_lambda",
    "classify_leq",
    "classify_less",
    "partial_sum_probe",
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


# One window's index logs are kept, 8 bytes per tail index: about
# 8 * tail_fraction * terms bytes until an estimate over another window.
@functools.lru_cache(maxsize=1)
def _index_logs(start: int, stop: int) -> np.ndarray:
    """log n for n in [start, stop), read-only: the logs of an estimate's
    tail window, shared by the estimates that follow over that window."""
    logs = _logs(range(start, stop))
    logs.flags.writeable = False
    return logs


def _slopes(a: IntegerSet, start: int, log_n: np.ndarray) -> np.ndarray:
    """The clipped secant slopes of `estimate_lambda` at n in [start, stop),
    stop = start + len(log_n), from log_n = log n there;
    2 <= start < stop <= terms + 1 once A's first `terms` elements are
    buffered.  Logs are taken of A's elements at these indices and at the
    isqrt anchors only, each range read from A's buffer as one slice."""
    stop = start + len(log_n)
    lo0, hi0 = math.isqrt(start), math.isqrt(stop - 1) + 1
    # isqrt(n) - lo0; a float64 square root floors exactly below 2**52
    at0 = np.sqrt(np.arange(start, stop)).astype(np.int64) - lo0
    log_n0 = _logs(range(lo0, hi0))[at0]
    log_a0 = _logs(a.slice(lo0 - 1, hi0 - 1))[at0]
    den = _logs(a.slice(start - 1, stop - 1)) - log_a0
    slope = np.divide(log_n - log_n0, den, out=np.ones_like(den), where=den > 0)
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
    a.term(terms)  # buffers the first `terms` elements, or raises
    lo = max(2, math.ceil((1 - tail_fraction) * terms))
    log_n = _index_logs(lo, terms + 1)
    value = float(
        max(
            _slopes(a, n, log_n[n - lo : n - lo + CHUNK]).max()
            for n in range(lo, terms + 1, CHUNK)
        )
    )
    marks = [1 << k for k in range(1, (terms - 1).bit_length())] + [terms]
    samples = [(n, float(_slopes(a, n, _logs((n,)))[0])) for n in marks]

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

    @property
    def witness_note(self) -> str:
        """", witness delta=..." when a below-q verdict has a witness, else ""."""
        return "" if self.delta_used is None else f", witness delta={self.delta_used:g}"

    def to_records(self) -> list[dict]:
        return [
            {
                "set": self.set_label,
                "ideal": self.ideal.value,
                "q": self.q,
                **asdict(row),
                "verdict": self.verdict.value,
            }
            for row in self.evidence
        ]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _deltas(ideal: Ideal, q: float, deltas: tuple[float, ...] | None) -> tuple[float, ...]:
    """The checked delta grid of a verdict on `ideal` at q, once q is checked
    to lie in [0, 1) (at most) or (0, 1] (below); None means the default
    grid, cut to keep q + delta <= 1 (at most) or q - delta > 0 (below)."""
    at_most = ideal is Ideal.AT_MOST
    if at_most and not 0 <= q < 1:
        raise InvalidArgumentError(f"q must be in [0, 1) for an at-most verdict, got {q}")
    if not at_most and not 0 < q <= 1:
        raise InvalidArgumentError(f"q must be in (0, 1] for a below verdict, got {q}")
    if deltas is None:
        if at_most:
            deltas = tuple(d for d in DEFAULT_DELTAS if q + d <= 1) or (1 - q,)
        else:
            deltas = tuple(d for d in DEFAULT_DELTAS if d < q) or (q / 2,)
    if not deltas:
        raise InvalidArgumentError("delta grid must not be empty")
    for d in deltas:
        if at_most:
            if not d > 0:
                raise InvalidArgumentError(f"delta must be positive, got {d}")
            if q + d > 1:
                raise InvalidArgumentError(
                    f"q + delta must stay at most 1; got q={q}, delta={d}"
                )
        elif not 0 < d < q:
            raise InvalidArgumentError(
                f"delta for a below-q verdict must lie in (0, q); got {d} at q={q}"
            )
    return tuple(deltas)


def classify_rows(
    ideal: Ideal,
    set_label: str,
    q: float,
    xs: list[int],
    counts: list[int],
    deltas: tuple[float, ...] | None = None,
) -> IdealVerdict:
    """Verdict on `ideal` at q from the counts A(x) at the checkpoints xs;
    deltas=None means the default grid, and q must lie in the ideal's range.

    Each delta gives the series A(x) / x**(q + delta) for "at most q" and
    A(x) / x**(q - delta) for "below q".  "At most q" is consistent when
    every series decays, "below q" when some series decays, and the first
    that does is the witness.  Otherwise the verdict is inconsistent when a
    series that does not decay grows, and indeterminate when none grows.
    """
    at_most = ideal is Ideal.AT_MOST
    sign = 1 if at_most else -1
    evidence: list[EvidenceRow] = []
    decayed: list[float] = []  # the deltas whose series decays
    grows = False
    grid = _deltas(ideal, q, deltas)
    for d in grid:
        ratios = [c / x ** (q + sign * d) for x, c in zip(xs, counts)]
        evidence.extend(
            EvidenceRow(d, x, c, r) for x, c, r in zip(xs, counts, ratios)
        )
        if _series_decays(xs, ratios, d):
            decayed.append(d)
        elif _series_grows(xs, ratios):
            grows = True
    # "at most q" needs every series to decay, "below q" only one
    if len(decayed) == len(grid) or (decayed and not at_most):
        verdict = Verdict.CONSISTENT
    elif grows:
        verdict = Verdict.INCONSISTENT
    else:
        verdict = Verdict.INDETERMINATE
    return IdealVerdict(
        set_label=set_label,
        ideal=ideal,
        q=q,
        verdict=verdict,
        delta_used=None if at_most or not decayed else decayed[0],
        evidence=tuple(evidence),
    )


def _classify(
    ideal: Ideal,
    a: IntegerSet,
    q: float,
    deltas: tuple[float, ...] | None,
    checkpoints: Checkpoints | None,
) -> IdealVerdict:
    """`classify_rows` on A's counts at the checked checkpoints (default: to 10**7)."""
    deltas = _deltas(ideal, q, deltas)
    cp = checkpoints or Checkpoints.geometric(10**7)
    if len(cp.values) < 3:
        raise InvalidArgumentError("need at least 3 checkpoints")
    if cp.decades() < 3:
        raise InvalidArgumentError(
            f"checkpoints span {cp.decades():.2f} decades; need at least 3 "
            "for a meaningful decay verdict"
        )
    xs = list(cp.values)
    return classify_rows(ideal, a.label, q, xs, [a.count(x) for x in xs], deltas)


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
    return _classify(Ideal.AT_MOST, a, q, deltas, checkpoints)


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
    return _classify(Ideal.BELOW, a, q, deltas, checkpoints)


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
