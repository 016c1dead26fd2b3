"""Exceptional sets of arithmetic sequences and their counting reports.

Each supported sequence x_n (built from the exponent statistics of n) has a
normal value L it tends to along typical integers; the exceptional set at
tolerance eps collects the n with |x_n - L| >= eps.  This module constructs
those sets, counts them against analytic envelopes, and measures the
limsup of log k / log n_k along their elements.

Bulk scans go through `bulk.iter_blocks`, so membership over ranges like
[2, 10**7] costs one sieve pass; `deviation` is the one membership test.
A `Tally` is the running state of one exceptional set across a scan: the
count A(x) at each checkpoint and the ratio rows at k = 1, 2, 4, ...  Count
reports, limsup reports and the statement suite all read their numbers off
tallies, and `envelope_rows` is the one envelope comparison.  There is no
per-n path: `idealconv fn` reads single values off the same blocks, and the
tests check them against a per-n recomputation by trial division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import arith
from .bulk import BLOCK, PRIME_BOUND_CAP, BlockStats, iter_blocks, small_primes
from .errors import InvalidArgumentError
from .sets import Checkpoints, IntegerSet

__all__ = [
    "SequenceSpec",
    "sequence_spec",
    "SEQUENCE_KEYS",
    "sequence_values",
    "exceptional_set",
    "exceptional_members",
    "deviation",
    "PASCAL_LIMIT_CAP",
    "smooth_bound_for",
    "envelope_value",
    "default_envelope",
    "envelope_rows",
    "ENVELOPE_KINDS",
    "CountRow",
    "ExceptionalReport",
    "count_report",
    "RatioRow",
    "Tally",
    "LimsupReport",
    "remark_limsup",
]


_LOG2 = math.log(2)
_NORMAL_LOGLOG = 1 + _LOG2  # normal value of loglog f(n) / loglog n


@dataclass(frozen=True)
class SequenceSpec:
    """One supported sequence: key, its normal value, first valid index."""

    key: str
    limit_value: float
    start_n: int
    p: int | None = None

    @property
    def label(self) -> str:
        return f"{self.key}(p={self.p})" if self.p is not None else self.key


# key -> (normal value, first valid n, bulk fields, needs prime p)
SEQUENCE_KEYS: dict[str, tuple[float, int, frozenset[str], bool]] = {
    "min_exponent_over_log": (0.0, 2, frozenset({"h_min"}), False),
    "max_exponent_over_log": (0.0, 2, frozenset({"h_max"}), False),
    "valuation_scaled": (0.0, 2, frozenset(), True),
    "power_rep_count": (1.0, 2, frozenset({"exp_gcd"}), False),
    "power_rep_weight": (1.0, 2, frozenset({"exp_gcd"}), False),
    "pascal_count": (2.0, 2, frozenset(), False),
    "omega_over_loglog": (1.0, 3, frozenset({"omega"}), False),
    "bigomega_over_loglog": (1.0, 3, frozenset({"big_omega"}), False),
    "loglog_f": (_NORMAL_LOGLOG, 3, frozenset({"div_count"}), False),
    "loglog_fstar": (_NORMAL_LOGLOG, 3, frozenset({"div_count"}), False),
}


def sequence_spec(key: str, p: int | None = None) -> SequenceSpec:
    if key not in SEQUENCE_KEYS:
        raise InvalidArgumentError(
            f"unknown sequence {key!r}; choose from {sorted(SEQUENCE_KEYS)}"
        )
    limit_value, start_n, _, needs_p = SEQUENCE_KEYS[key]
    if needs_p:
        if p is None:
            raise InvalidArgumentError(f"sequence {key!r} requires a prime p")
        if not arith.is_prime(p):
            raise InvalidArgumentError(f"p must be prime, got {p}")
    elif p is not None:
        raise InvalidArgumentError(f"sequence {key!r} takes no prime parameter")
    return SequenceSpec(key=key, limit_value=limit_value, start_n=start_n, p=p)


def required_fields(spec: SequenceSpec) -> frozenset[str]:
    return SEQUENCE_KEYS[spec.key][2]


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

# divisor-count / divisor-sum tables for the small exponent gcds
_TBL = 64
_D_SMALL = np.zeros(_TBL, dtype=np.int64)
_SIGMA_SMALL = np.zeros(_TBL, dtype=np.int64)
for _i in range(1, _TBL):
    _D_SMALL[_i::_i] += 1
    _SIGMA_SMALL[_i::_i] += _i


def sequence_values(spec: SequenceSpec, stats: BlockStats) -> np.ndarray:
    """x_n for every n in a stats block (indices below start_n give garbage;
    `deviation` blanks them)."""
    key = spec.key
    if key == "power_rep_count":
        return _D_SMALL[stats.exp_gcd].astype(np.float64)
    if key == "power_rep_weight":
        return _SIGMA_SMALL[stats.exp_gcd].astype(np.float64)
    ln_n = stats.ln_n
    if key == "min_exponent_over_log":
        return stats.h_min / ln_n
    if key == "max_exponent_over_log":
        return stats.h_max / ln_n
    if key == "valuation_scaled":
        return stats.ap[spec.p] * math.log(spec.p) / ln_n
    lnln_n = stats.lnln_n
    with np.errstate(divide="ignore"):
        if key == "omega_over_loglog":
            return stats.omega / lnln_n
        if key == "bigomega_over_loglog":
            return stats.big_omega / lnln_n
        if key in ("loglog_f", "loglog_fstar"):
            # log f(n) / log n, then log f(n) and its log, in one array
            v = 0.5 * stats.div_count
            if key == "loglog_fstar":
                v -= 1.0
            v *= ln_n
            np.log(v, out=v)
            v /= lnln_n
            return v
    raise InvalidArgumentError(f"no bulk values for {key!r}; use exceptional_members")


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


# largest limit whose k = 2 column, C(r, 2) for 4 <= r, has at most 2**22
# entries; the enumeration's dict grows with that column
PASCAL_LIMIT_CAP = math.comb((1 << 22) + 4, 2) - 1


def _pascal_members(eps: float, limit: int) -> np.ndarray:
    """Exceptional n <= limit for the Pascal occurrence count.

    |N(n) - 2| >= eps holds exactly for n = 2 (when eps <= 1) and for n
    with at least ceil(eps) occurrences interior to the triangle, i.e.
    n = C(r, k) with k >= 2 and r >= 2k; so those values are enumerated
    directly instead of scanning every n.
    """
    if limit > PASCAL_LIMIT_CAP:
        raise InvalidArgumentError(
            f"Pascal count scans support limit <= {PASCAL_LIMIT_CAP}, got {limit}"
        )
    need = max(1, math.ceil(eps))
    hits: dict[int, int] = {}
    k = 2
    while math.comb(2 * k, k) <= limit:
        r = 2 * k
        while True:
            v = math.comb(r, k)
            if v > limit:
                break
            hits[v] = hits.get(v, 0) + (1 if r == 2 * k else 2)
            r += 1
        k += 1
    members = sorted(v for v, c in hits.items() if c >= need)
    if eps <= 1 and limit >= 2:
        members = [2] + members
    return np.array(members, dtype=np.int64)


def deviation(spec: SequenceSpec, stats: BlockStats) -> np.ndarray:
    """|x_n - L| for every n in a block, and 0 for n < start_n, so that
    `deviation(spec, stats) >= eps` is the block's membership mask.  It is
    computed in place in the fresh array `sequence_values` returns."""
    dev = sequence_values(spec, stats)
    dev -= spec.limit_value
    np.abs(dev, out=dev)
    dev[: max(0, spec.start_n - stats.lo)] = 0.0
    return dev


def exceptional_members(
    spec: SequenceSpec, eps: float, limit: int, block_size: int = BLOCK
) -> Iterator[np.ndarray]:
    """Members of the exceptional set in [start_n, limit], one sorted array
    per sieve block, taken as the indices of the block's mask plus its
    start."""
    if not eps > 0:
        raise InvalidArgumentError(f"tolerance eps must be positive, got {eps}")
    if limit < spec.start_n:
        return
    if spec.key == "pascal_count":
        members = _pascal_members(eps, limit)
        if len(members):
            yield members
        return
    fields = required_fields(spec)
    ap_primes = (spec.p,) if spec.p is not None else ()
    for stats in iter_blocks(
        limit,
        fields,
        ap_primes=ap_primes,
        block_size=block_size,
        start=spec.start_n,
    ):
        hit = np.flatnonzero(deviation(spec, stats) >= eps)
        if len(hit):
            hit += stats.lo
            yield hit


def exceptional_set(spec: SequenceSpec, eps: float, limit: int) -> IntegerSet:
    """The exceptional set at tolerance eps, truncated to [2, limit]; each
    sieve block's members are one chunk."""
    return IntegerSet(
        (block.tolist() for block in exceptional_members(spec, eps, limit)),
        label=f"exceptional({spec.label},eps={eps:g})",
    )


def smooth_bound_for(eps: float) -> int | None:
    """Largest prime p with 1/log p >= eps, or None when no prime qualifies.

    Every member of the min-exponent exceptional set is p-smooth for this
    bound: a prime factor q > p would force x_n <= 1/log q < eps.
    """
    if not eps > 0:
        raise InvalidArgumentError(f"tolerance eps must be positive, got {eps}")
    if eps * math.log(PRIME_BOUND_CAP + 1) <= 1:
        raise InvalidArgumentError(
            f"eps={eps:g} puts the smooth bound e**(1/eps) above the prime "
            f"sieve cap 2**26 = {PRIME_BOUND_CAP}"
        )
    cap = math.floor(math.exp(1 / eps))
    if cap < 2:
        return None
    return int(small_primes(cap)[-1])


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

ENVELOPE_KINDS: dict[str, tuple[str, ...]] = {
    # kind -> sequence keys it bounds
    "max_exponent": ("max_exponent_over_log",),
    "prime_valuation": ("valuation_scaled",),
    "perfect_power": ("power_rep_count", "power_rep_weight"),
}


def envelope_value(kind: str, x: float, eps: float, p: int | None = None) -> float:
    """Proven upper bound for the exceptional count at x.

    max_exponent:    2 * sqrt(2) * x ** (1 - eps * log(2) / 2)
    prime_valuation: (log x / log p) * x ** (1 - eps)
    perfect_power:   (log x / log 2) * sqrt(x), valid for x >= 4
    """
    if kind == "max_exponent":
        return 2 * math.sqrt(2) * x ** (1 - eps * _LOG2 / 2)
    if kind == "prime_valuation":
        if p is None:
            raise InvalidArgumentError("prime_valuation envelope needs p")
        return (math.log(x) / math.log(p)) * x ** (1 - eps)
    if kind == "perfect_power":
        if x < 4:
            raise InvalidArgumentError(
                f"perfect_power envelope is stated for x >= 4, got {x}"
            )
        return (math.log(x) / _LOG2) * math.sqrt(x)
    raise InvalidArgumentError(
        f"unknown envelope {kind!r}; choose from {sorted(ENVELOPE_KINDS)}"
    )


def default_envelope(spec: SequenceSpec) -> str | None:
    for kind, keys in ENVELOPE_KINDS.items():
        if spec.key in keys:
            return kind
    return None


def _check_envelope_kind(spec: SequenceSpec, kind: str) -> None:
    if kind not in ENVELOPE_KINDS:
        raise InvalidArgumentError(
            f"unknown envelope {kind!r}; choose from {sorted(ENVELOPE_KINDS)}"
        )
    if spec.key not in ENVELOPE_KINDS[kind]:
        raise InvalidArgumentError(
            f"envelope {kind!r} does not bound sequence {spec.key!r}"
        )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountRow:
    x: int
    count: int
    envelope: float | None
    ratio: float | None  # count / envelope


def envelope_rows(
    kind: str | None, eps: float, p: int | None, xs, counts
) -> list[CountRow]:
    """A(x) at each x against the named envelope.

    The envelope and ratio columns are blank when `kind` is None, and for
    the perfect_power bound below x = 4, where it is not stated.
    """
    rows = []
    for x, c in zip(xs, counts):
        env = None
        if kind is not None and (kind != "perfect_power" or x >= 4):
            env = envelope_value(kind, x, eps, p)
        rows.append(CountRow(x, c, env, (c / env) if env else None))
    return rows


@dataclass(frozen=True)
class ExceptionalReport:
    spec: SequenceSpec
    eps: float
    envelope_kind: str | None
    rows: tuple[CountRow, ...]

    @property
    def envelope_ok(self) -> bool:
        """True when every counted value sits under its envelope."""
        return all(r.envelope is None or r.count <= r.envelope for r in self.rows)

    def to_records(self) -> list[dict]:
        return [
            {
                "sequence": self.spec.label,
                "eps": self.eps,
                "x": r.x,
                "count": r.count,
                "envelope": r.envelope,
                "ratio": r.ratio,
            }
            for r in self.rows
        ]


@dataclass(frozen=True)
class RatioRow:
    k: int
    member: int
    ratio: float  # log k / log n_k


@dataclass
class Tally:
    """Running state of one exceptional set across a scan.

    Members arrive block by block in increasing order.  `counts[i]` is
    A(checkpoints[i]) once the scan has passed that checkpoint, and `rows`
    holds log k / log n_k at k = 1, 2, 4, ...
    """

    checkpoints: tuple[int, ...] = ()
    counts: list[int] = field(default_factory=list)
    rows: list[RatioRow] = field(default_factory=list)
    total: int = 0
    last_member: int = 0

    def absorb(self, members: np.ndarray, upto: int) -> None:
        """Take the next sorted members, all below `upto`, and count every
        pending checkpoint below `upto`."""
        cps = self.checkpoints
        while len(self.counts) < len(cps) and cps[len(self.counts)] < upto:
            x = cps[len(self.counts)]
            self.counts.append(
                self.total + int(np.searchsorted(members, x, side="right"))
            )
        k = 1 << len(self.rows)
        while k <= self.total + len(members):
            nk = int(members[k - self.total - 1])
            self.rows.append(RatioRow(k, nk, math.log(k) / math.log(nk)))
            k *= 2
        if len(members):
            self.last_member = int(members[-1])
        self.total += len(members)

    def final_rows(self) -> list[RatioRow]:
        """`rows`, plus the row at the final member when it is not there."""
        rows = list(self.rows)
        if self.total >= 1 and (not rows or rows[-1].k != self.total):
            ratio = math.log(self.total) / math.log(self.last_member)
            rows.append(RatioRow(self.total, self.last_member, ratio))
        return rows


def _tally(
    spec: SequenceSpec,
    eps: float,
    limit: int,
    checkpoints: tuple[int, ...] = (),
) -> Tally:
    """The tally of the exceptional set over [start_n, limit]."""
    tally = Tally(checkpoints)
    for block in exceptional_members(spec, eps, limit):
        tally.absorb(block, int(block[-1]) + 1)
    # checkpoints past the last member
    tally.absorb(np.empty(0, dtype=np.int64), limit + 1)
    return tally


def count_report(
    spec: SequenceSpec,
    eps: float,
    checkpoints: Checkpoints,
    envelope: str | None = "auto",
) -> ExceptionalReport:
    """Exceptional counts at each checkpoint, with envelope columns.

    `envelope="auto"` picks the proven bound for the sequence when one
    exists; pass None to skip, or a kind name to force (mismatches raise).
    """
    kind = default_envelope(spec) if envelope == "auto" else envelope
    if kind is not None:
        _check_envelope_kind(spec, kind)
    xs = checkpoints.values
    tally = _tally(spec, eps, xs[-1], xs)
    rows = envelope_rows(kind, eps, spec.p, xs, tally.counts)
    return ExceptionalReport(spec=spec, eps=eps, envelope_kind=kind, rows=tuple(rows))


@dataclass(frozen=True)
class LimsupReport:
    spec: SequenceSpec
    eps: float
    limit: int
    total: int
    rows: tuple[RatioRow, ...]

    def to_records(self) -> list[dict]:
        return [
            {
                "sequence": self.spec.label,
                "eps": self.eps,
                "k": r.k,
                "member": r.member,
                "ratio": r.ratio,
            }
            for r in self.rows
        ]


def remark_limsup(spec: SequenceSpec, eps: float, limit: int) -> LimsupReport:
    """log k / log n_k sampled at k = 1, 2, 4, 8, ... plus the final member.

    When the exceptional set has exponent 1 this ratio climbs toward 1;
    the report makes that visible without materializing the set.  The k = 1
    row is always 0 (log 1 = 0).
    """
    tally = _tally(spec, eps, limit)
    rows = tuple(tally.final_rows())
    return LimsupReport(spec=spec, eps=eps, limit=limit, total=tally.total, rows=rows)
