"""Exceptional sets of arithmetic sequences and their counting reports.

Each supported sequence x_n (built from the exponent statistics of n) has a
normal value L it tends to along typical integers; the exceptional set at
tolerance eps collects the n with |x_n - L| >= eps.  This module constructs
those sets, counts them against analytic envelopes, and measures the
limsup of log k / log n_k along their elements.

`exceptional_scan` is the one scan loop: one `bulk.iter_blocks` pass over
[2, limit] yields each block's membership mask for any number of (sequence,
eps) pairs, so membership over ranges like [2, 10**7] costs one sieve pass.
The masks come from cut-offs on the block's integer field, not from a float
per n: x_n is a function of n and one small field value m, monotone in n, so
its values at the block's two ends decide every n of almost every m at once,
by signed zones with a margin δ = 1e-9 that a bound on the float error backs.
`deviation`, the per-n floats, is the oracle of that rule and its fallback,
for the few values it leaves undecided and the head of a scan's first
block.  A `Tally` is the running state
of one exceptional set across a scan: the count A(x) at each checkpoint and
the ratio rows at k = 1, 2, 4, ...  It takes a block's mask and lists the
members only in the few blocks that hold a checkpoint or a rank k = 2**j.
`exceptional_members`, the count and limsup reports and the statement suite
all read that one generator; the Pascal count instead thresholds at each eps
one table of |N(n) - 2|, `pascal_distances`, walked from Pascal's triangle.
`envelope_rows` is the one envelope comparison and decides count <=
envelope, in integers where the two can tie.  There is no per-n path:
`idealconv fn` reads single values off the same blocks, and the tests check
them against a per-n recomputation by trial division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import arith
from .bulk import PRIME_BOUND_CAP, BlockStats, iter_blocks, small_primes
from .errors import InvalidArgumentError
from .sets import Checkpoints, IntegerSet

__all__ = [
    "SequenceSpec",
    "sequence_spec",
    "sequence_values",
    "exceptional_set",
    "exceptional_members",
    "exceptional_scan",
    "smooth_bound_for",
    "envelope_value",
    "default_envelope",
    "CountRow",
    "ExceptionalReport",
    "count_report",
    "RatioRow",
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


# key -> (normal value, first valid n, the bulk field x_n is a function of,
# "ap" for the valuation of the spec's prime p, None for the Pascal count,
# which no block holds; the envelope kind that bounds its exceptional counts)
SEQUENCE_KEYS: dict[str, tuple[float, int, str | None, str | None]] = {
    "min_exponent_over_log": (0.0, 2, "h_min", None),
    "max_exponent_over_log": (0.0, 2, "h_max", "max_exponent"),
    "valuation_scaled": (0.0, 2, "ap", "prime_valuation"),
    "power_rep_count": (1.0, 2, "exp_gcd", "perfect_power"),
    "power_rep_weight": (1.0, 2, "exp_gcd", "perfect_power"),
    "pascal_count": (2.0, 2, None, None),
    "omega_over_loglog": (1.0, 3, "omega", None),
    "bigomega_over_loglog": (1.0, 3, "big_omega", None),
    "loglog_f": (_NORMAL_LOGLOG, 3, "div_count", None),
    "loglog_fstar": (_NORMAL_LOGLOG, 3, "div_count", None),
}


def sequence_spec(key: str, p: int | None = None) -> SequenceSpec:
    if key not in SEQUENCE_KEYS:
        raise InvalidArgumentError(
            f"unknown sequence {key!r}; choose from {sorted(SEQUENCE_KEYS)}"
        )
    limit_value, start_n, field_name, _ = SEQUENCE_KEYS[key]
    if field_name == "ap":
        if p is None:
            raise InvalidArgumentError(f"sequence {key!r} requires a prime p")
        arith.require_prime(p)
    elif p is not None:
        raise InvalidArgumentError(f"sequence {key!r} takes no prime parameter")
    return SequenceSpec(key=key, limit_value=limit_value, start_n=start_n, p=p)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

# divisor-count / divisor-sum tables for the small exponent gcds, as floats
_TBL = 64
_D_SMALL = np.zeros(_TBL)
_SIGMA_SMALL = np.zeros(_TBL)
for _i in range(1, _TBL):
    _D_SMALL[_i::_i] += 1
    _SIGMA_SMALL[_i::_i] += _i


def sequence_values(spec: SequenceSpec, stats: BlockStats) -> np.ndarray:
    """x_n for every n of a stats block, in a fresh float64 array (indices
    below start_n give garbage; `deviation` blanks them).  Each entry reads
    only its own n and field value, so `stats` may also hold any
    non-decreasing n, not only consecutive ones, with the spec's field
    beside them (see `_field_stats`)."""
    key = spec.key
    if key == "power_rep_count":
        return _D_SMALL[stats.exp_gcd]
    if key == "power_rep_weight":
        return _SIGMA_SMALL[stats.exp_gcd]
    ln_n = np.log(stats.n)
    if key == "min_exponent_over_log":
        return stats.h_min / ln_n
    if key == "max_exponent_over_log":
        return stats.h_max / ln_n
    if key == "valuation_scaled":
        ap = stats.ap[spec.p]
        v = ap * math.log(spec.p)
        v /= ln_n
        # x_n is exactly 1 at n = p**k, where the quotient can round below 1.
        # stats.n never falls, so the entries at n = p**k are one run, found
        # by value: x is 1 there where the valuation is k, which in a block
        # is the one entry
        first, last = int(stats.n[0]), int(stats.n[-1])
        pk, k = spec.p, 1
        while pk <= last:
            if pk >= first:
                i = np.searchsorted(stats.n, pk)
                j = np.searchsorted(stats.n, pk, side="right")
                v[i:j][ap[i:j] == k] = 1.0
            pk, k = pk * spec.p, k + 1
        return v
    lnln_n = np.log(ln_n)
    with np.errstate(divide="ignore"):
        if key == "omega_over_loglog":
            return stats.omega / lnln_n
        if key == "bigomega_over_loglog":
            return stats.big_omega / lnln_n
        if key in ("loglog_f", "loglog_fstar"):
            # log f(n) / log n, then log f(n) and its log, in one array
            v = stats.div_count * 0.5
            if key == "loglog_fstar":
                v -= 1.0
            v *= ln_n
            np.log(v, out=v)
            v /= lnln_n
            return v
    raise _no_bulk_values(key)


def _no_bulk_values(key: str) -> InvalidArgumentError:
    return InvalidArgumentError(f"no bulk values for {key!r}; use exceptional_members")


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


# largest limit whose k = 2 column, C(r, 2) for 4 <= r, has at most 2**22
# entries; the walk's dict grows with that column
PASCAL_LIMIT_CAP = math.comb((1 << 22) + 4, 2) - 1


def pascal_distances(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The n <= limit whose Pascal occurrence count N(n) is not 2, in
    increasing order, and |N(n) - 2| for each, as two int64 arrays.

    N(2) = 1.  Every n >= 3 occurs as C(n, 1) and C(n, n - 1), and its other
    occurrences are the C(r, k) = n with 2 <= k <= r - 2.  One walk down the
    columns finds those, taking each symmetric pair once as r >= 2k, and
    counts a central entry (r = 2k) once and any other twice: that count is
    |N(n) - 2|.  The walk takes nothing from `arith`, so it is a method
    independent of the per-n counts there.
    """
    if limit > PASCAL_LIMIT_CAP:
        raise InvalidArgumentError(
            f"Pascal count scans support limit <= {PASCAL_LIMIT_CAP}, got {limit}"
        )
    dist = {2: 1} if limit >= 2 else {}
    k = 2
    while math.comb(2 * k, k) <= limit:
        r, v = 2 * k, math.comb(2 * k, k)
        while v <= limit:
            dist[v] = dist.get(v, 0) + (1 if r == 2 * k else 2)
            r += 1
            v = v * r // (r - k)  # C(r, k) from C(r - 1, k)
        k += 1
    n = np.fromiter(dist, np.int64, len(dist))
    order = np.argsort(n)
    return n[order], np.fromiter(dist.values(), np.int64, len(dist))[order]


def deviation(spec: SequenceSpec, stats: BlockStats) -> np.ndarray:
    """|x_n - L| for every n of a stats block, and 0 for n < start_n, so that
    `deviation(spec, stats) >= eps` is the block's membership mask: the
    oracle of the scan's cut-offs and their fallback.  It is computed in
    place in the fresh array `sequence_values` returns."""
    dev = sequence_values(spec, stats)
    dev -= spec.limit_value
    np.abs(dev, out=dev)
    dev[: np.searchsorted(stats.n, spec.start_n)] = 0.0
    return dev


def _require_eps(eps: float) -> None:
    if not eps > 0:
        raise InvalidArgumentError(f"tolerance eps must be positive, got {eps}")


def _field(spec: SequenceSpec, stats: BlockStats) -> np.ndarray:
    """The field of the block that x_n is a function of, beside n."""
    name = SEQUENCE_KEYS[spec.key][2]
    return stats.ap[spec.p] if name == "ap" else getattr(stats, name)


def _field_stats(spec: SequenceSpec, n: np.ndarray, values: np.ndarray) -> BlockStats:
    """Stats of the non-decreasing int64 n that hold only the spec's field,
    as `values`: positions gathered from a block, or chosen pairs of n and a
    field value, for `sequence_values`."""
    stats = BlockStats(int(n[0]), int(n[-1]) + 1, n)
    name = SEQUENCE_KEYS[spec.key][2]
    if name == "ap":
        stats.ap[spec.p] = values
    else:
        setattr(stats, name, values)
    return stats


# the margin of the scan's zones, far above the float error of x_n (see
# exceptional_scan)
_DELTA = 1e-9


def _block_masks(
    spec: SequenceSpec,
    eps_list: list[float],
    stats: BlockStats,
) -> Iterator[tuple[SequenceSpec, float, np.ndarray]]:
    """(spec, eps, mask) for each eps, each mask a fresh array: by
    `deviation` over the head of the block, and by cut-offs on the spec's
    field values from n = first on."""
    values = _field(spec, stats)
    last = stats.hi - 1
    # the head is the n below start_n and, in a block that more than doubles
    # n (the scan's first), the n <= last / 2, where x varies too much for
    # the cut-offs to decide many values
    first = max(stats.lo, spec.start_n, last // 2 + 1)
    k = first - stats.lo
    head = deviation(spec, _field_stats(spec, stats.n[:k], values[:k])) if k else None
    if first <= last:
        # s = x - L at both ends for each value m, and its range in between
        m_lo = int(values[k:].min())
        m = np.arange(m_lo, int(values[k:].max()) + 1)
        ends = _field_stats(spec, np.repeat(np.array([first, last]), len(m)), np.tile(m, 2))
        s = sequence_values(spec, ends).reshape(2, -1)
        s -= spec.limit_value
        s_range = m_lo, s.min(axis=0), s.max(axis=0)
    for eps in eps_list:
        mask = np.empty(stats.hi - stats.lo, dtype=bool)
        if k:
            np.greater_equal(head, eps, out=mask[:k])
        if first <= last:
            _cutoff_mask(spec, eps, stats.n[k:], values[k:], s_range, mask[k:])
        yield spec, eps, mask


def _cutoff_mask(
    spec: SequenceSpec,
    eps: float,
    n: np.ndarray,
    values: np.ndarray,
    s_range: tuple[int, np.ndarray, np.ndarray],
    mask: np.ndarray,
) -> None:
    """Write deviation >= eps at the consecutive n, whose field values are
    `values`, into `mask`, from the least value m_lo and the least and
    greatest s = x - L over n of each value m_lo, m_lo + 1, ..."""
    m_lo, s_min, s_max = s_range
    member = (s_min >= eps + _DELTA) | (s_max <= -eps - _DELTA)
    inside = (s_min > _DELTA - eps) & (s_max < eps - _DELTA)
    run = np.flatnonzero(inside)
    if not len(run):
        mask.fill(True)
    elif member[run[0] : run[-1]].any():
        # members between non-members: a table indexed by the field
        table = np.zeros(m_lo + len(member), dtype=bool)
        table[m_lo:] = member
        np.take(table, values, out=mask, mode="clip")
    else:
        # the members are the m on either side of the one run of non-members
        np.greater_equal(values, m_lo + int(run[-1]) + 1, out=mask)
        if run[0]:
            mask |= values <= m_lo + int(run[0]) - 1
    undecided = np.flatnonzero(~(member | inside))
    if len(undecided):
        u_lo, u_hi = m_lo + int(undecided[0]), m_lo + int(undecided[-1])
        idx = np.flatnonzero((values >= u_lo) & (values <= u_hi))
        if len(idx):
            mask[idx] = deviation(spec, _field_stats(spec, n[idx], values[idx])) >= eps


def exceptional_scan(
    pairs: Iterable[tuple[SequenceSpec, float]],
    limit: int,
    smooth_bounds: tuple[int, ...] = (),
) -> Iterator[tuple[BlockStats, Iterator[tuple]]]:
    """One sieve pass over [start, limit] for the exceptional sets of the
    (spec, eps) pairs, where start is the least start_n among the specs.

    For each block it yields the block's stats, with the masks for
    `smooth_bounds`, and an iterator over the pairs of (spec, eps, mask):
    mask is the bool array `deviation(spec, stats) >= eps`, so the block's
    members are stats.lo + np.flatnonzero(mask).  The pairs come grouped by
    spec in order of first appearance.  Every array yielded is the caller's.

    The mask is decided on the block's integer field F, without a float
    per n.  x_n is a function x(m, n) of n and one field value m (h_min,
    h_max, ap[p], exp_gcd, omega, big_omega or div_count), and for each m it
    is monotone in n from start_n on (lnln n > 0 from n = 3).  So one
    `sequence_values` call on a tiny array, every m from F.min() to F.max()
    at n = first and n = hi - 1, bounds s = x - L over [first, hi) for each
    m.  Each m lands in one of four zones, with the margin δ = 1e-9: member
    above (s >= eps + δ at both ends), member below (s <= -eps - δ at
    both), non-member (|s| < eps - δ at both), or undecided.  The zones are
    signed: an m whose x falls from above L + eps to below L - eps inside
    the block has |s| >= eps at both ends, yet is undecided.  The mask is
    then (F >= a) | (F <= b), the m on either side of the one run of
    non-members; where a decided member lies inside that run (the exp_gcd
    tables are not monotone in m) it is a bool table indexed by F.  The
    positions whose value lies in the range of the undecided m take their
    bits from `deviation` on just those positions, through the same
    `sequence_values`, so today's floats decide them.  So does the head of
    the block below first = max(lo, start_n, (hi - 1) // 2 + 1): the n below
    start_n, and in a block that more than doubles n (a scan's first), the
    n up to (hi - 1) / 2, over which x moves too far for the cut-offs to
    decide many values.

    δ rests on a bound, not on tuning: for n >= start_n, `sequence_values`
    computes x within 1e-11 of its real value (|x| < 700, as big_omega <= 63
    and lnln n > 0.09, and a few roundings of relative size 2**-52,
    amplified at most 1 / lnln 3 < 11 times).  When the float s at both ends
    lies δ inside a zone, the real s at both ends lies inside it by
    δ - 1e-11, hence, x being monotone, at every n between them, and so does
    the float s there: the mask bit is the one `deviation` gives.
    """
    by_spec: dict[SequenceSpec, list[float]] = {}
    for spec, eps in pairs:
        _require_eps(eps)
        if SEQUENCE_KEYS[spec.key][2] is None:
            raise _no_bulk_values(spec.key)
        by_spec.setdefault(spec, []).append(eps)
    if not by_spec:
        return

    def hits(stats: BlockStats):
        for spec, eps_list in by_spec.items():
            yield from _block_masks(spec, eps_list, stats)

    for stats in iter_blocks(
        limit,
        frozenset(SEQUENCE_KEYS[s.key][2] for s in by_spec) - {"ap"},
        ap_primes=tuple(sorted({s.p for s in by_spec if s.p is not None})),
        smooth_bounds=smooth_bounds,
        start=min(s.start_n for s in by_spec),
    ):
        yield stats, hits(stats)


def exceptional_members(
    spec: SequenceSpec, eps: float, limit: int
) -> Iterator[np.ndarray]:
    """Members of the exceptional set in [start_n, limit], one sorted array
    per sieve block of `exceptional_scan` (the Pascal count's members are
    read off `pascal_distances`, in one array)."""
    if spec.key == "pascal_count":
        _require_eps(eps)
        n, dist = pascal_distances(limit)
        members = n[dist >= eps]
        if len(members):
            yield members
        return
    for stats, hits in exceptional_scan(((spec, eps),), limit):
        for *_, mask in hits:
            idx = np.flatnonzero(mask)
            if len(idx):
                idx += stats.lo  # in place: one array per block is held, not two
                yield idx


def exceptional_set(spec: SequenceSpec, eps: float, limit: int) -> IntegerSet:
    """The exceptional set at tolerance eps, truncated to [2, limit]; each
    sieve block's members are one int64 chunk."""
    return IntegerSet(
        exceptional_members(spec, eps, limit),
        label=f"exceptional({spec.label},eps={eps:g})",
    )


def smooth_bound_for(eps: float) -> int | None:
    """Largest prime p with 1/log p >= eps, or None when no prime qualifies.

    Every member of the min-exponent exceptional set is p-smooth for this
    bound: a prime factor q > p would force x_n <= 1/log q < eps.
    """
    _require_eps(eps)
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

# the sequences each kind bounds are named in SEQUENCE_KEYS
ENVELOPE_KINDS = ("max_exponent", "prime_valuation", "perfect_power")


def envelope_value(kind: str, x: float, eps: float, p: int | None = None) -> float:
    """Proven upper bound for the exceptional count at x.

    max_exponent:    2 * sqrt(2) * x ** (1 - eps * log(2) / 2)
    prime_valuation: (log x / log p) * x ** (1 - eps), with log x / log p
                     taken as k itself at x = p**k, where the float quotient
                     can miss it
    perfect_power:   (log x / log 2) * sqrt(x), valid for x >= 4
    """
    if kind == "max_exponent":
        return 2 * math.sqrt(2) * x ** (1 - eps * _LOG2 / 2)
    if kind == "prime_valuation":
        if p is None:
            raise InvalidArgumentError("prime_valuation envelope needs p")
        k = round(math.log(x) / math.log(p)) if math.isfinite(x) else 0
        log_p_x = k if p**k == x else math.log(x) / math.log(p)
        return log_p_x * x ** (1 - eps)
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
    return SEQUENCE_KEYS[spec.key][3]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountRow:
    x: int
    count: int
    envelope: float | None
    ratio: float | None  # count / envelope
    ok: bool = True  # count <= envelope, or no envelope is stated


def envelope_rows(
    kind: str | None, eps: float, p: int | None, xs, counts
) -> list[CountRow]:
    """A(x) at each x against the named envelope, and whether it holds.

    The envelope and ratio columns are blank when `kind` is None, and for
    the perfect_power bound below x = 4, where it is not stated.  The
    prime_valuation bound at eps = 1 is log x / log p, which the count meets
    with equality at every x = p**count, so it is decided as p**count <= x.
    No other bound can equal an integer count.
    """
    rows = []
    for x, c in zip(xs, counts):
        env = None
        ok = True
        if kind is not None and (kind != "perfect_power" or x >= 4):
            env = envelope_value(kind, x, eps, p)
            exact = kind == "prime_valuation" and eps == 1
            ok = p**c <= x if exact else c <= env
        rows.append(CountRow(x, c, env, (c / env) if env else None, ok))
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
        return all(r.ok for r in self.rows)

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

    Members arrive block by block in increasing order, as a sorted array
    (`absorb`) or as a block's mask (`absorb_mask`).  `counts[i]` is
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

    def absorb_mask(self, mask: np.ndarray, lo: int, upto: int) -> None:
        """`absorb` of the members lo + i at the true entries i of a block's
        mask, all below `upto`.  Only a block that holds a pending checkpoint
        or the next rank k = 2**j lists them; any other block adds its count
        and its last member."""
        m = int(np.count_nonzero(mask))
        cps = self.checkpoints
        pending = len(self.counts) < len(cps) and cps[len(self.counts)] < upto
        if pending or (1 << len(self.rows)) <= self.total + m:
            self.absorb(np.flatnonzero(mask) + lo, upto)
        elif m:
            # the last true byte; argmax over mask[::-1] would copy the mask
            self.last_member = lo + mask.tobytes().rfind(1)
            self.total += m

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
    if spec.key == "pascal_count":
        for members in exceptional_members(spec, eps, limit):
            tally.absorb(members, limit + 1)
    else:
        for stats, hits in exceptional_scan(((spec, eps),), limit):
            for *_, mask in hits:
                tally.absorb_mask(mask, stats.lo, stats.hi)
    # checkpoints past the last member
    tally.absorb(np.empty(0, dtype=np.int64), limit + 1)
    return tally


def count_report(
    spec: SequenceSpec,
    eps: float,
    checkpoints: Checkpoints,
    envelope: bool = True,
) -> ExceptionalReport:
    """Exceptional counts at each checkpoint, with envelope columns.

    The envelope is the proven bound for the sequence when one exists
    (`default_envelope`); envelope=False leaves the columns blank.
    """
    kind = default_envelope(spec) if envelope else None
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
