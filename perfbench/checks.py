"""Checks of each workload's outputs against oracles.py and proven properties.

Checks read plain data (the records a report renders, parsed CLI json,
sampled set terms), never package objects, so a test can hand them a
report with one number changed.  Every check function returns a list of
failure messages; an empty list means every output was checked and held.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right

import oracles as o

# a member's rank is checked against the trial-factorization oracle up to here
FAMILY_CAP = 16_000
LIMSUP_BAR = 0.8
LIMSUP_MAX_EPS = 0.5
REL = 1e-9

# the short CLI names of the ten sequences
SEQ_KEYS = {
    "h": "min_exponent_over_log",
    "H": "max_exponent_over_log",
    "ap": "valuation_scaled",
    "gamma": "power_rep_count",
    "tau": "power_rep_weight",
    "N": "pascal_count",
    "omega": "omega_over_loglog",
    "bigomega": "bigomega_over_loglog",
    "logf": "loglog_f",
    "logfstar": "loglog_fstar",
}
ENVELOPE_OF = {"H": "max_exponent", "ap": "prime_valuation", "gamma": "perfect_power",
               "tau": "perfect_power"}


class Findings:
    """Failure messages, plus how many comparisons were made."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.checked = 0

    def expect(self, ok: bool, msg: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(msg)

    def equal(self, got, want, what: str) -> None:
        self.expect(got == want, f"{what}: got {got}, oracle {want}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# shared row checks
# ---------------------------------------------------------------------------


def _check_envelope_rows(f: Findings, what: str, rows, kind: str, eps: float, p):
    f.expect(bool(rows), f"{what}: no envelope rows")
    for r in rows:
        env = o.envelope(kind, r["x"], eps, p)
        f.expect(_close(r["envelope"], env),
                 f"{what}: envelope at x={r['x']} is {r['envelope']}, recomputed {env}")
        f.expect(r["count"] <= env, f"{what}: count {r['count']} > envelope {env} at x={r['x']}")


def _check_counts(f: Findings, what: str, rows, key: str, want) -> None:
    """rows carry `x` and a count under `key`; want(x) is the oracle count."""
    f.expect(bool(rows), f"{what}: no count rows")
    for r in rows:
        f.equal(r[key], want(r["x"]), f"{what} at x={r['x']}")


def _check_limsup(f: Findings, what: str, rows, key: str, eps: float, total: int,
                  small: list[int]) -> None:
    """Rows (k, member, ratio) at k = 1, 2, 4, ... and at the final member.

    Every member is re-tested by trial factorization; where the oracle's
    member list (up to FAMILY_CAP) reaches rank k, the member must be its
    k-th entry.
    """
    f.expect(bool(rows), f"{what}: no limsup rows")
    if not rows:
        return
    ks = [1 << i for i in range(total.bit_length()) if 1 << i <= total]
    if ks[-1] != total:
        ks.append(total)
    f.equal([r["k"] for r in rows], ks, f"{what}: ranks")
    prev = 0
    for r in rows:
        k, n = r["k"], r["member"]
        f.expect(n > prev, f"{what}: members not increasing at k={k}")
        prev = n
        f.expect(o.is_family_member(key, n, eps), f"{what}: {n} is not a member")
        f.expect(_close(r["ratio"], math.log(k) / math.log(n)),
                 f"{what}: ratio at k={k} is {r['ratio']}")
        if k <= len(small):
            f.equal(n, small[k - 1], f"{what}: member of rank {k}")
        else:
            f.expect(n > FAMILY_CAP, f"{what}: member {n} of rank {k} missed by the oracle")
    if eps <= LIMSUP_MAX_EPS:
        f.expect(rows[-1]["ratio"] >= LIMSUP_BAR,
                 f"{what}: final ratio {rows[-1]['ratio']} below {LIMSUP_BAR}")


def _counter(members: list[int]):
    return lambda x: bisect_right(members, x)


# ---------------------------------------------------------------------------
# verify: statement_suite
# ---------------------------------------------------------------------------


def verify_oracle(limit: int, eps_grid) -> dict:
    """Member lists the suite's counts are compared against."""
    return {
        "min": {e: o.min_exponent_members(limit, e) for e in eps_grid},
        "smooth": {e: [n for n, _ in o.smooth_numbers(o.qualifying_primes(e), limit)]
                   for e in eps_grid},
        "pp": o.perfect_powers(limit),
        "pascal": {e: o.pascal_members(limit, e) for e in eps_grid},
        "family": {(k, e): o.family_members(k, min(limit, FAMILY_CAP), e)
                   for k in o.FAMILY_NORMAL for e in eps_grid},
    }


_SUITE_CHECKS = {
    "I": ("containment", "count-bound", "ideal-fit"),
    "II": ("envelope[max_exponent]", "ideal-fit"),
    "III": ("envelope[valuation p=2]", "ideal-fit[p=2]",
            "envelope[valuation p=3]", "ideal-fit[p=3]"),
    "IV": ("envelope[power]", "ideal-fit", "set-equality"),
    "V": ("envelope[power]", "ideal-fit", "set-equality"),
    "VI": ("sqrt-ratio", "ideal-fit", "membership-agreement"),
    "VII": ("limsup[omega_over_loglog]", "limsup[bigomega_over_loglog]"),
    "VIII": ("limsup[loglog_f]", "limsup[loglog_fstar]"),
}


def check_verify(out: dict, eps_grid, ex: dict,
                 statements=tuple(_SUITE_CHECKS)) -> list[str]:
    """`out` holds the suite's `passed` flag and `to_records(include_rows=True)`;
    every check of every statement in `statements` must be present."""
    f = Findings()
    f.expect(out["passed"] is True, "suite report did not pass")
    by = {(r["statement"], r["eps"], r["check"]): r for r in out["records"]}
    for (sid, eps, name), r in by.items():
        if r["blocking"]:
            f.expect(r["passed"], f"{sid} eps={eps} {name} failed: {r['details']}")
    for eps in eps_grid:
        for sid in statements:
            for name in _SUITE_CHECKS[sid]:
                f.expect((sid, eps, name) in by, f"missing {sid} eps={eps} {name}")
    pp = _counter(ex["pp"])
    for (sid, eps, name), r in by.items():
        what = f"{sid} eps={eps} {name}"
        rows = r["rows"]
        if sid == "I" and name == "ideal-fit":
            _check_counts(f, what, rows, "count", _counter(ex["min"][eps]))
        elif sid == "I" and name == "count-bound":
            _check_counts(f, what, rows, "smooth_count", _counter(ex["smooth"][eps]))
        elif sid == "II" and name.startswith("envelope"):
            _check_envelope_rows(f, what, rows, "max_exponent", eps, None)
        elif sid == "III":
            p = int(re.search(r"p=(\d+)", name).group(1))
            _check_counts(f, what, rows, "count", lambda x: o.valuation_count(p, x, eps))
            if name.startswith("envelope"):
                _check_envelope_rows(f, what, rows, "prime_valuation", eps, p)
        elif sid in ("IV", "V") and name != "set-equality":
            _check_counts(f, what, rows, "count", pp)
            if name.startswith("envelope"):
                _check_envelope_rows(f, what, rows, "perfect_power", eps, None)
        elif sid == "VI" and name in ("sqrt-ratio", "ideal-fit"):
            _check_counts(f, what, rows, "count", _counter(ex["pascal"][eps]))
        elif sid in ("VII", "VIII"):
            key = name[len("limsup["):-1]
            total = rows[-1]["k"] if rows else 0
            _check_limsup(f, what, rows, key, eps, total, ex["family"][(key, eps)])
    return f.failures


# ---------------------------------------------------------------------------
# aeps: count reports and limsup reports through the CLI
# ---------------------------------------------------------------------------


def aeps_oracle(limit: int, eps: float) -> dict:
    return {
        "h": o.min_exponent_members(limit, eps),
        "H": o.max_exponent_members(limit, eps),
        "pp": o.perfect_powers(limit),
        "N": o.pascal_members(limit, eps),
        "family": {k: o.family_members(k, min(limit, FAMILY_CAP), eps)
                   for k in o.FAMILY_NORMAL},
    }


def _argv_opts(argv: list[str]) -> dict:
    opts = {"remark": "--remark" in argv}
    for flag in ("--seq", "--eps", "--p"):
        if flag in argv:
            opts[flag[2:]] = argv[argv.index(flag) + 1]
    return opts


def check_aeps(outs: list[dict], limit: int, ex: dict) -> list[str]:
    """`outs` holds one {"argv", "doc"} per report, doc the parsed json."""
    f = Findings()
    xs = o.geometric(limit)
    last_count: dict[str, int] = {}
    remarks = []
    for out in outs:
        opts = _argv_opts(out["argv"])
        seq, eps, doc = opts["seq"], float(opts["eps"]), out["doc"]
        key = SEQ_KEYS[seq]
        p = int(opts["p"]) if seq == "ap" else None
        label = f"{key}(p={p})" if p else key
        what = f"aeps {label}" + (" --remark" if opts["remark"] else "")
        f.equal(doc["sequence"], label, f"{what}: sequence")
        recs = doc["records"]
        if opts["remark"]:
            remarks.append((what, key, label, eps, doc))
            continue
        f.equal([r["x"] for r in recs], xs, f"{what}: checkpoints")
        kind = ENVELOPE_OF.get(seq)
        f.equal(doc["envelope_kind"], kind, f"{what}: envelope kind")
        if kind:
            f.expect(doc["envelope_ok"] is True, f"{what}: envelope reported violated")
            _check_envelope_rows(f, what, recs, kind, eps, p)
        counts = [r["count"] for r in recs]
        f.expect(all(a <= b for a, b in zip(counts, counts[1:])), f"{what}: counts decrease")
        if key in o.FAMILY_NORMAL:
            small = [r for r in recs if r["x"] <= FAMILY_CAP]
            _check_counts(f, what, small, "count", _counter(ex["family"][key]))
        elif seq == "ap":
            _check_counts(f, what, recs, "count", lambda x: o.valuation_count(p, x, eps))
        else:
            members = ex["pp"] if seq in ("gamma", "tau") else ex[seq]
            _check_counts(f, what, recs, "count", _counter(members))
        if recs:
            last_count[label] = recs[-1]["count"]
    for what, key, label, eps, doc in remarks:
        _check_limsup(f, what, doc["records"], key, eps, doc["total"], ex["family"][key])
        if label in last_count:
            f.expect(doc["total"] >= last_count[label],
                     f"{what}: total {doc['total']} below the count report's "
                     f"{last_count[label]}")
    f.expect(f.checked > 0, "aeps: nothing checked")
    return f.failures


# ---------------------------------------------------------------------------
# lambda: estimates, file round trip and verdicts
# ---------------------------------------------------------------------------

POWER_TOL = 0.01
SCALE_TOL = 0.01
UNION_TOL = 0.02


def _check_power_samples(f: Findings, what: str, samples, s, k: int = 1) -> None:
    num, den = s
    f.expect(bool(samples), f"{what}: no sampled terms")
    for n, a in samples:
        f.expect(a % k == 0, f"{what}: term {n} = {a} not a multiple of {k}")
        f.expect(o.is_power_term(a // k, n, num, den),
                 f"{what}: term {n} = {a} is not {k} * floor({n}**({den}/{num}))")


def _check_union_samples(f: Findings, what: str, samples, sa, sb) -> None:
    """The i-th union term x has exactly i members of A or B at or below it."""
    lo, hi = sorted((sa, sb), key=lambda s: s[0] / s[1])
    f.expect(bool(samples), f"{what}: no sampled terms")
    for i, x in samples:
        both = sum(
            1
            for n in range(1, o.power_count(x, *lo) + 1)
            if o.power_member(o.iroot(n ** lo[1], lo[0]), *hi)
        )
        rank = o.power_count(x, *sa) + o.power_count(x, *sb) - both
        f.expect(o.power_member(x, *sa) or o.power_member(x, *sb),
                 f"{what}: term {i} = {x} lies in neither set")
        f.equal(rank, i, f"{what}: rank of term {x}")


def check_lambda(outs: list[dict], file_lines: list[str] | None) -> list[str]:
    """`outs` holds one dict per operation, tagged by `kind`."""
    f = Findings()
    power_est = {}
    for out in outs:
        if out["kind"] == "power":
            power_est[tuple(out["s"])] = out["value"]
    for out in outs:
        kind = out["kind"]
        what = f"lambda {kind} {out.get('s', out.get('pair', ''))}"
        if kind == "power":
            s = tuple(out["s"])
            f.expect(abs(out["value"] - s[0] / s[1]) <= POWER_TOL,
                     f"{what}: estimate {out['value']} not within {POWER_TOL}")
            _check_power_samples(f, what, out["samples"], s)
        elif kind == "scale":
            s = tuple(out["s"])
            f.expect(s in power_est, f"{what}: base set not estimated")
            base = power_est.get(s, math.nan)
            f.expect(abs(out["value"] - base) <= SCALE_TOL,
                     f"{what} x{out['k']}: estimate {out['value']} vs base {base}")
            _check_power_samples(f, what, out["samples"], s, out["k"])
        elif kind == "union":
            sa, sb = (tuple(s) for s in out["pair"])
            top = max(sa[0] / sa[1], sb[0] / sb[1])
            f.expect(abs(out["value"] - top) <= UNION_TOL,
                     f"{what}: estimate {out['value']} not within {UNION_TOL} of {top}")
            _check_union_samples(f, what, out["samples"], sa, sb)
        elif kind == "construct":
            continue  # its file is checked with the file-backed estimate
        elif kind == "file":
            s = tuple(out["s"])
            f.expect(s in power_est, f"{what}: streamed set not estimated")
            f.equal(out["value"], power_est.get(s), f"{what}: file-backed estimate")
            _check_power_samples(f, what, out["samples"], s)
            f.expect(file_lines is not None, f"{what}: the constructed file is gone")
            lines = file_lines or []
            f.equal(len(lines), out["terms"], f"{what}: lines written")
            bad = [n for n, _ in out["samples"]
                   if n > len(lines) or not o.is_power_term(int(lines[n - 1]), n, *s)]
            f.expect(not bad, f"{what}: file lines {bad[:3]} are not the set's terms")
        elif kind == "classify":
            f.expect(out["verdict"] in out["want"],
                     f"lambda {out['call']} q={out['q']}: verdict {out['verdict']}, "
                     f"known answer {' or '.join(out['want'])}")
        else:
            f.expect(False, f"unknown lambda output {kind!r}")
    f.expect(f.checked > 0, "lambda: nothing checked")
    return f.failures
