"""Command-line front end.

Subcommands
-----------
fn         evaluate an arithmetic function at n or over a range
construct  stream a constructed set, one integer per line
lambda     estimate the convergence exponent of a set
classify   growth-ideal membership verdict for a set
aeps       exceptional-set counting report (or limsup ratios with --remark)
verify     run the statement verification suite

Output is deterministic: identical arguments produce byte-identical
csv/json.  Exit codes: 0 success/consistent/pass, 1 inconsistent/fail,
2 usage or data errors, 3 indeterminate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Iterator, TextIO

from . import arith
from .bulk import iter_blocks
from .convergence import (
    PASCAL_LIMIT_CAP,
    count_report,
    remark_limsup,
    sequence_spec,
    sequence_values,
)
from .errors import DataFormatError, InsufficientDataError, InvalidArgumentError
from .exponent import Verdict, classify_leq, classify_less, estimate_lambda
from .sets import (
    Checkpoints,
    IntegerSet,
    from_file,
    logpower_set,
    power_set,
    smooth_set,
)
from .suite import statement_suite

SCHEMA_VERSION = 1

_EXIT_BY_VERDICT = {
    Verdict.CONSISTENT: 0,
    Verdict.INCONSISTENT: 1,
    Verdict.INDETERMINATE: 3,
}

# short user-facing sequence names
_SEQ_BY_NAME = {
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


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _cell(v, precise: bool) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isinf(v) or math.isnan(v):
            return str(v)
        return f"{v:.12g}" if precise else f"{v:.6g}"
    return str(v)


def _render_table(records: list[dict], fp: TextIO, head: list[str] | None = None):
    if head:
        for line in head:
            fp.write(f"{line}\n")
    if not records:
        return
    cols = list(records[0].keys())
    cells = [[_cell(r.get(c), precise=False) for c in cols] for r in records]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    fp.write("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip() + "\n")
    for row in cells:
        fp.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def _render_csv(records: list[dict], fp: TextIO):
    if not records:
        return
    cols = list(records[0].keys())
    fp.write(",".join(cols) + "\n")
    for r in records:
        fp.write(",".join(_cell(r.get(c), precise=True) for c in cols) + "\n")


def _render_json(command: str, records: list[dict], fp: TextIO, extra: dict):
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(extra)
    doc["records"] = records
    json.dump(doc, fp, indent=2, allow_nan=True)
    fp.write("\n")


def _emit(
    args,
    command: str,
    records: list[dict],
    head: list[str] | None = None,
    extra: dict | None = None,
) -> None:
    fp = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.output == "table":
            _render_table(records, fp, head)
        elif args.output == "csv":
            _render_csv(records, fp)
        else:
            _render_json(command, records, fp, extra or {})
    finally:
        if args.out:
            fp.close()


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _parse_power(text: str) -> float | Fraction:
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise InvalidArgumentError(f"bad exponent {text!r}") from None
    try:
        return float(text)
    except ValueError:
        raise InvalidArgumentError(f"bad exponent {text!r}") from None


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InvalidArgumentError(f"bad prime list {text!r}") from None


def _parse_checkpoints(text: str) -> Checkpoints:
    """Either START:CAP:FACTOR (geometric) or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidArgumentError(
                f"checkpoint spec {text!r} is not START:CAP:FACTOR"
            )
        try:
            start, cap, factor = (int(p) for p in parts)
        except ValueError:
            raise InvalidArgumentError(f"bad checkpoint spec {text!r}") from None
        return Checkpoints.geometric(cap, start=start, factor=factor)
    try:
        values = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InvalidArgumentError(f"bad checkpoint list {text!r}") from None
    return Checkpoints(values)


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        a, _, b = text.partition(":")
        try:
            lo, hi = int(a), int(b)
        except ValueError:
            raise InvalidArgumentError(f"bad range {text!r}") from None
    else:
        try:
            lo = hi = int(text)
        except ValueError:
            raise InvalidArgumentError(f"bad value {text!r}") from None
    if lo < 1 or hi < lo:
        raise InvalidArgumentError(f"need 1 <= start <= end, got {text!r}")
    return lo, hi


def _build_set(args) -> IntegerSet:
    chosen = [
        name
        for name, val in (
            ("power", args.power),
            ("logpower", args.logpower),
            ("smooth", args.smooth),
            ("file", args.file),
        )
        if val is not None
    ]
    if len(chosen) != 1:
        raise InvalidArgumentError(
            "choose exactly one of --power, --logpower, --smooth, --file"
        )
    if args.power is not None:
        return power_set(_parse_power(args.power))
    if args.logpower is not None:
        return logpower_set(args.logpower)
    if args.smooth is not None:
        return smooth_set(_parse_primes(args.smooth))
    return from_file(args.file)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


# fn name -> the bulk field it reads; ap reads the valuation array instead
_FN_FIELDS = {
    "omega": "omega",
    "bigomega": "big_omega",
    "h": "h_min",
    "H": "h_max",
    "ap": None,
    "d": "div_count",
    "logf": "div_count",
    "logfstar": "div_count",
    "gamma": "exp_gcd",
    "tau": "exp_gcd",
}
# values at n = 1, below every bulk scan
_FN_AT_ONE = {
    "omega": 0, "bigomega": 0, "h": 1, "H": 1, "ap": 0, "d": 1,
    "logf": 0.0, "logfstar": 0.0,
}
_FN_NAMES = (*_FN_FIELDS, "N")


def _fn_values(
    name: str, lo: int, hi: int, p: int | None
) -> Iterator[tuple[int, int | float]]:
    """(n, value) for every n in [lo, hi], read off the block sieve (the
    Pascal count N is computed per n)."""
    if name == "N":
        yield from ((n, arith.pascal_count(n)) for n in range(lo, hi + 1))
        return
    if name == "ap" and p is None:
        raise InvalidArgumentError("fn ap requires --p PRIME")
    if lo == 1:
        if name not in _FN_AT_ONE:
            raise InvalidArgumentError("gamma/tau are undefined for n = 1")
        yield 1, _FN_AT_ONE[name]
    field = _FN_FIELDS[name]
    # gamma and tau: the divisor count and sum of the exponent gcd
    rep = {"gamma": "power_rep_count", "tau": "power_rep_weight"}.get(name)
    for stats in iter_blocks(
        hi,
        {field} if field else set(),
        ap_primes=(p,) if name == "ap" else (),
        start=max(lo, 2),
    ):
        if rep:
            col = sequence_values(sequence_spec(rep), stats).astype(int)
        else:
            col = stats.ap[p] if name == "ap" else getattr(stats, field)
        for n, v in zip(stats.n.tolist(), col.tolist()):
            if name == "logf":
                v = 0.5 * v * math.log(n)
            elif name == "logfstar":
                v = 0.5 * v * math.log(n) - math.log(n)
            yield n, v


def _cmd_fn(args) -> int:
    if args.name not in _FN_NAMES:
        raise InvalidArgumentError(
            f"unknown function {args.name!r}; choose from {', '.join(_FN_NAMES)}"
        )
    lo, hi = _parse_range(args.n)
    records = [
        {"n": n, "value": v} for n, v in _fn_values(args.name, lo, hi, args.p)
    ]
    _emit(args, "fn", records, extra={"function": args.name})
    return 0


def _cmd_construct(args) -> int:
    a = _build_set(args)
    fp = open(args.out, "w") if args.out else sys.stdout
    try:
        a.write(fp, terms=args.terms)
    finally:
        if args.out:
            fp.close()
    return 0


def _cmd_lambda(args) -> int:
    a = _build_set(args)
    terms = args.terms
    if terms is None:
        if args.file is not None:
            available = a.count(math.inf)
            terms = min(10_000, available)
        else:
            terms = 10_000
    est = estimate_lambda(a, terms=terms, tail_fraction=args.tail_fraction)
    records = [{"n": n, "ratio": r} for n, r in est.window_ratios]
    head = [
        f"lambda estimate: {est.value:.6f}  "
        f"(terms {est.terms}, tail fraction {est.tail_fraction:g}, "
        f"trend {est.trend.value})"
    ]
    _emit(
        args,
        "lambda",
        records,
        head=head,
        extra={
            "set": a.label,
            "value": est.value,
            "terms": est.terms,
            "tail_fraction": est.tail_fraction,
            "trend": est.trend.value,
        },
    )
    return 0


def _cmd_classify(args) -> int:
    a = _build_set(args)
    deltas = tuple(args.delta) if args.delta else None
    cp = _parse_checkpoints(args.checkpoints) if args.checkpoints else None
    if args.ideal == "leq":
        verdict = classify_leq(a, args.q, deltas=deltas, checkpoints=cp)
    else:
        verdict = classify_less(a, args.q, deltas=deltas, checkpoints=cp)
    records = verdict.to_records()
    wit = (
        f", witness delta={verdict.delta_used:g}"
        if verdict.delta_used is not None
        else ""
    )
    head = [
        f"verdict: {verdict.verdict.value} for exponent "
        f"{'<=' if args.ideal == 'leq' else '<'} {args.q:g}{wit}",
        f"policy: {verdict.notes[0]}",
    ]
    _emit(
        args,
        "classify",
        records,
        head=head,
        extra={
            "set": a.label,
            "ideal": args.ideal,
            "q": args.q,
            "verdict": verdict.verdict.value,
            "delta_used": verdict.delta_used,
            "policy": verdict.notes[0],
        },
    )
    return _EXIT_BY_VERDICT[verdict.verdict]


def _cmd_aeps(args) -> int:
    if args.seq not in _SEQ_BY_NAME:
        raise InvalidArgumentError(
            f"unknown sequence {args.seq!r}; choose from {sorted(_SEQ_BY_NAME)}"
        )
    spec = sequence_spec(
        _SEQ_BY_NAME[args.seq], p=args.p if args.seq == "ap" else None
    )
    # a count report scans only to its last checkpoint, which can sit below
    # 2**63 when --limit does not, so check the limit itself
    if args.limit >= 2**63:
        raise InvalidArgumentError(f"aeps needs --limit < 2**63, got {args.limit}")
    if args.remark:
        report = remark_limsup(spec, args.eps, args.limit)
        head = [
            f"limsup rows for {spec.label}, eps={args.eps:g}, "
            f"limit {args.limit} ({report.total} members)"
        ]
        _emit(
            args,
            "aeps",
            report.to_records(),
            head=head,
            extra={
                "sequence": spec.label,
                "eps": args.eps,
                "limit": args.limit,
                "total": report.total,
            },
        )
        return 0
    cp = (
        _parse_checkpoints(args.checkpoints)
        if args.checkpoints
        else Checkpoints.geometric(args.limit)
    )
    if cp.values[-1] > args.limit:
        raise InvalidArgumentError(
            f"checkpoint {cp.values[-1]} exceeds --limit {args.limit}"
        )
    # the report scans to the last checkpoint, but the user set --limit
    if spec.key == "pascal_count" and cp.values[-1] > PASCAL_LIMIT_CAP:
        raise InvalidArgumentError(
            f"Pascal count scans support --limit <= {PASCAL_LIMIT_CAP}, "
            f"got {args.limit}"
        )
    envelope = None if args.envelope == "none" else args.envelope
    report = count_report(spec, args.eps, cp, envelope=envelope)
    ok = report.envelope_ok
    head = [
        f"exceptional counts for {spec.label}, eps={args.eps:g}"
        + (
            f"  [envelope {report.envelope_kind}: "
            f"{'holds' if ok else 'VIOLATED'}]"
            if report.envelope_kind
            else ""
        )
    ]
    _emit(
        args,
        "aeps",
        report.to_records(),
        head=head,
        extra={
            "sequence": spec.label,
            "eps": args.eps,
            "envelope_kind": report.envelope_kind,
            "envelope_ok": ok,
        },
    )
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    if args.suite == ["all"] or args.suite is None:
        statements = None
    else:
        statements = tuple(args.suite)
    cp = _parse_checkpoints(args.checkpoints) if args.checkpoints else None
    eps_grid = tuple(args.eps) if args.eps else (0.25, 0.5, 1.0)
    report = statement_suite(
        args.limit,
        checkpoints=cp,
        eps_grid=eps_grid,
        statements=statements,
    )
    records = report.to_records()
    n_fail = sum(1 for r in report.results if not r.passed)
    head = [
        f"suite: {'PASS' if report.passed else 'FAIL'} "
        f"({len(report.results)} statement x eps results, {n_fail} failing; "
        f"limit {report.limit})"
    ]
    _emit(
        args,
        "verify",
        records,
        head=head,
        extra={"passed": report.passed, "limit": report.limit},
    )
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--output",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default table)",
    )
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_set_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--power", help="floor-power set with exponent S (float or A/B)")
    p.add_argument(
        "--logpower", type=float, help="log-corrected power set with exponent Q"
    )
    p.add_argument("--smooth", help="smooth set over comma-separated primes")
    p.add_argument("--file", help="set from a file, one integer per line")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idealconv",
        description="Convergence exponents, growth ideals, and exceptional sets "
        "of arithmetic sequences.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fn", help="evaluate an arithmetic function")
    p.add_argument("name", help="omega|bigomega|h|H|ap|d|logf|logfstar|gamma|tau|N")
    p.add_argument("n", help="single n or START:END")
    p.add_argument("--p", type=int, help="prime for fn ap")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_fn)

    p = sub.add_parser("construct", help="stream a constructed set")
    _add_set_args(p)
    p.add_argument("--terms", type=int, required=True, help="how many elements")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(handler=_cmd_construct, output="table")

    p = sub.add_parser("lambda", help="estimate the convergence exponent")
    _add_set_args(p)
    p.add_argument("--terms", type=int, help="prefix length (default 10000)")
    p.add_argument(
        "--tail-fraction",
        type=float,
        default=0.2,
        help="fraction of the prefix used for the estimate (default 0.2)",
    )
    _add_output_args(p)
    p.set_defaults(handler=_cmd_lambda)

    p = sub.add_parser("classify", help="growth-ideal membership verdict")
    _add_set_args(p)
    p.add_argument("--ideal", choices=("leq", "less"), required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument(
        "--delta", type=float, action="append", help="margin (repeatable)"
    )
    p.add_argument("--checkpoints", help="START:CAP:FACTOR or comma list")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("aeps", help="exceptional-set report for a sequence")
    p.add_argument("--seq", required=True, help="|".join(sorted(_SEQ_BY_NAME)))
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--p", type=int, help="prime for --seq ap")
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument("--checkpoints", help="START:CAP:FACTOR or comma list")
    p.add_argument(
        "--envelope",
        default="auto",
        help="auto (default), none, or an envelope kind",
    )
    p.add_argument(
        "--remark",
        action="store_true",
        help="print limsup ratio rows instead of counts",
    )
    _add_output_args(p)
    p.set_defaults(handler=_cmd_aeps)

    p = sub.add_parser("verify", help="run the statement verification suite")
    p.add_argument(
        "--suite",
        action="append",
        help="statement id I..VIII or 'all' (repeatable; default all)",
    )
    p.add_argument("--limit", type=int, default=10**7)
    p.add_argument("--eps", type=float, action="append", help="tolerance (repeatable)")
    p.add_argument("--checkpoints", help="START:CAP:FACTOR or comma list")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InvalidArgumentError, DataFormatError, InsufficientDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
