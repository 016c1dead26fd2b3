"""The benchmark's workloads: inputs drawn from a seed, operations, checks.

Each workload is three functions:

  inputs(seed, workdir)  plain data drawn from the seed (no package objects);
  ops(ic, inputs)        the operations of one round, each an `Op` whose
                         `run` is timed and whose `extract` turns its result
                         into the plain data the checks read;
  check(rounds, inputs)  failure messages for every round's outputs.

`ic` is the imported `idealconv` package.  Operations look its functions up
as attributes at call time, so a traced run sees them wrapped.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import checks


class OpFailed(Exception):
    """An operation ended with an error status or a known-wrong answer."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    extract: Callable[[Any], dict]


def _cli(ic, argv: list[str]) -> str:
    """Run the command line in-process; its stdout is the result."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ic.cli.main(argv)
    if rc != 0:
        raise OpFailed(f"idealconv {' '.join(argv)} exited {rc}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# verify: statement_suite(2 * 10**6), the `idealconv verify` suite at a size
# whose operation is short enough to repeat many times in one run
# ---------------------------------------------------------------------------

VERIFY_LIMIT = 2 * 10**6
# Statement VI's per-n Pascal cross-check runs to min(limit, this).  At the
# default (10**5) it alone takes about 28 s, one operation per run, whose
# time follows the host's slow spells instead of the program.
VERIFY_PASCAL_CHECK = 10**4


def verify_inputs(seed: int, workdir: Path, limit: int = VERIFY_LIMIT,
                  pascal_check_limit: int = VERIFY_PASCAL_CHECK) -> dict:
    # The suite has no free input: the seed is recorded, nothing is drawn.
    return {"limit": limit, "pascal_check_limit": pascal_check_limit}


def verify_ops(ic, inp: dict) -> list[Op]:
    def run():
        return ic.statement_suite(inp["limit"], pascal_check_limit=inp["pascal_check_limit"])

    def extract(rep) -> dict:
        return {
            "passed": rep.passed,
            "eps_grid": list(rep.eps_grid),
            "records": rep.to_records(include_rows=True),
        }

    return [Op("statement_suite", run, extract)]


def verify_check(rounds: list[list[dict]], inp: dict) -> list[str]:
    failures: list[str] = []
    oracle = None
    for outs in rounds:
        for out in outs:
            if oracle is None:
                oracle = checks.verify_oracle(inp["limit"], out["eps_grid"])
            failures += checks.check_verify(out, out["eps_grid"], oracle)
    return failures


# ---------------------------------------------------------------------------
# aeps: eleven count reports and four limsup reports through the CLI
# ---------------------------------------------------------------------------

AEPS_LIMIT = 4 * 10**6
AEPS_EPS = 0.5
AP_PRIMES = (2, 3, 5, 7, 11, 13)
COUNT_SEQS = ("h", "H", "ap", "ap", "gamma", "tau", "N", "omega", "bigomega", "logf",
              "logfstar")
REMARK_SEQS = ("omega", "bigomega", "logf", "logfstar")


def aeps_inputs(seed: int, workdir: Path, limit: int = AEPS_LIMIT) -> dict:
    primes = iter(sorted(random.Random(seed).sample(AP_PRIMES, 2)))
    base = ["--eps", str(AEPS_EPS), "--limit", str(limit), "--output", "json"]
    argvs = []
    for seq in COUNT_SEQS:
        argv = ["aeps", "--seq", seq, *base]
        if seq == "ap":
            argv += ["--p", str(next(primes))]
        argvs.append(argv)
    argvs += [["aeps", "--seq", seq, *base, "--remark"] for seq in REMARK_SEQS]
    return {"limit": limit, "argvs": argvs}


def aeps_ops(ic, inp: dict) -> list[Op]:
    def op(argv: list[str]) -> Op:
        name = "aeps " + argv[2]
        if "--p" in argv:
            name += " p=" + argv[argv.index("--p") + 1]
        if "--remark" in argv:
            name += " --remark"
        return Op(
            name,
            lambda: _cli(ic, argv),
            lambda text: {"argv": argv, "doc": json.loads(text)},
        )

    return [op(argv) for argv in inp["argvs"]]


def aeps_check(rounds: list[list[dict]], inp: dict) -> list[str]:
    oracle = checks.aeps_oracle(inp["limit"], AEPS_EPS)
    return [msg for outs in rounds for msg in checks.check_aeps(outs, inp["limit"], oracle)]


# ---------------------------------------------------------------------------
# lambda: exponent estimates on streamed and file-backed sets, verdicts
# ---------------------------------------------------------------------------

LAMBDA_TERMS = 3 * 10**5
SAMPLES = 16
# Every round estimates all five power sets.  The small exponents take one
# code path (exact n**den), the two large ones another (an integer-root
# walk).  The seed swaps the roles of the large two and draws the scale
# factor and the sampled terms; it draws nothing whose cost differs much, so
# the seed changes the inputs more than the run time.
SMALL_POWERS = ((1, 5), (1, 4), (1, 3))
LARGE_POWERS = ((2, 3), (3, 4))
UNION_SMALL = (1, 4)
SCALE_FACTORS = (2, 3, 5, 7, 10)
# (call, set, q, verdicts that agree with the set's known exponent, known
# fault).  The primes have exponent 1, so they are not below 1; the default
# delta grid nevertheless finds a decaying witness at 10**7, so that verdict
# is wrong on every run and the operation is counted as failed.
CLASSIFY = (
    ("classify_leq", "power 1/2", 0.5, ("consistent",), False),
    ("classify_leq", "power 1/2", 0.25, ("inconsistent",), False),
    ("classify_less", "power 1/2", 0.75, ("consistent",), False),
    ("classify_leq", "primes", 0.5, ("inconsistent",), False),
    ("classify_less", "primes", 1.0, ("inconsistent", "indeterminate"), True),
)


def lambda_inputs(seed: int, workdir: Path, terms: int = LAMBDA_TERMS) -> dict:
    rng = random.Random(seed)
    large, other = rng.sample(LARGE_POWERS, 2)
    k = rng.choice(SCALE_FACTORS)
    idx = sorted({1, terms, *rng.sample(range(2, terms), SAMPLES)})
    return {
        "terms": terms,
        "powers": [*SMALL_POWERS, large, other],
        "scale": (other, k),
        "union": (UNION_SMALL, large),
        "file_power": large,
        "path": str(workdir / f"construct-{seed}.txt"),
        "samples": idx,
    }


def frac(s: tuple[int, int]) -> str:
    return f"{s[0]}/{s[1]}"


def lambda_ops(ic, inp: dict) -> list[Op]:
    terms, idx = inp["terms"], inp["samples"]

    def power(s):
        return ic.power_set(Fraction(*s))

    def estimate(name: str, make, label: str, **tags) -> Op:
        def run():
            a = make()
            return a, ic.estimate_lambda(a, terms=terms)

        def extract(res) -> dict:
            a, est = res
            return {"kind": name, **tags, "value": est.value, "terms": est.terms,
                    "samples": [(i, a.term(i)) for i in idx]}

        return Op(f"estimate {name} {label}", run, extract)

    def classify(call: str, target: str, q: float, want, known_fault: bool) -> Op:
        def run():
            a = ic.primes_set() if target == "primes" else power((1, 2))
            verdict = getattr(ic, call)(a, q).verdict.value
            if known_fault and verdict not in want:
                raise OpFailed(f"{call}({target}, {q}) is {verdict}")
            return verdict

        def extract(verdict: str) -> dict:
            return {"kind": "classify", "call": f"{call}({target})", "q": q,
                    "verdict": verdict, "want": list(want)}

        return Op(f"{call} {target} q={q}", run, extract)

    (sa, sb), (sc, k) = inp["union"], inp["scale"]
    fs, path = inp["file_power"], inp["path"]
    construct = ["construct", "--power", frac(fs), "--terms", str(terms), "--out", path]
    ops = [estimate("power", lambda s=s: power(s), frac(s), s=s) for s in inp["powers"]]
    ops += [
        estimate("scale", lambda: ic.scale(power(sc), k), f"{frac(sc)} x{k}", s=sc, k=k),
        estimate("union", lambda: ic.union(power(sa), power(sb)), f"{frac(sa)} {frac(sb)}",
                 pair=(sa, sb)),
        Op("construct", lambda: _cli(ic, construct), lambda _: {"kind": "construct"}),
        estimate("file", lambda: ic.from_file(path), frac(fs), s=fs),
    ]
    ops += [classify(*c) for c in CLASSIFY]
    return ops


def lambda_check(rounds: list[list[dict]], inp: dict) -> list[str]:
    try:
        with open(inp["path"]) as fp:
            lines = fp.read().split()
    except OSError:
        lines = None
    return [msg for outs in rounds for msg in checks.check_lambda(outs, lines)]


# ---------------------------------------------------------------------------
# scan: the verify suite and the aeps reports, one round after the other
# ---------------------------------------------------------------------------


def scan_inputs(seed: int, workdir: Path) -> dict:
    return {"verify": verify_inputs(seed, workdir), "aeps": aeps_inputs(seed, workdir)}


def scan_ops(ic, inp: dict) -> list[Op]:
    return verify_ops(ic, inp["verify"]) + aeps_ops(ic, inp["aeps"])


def scan_check(rounds: list[list[dict]], inp: dict) -> list[str]:
    # aeps outputs carry their argv; a failed operation leaves no output
    verify = [[out for out in outs if "argv" not in out] for outs in rounds]
    aeps = [[out for out in outs if "argv" in out] for outs in rounds]
    return verify_check(verify, inp["verify"]) + aeps_check(aeps, inp["aeps"])


@dataclass(frozen=True)
class Workload:
    inputs: Callable[..., dict]
    ops: Callable[..., list[Op]]
    check: Callable[[list[list[dict]], dict], list[str]]


WORKLOADS = {
    "scan": Workload(scan_inputs, scan_ops, scan_check),
    "lambda": Workload(lambda_inputs, lambda_ops, lambda_check),
}
