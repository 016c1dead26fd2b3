"""Tests of the benchmark's own oracles and checks, at small limits.

Each check must accept the package's real output, which agrees with the
oracles, and reject the same output with one number changed, so a broken
check cannot pass silently.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import oracles as o  # noqa: E402
import workloads  # noqa: E402

import idealconv  # noqa: E402
import idealconv.cli  # noqa: E402,F401


def run_ops(ops):
    return [op.extract(op.run()) for op in ops]


# ---------------------------------------------------------------------------
# oracles against brute force
# ---------------------------------------------------------------------------


def test_perfect_powers_by_definition():
    want = sorted({n for n in range(2, 3001) for b in range(2, 12)
                   if round(n ** (1 / b)) ** b == n})
    assert o.perfect_powers(3000) == want


def test_pascal_members_by_binomials():
    hits: dict[int, int] = {}
    for r in range(4, 80):
        for k in range(2, r - 1):
            v = math.comb(r, k)
            if v <= 3000:
                hits[v] = hits.get(v, 0) + 1
    assert o.pascal_members(3000, 0.5) == sorted({2, *hits})
    assert o.pascal_members(3000, 2.0) == sorted(n for n, c in hits.items() if c >= 2)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
def test_valuation_closed_form(p, eps):
    def member(n):
        v = dict(o.trial_factorize(n)).get(p, 0)
        return v * math.log(p) >= eps * math.log(n) * (1 - 1e-12)

    for x in (2, 50, 999, 4096):
        assert o.valuation_count(p, x, eps) == sum(member(n) for n in range(2, x + 1))


@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
def test_exponent_members_by_factorization(eps):
    limit = 6000
    low, high = [], []
    for n in range(2, limit + 1):
        es = [e for _, e in o.trial_factorize(n)]
        if min(es) / math.log(n) >= eps:
            low.append(n)
        if max(es) / math.log(n) >= eps:
            high.append(n)
    assert o.min_exponent_members(limit, eps) == low
    assert o.max_exponent_members(limit, eps) == high


def test_power_set_helpers():
    cube_roots = [o.iroot(n**3, 2) for n in range(1, 200)]  # s = 2/3
    assert all(o.is_power_term(a, n, 2, 3) for n, a in enumerate(cube_roots, 1))
    assert not o.is_power_term(cube_roots[50] + 1, 51, 2, 3)
    members = set(cube_roots)
    for x in range(1, cube_roots[-1]):
        assert o.power_member(x, 2, 3) == (x in members)
        assert o.power_count(x, 2, 3) == sum(1 for a in cube_roots if a <= x)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

SUITE_LIMIT = 50_000
# at this range the limsup bars of VII/VIII are not reached yet; the aeps
# tests below exercise the limsup checks at 10**6
SMALL_STATEMENTS = ("I", "II", "III", "IV", "V", "VI")


@pytest.fixture(scope="module")
def suite_out():
    rep = idealconv.statement_suite(SUITE_LIMIT, statements=SMALL_STATEMENTS,
                                    pascal_check_limit=2000)
    out = {"passed": rep.passed, "eps_grid": list(rep.eps_grid),
           "records": rep.to_records(include_rows=True)}
    return out, checks.verify_oracle(SUITE_LIMIT, out["eps_grid"])


def _verify_failures(out, oracle):
    return checks.check_verify(out, out["eps_grid"], oracle, statements=SMALL_STATEMENTS)


def test_verify_accepts_suite(suite_out):
    out, oracle = suite_out
    assert _verify_failures(out, oracle) == []


@pytest.mark.parametrize("statement, check, key", [
    ("I", "ideal-fit", "count"),
    ("I", "count-bound", "smooth_count"),
    ("II", "envelope[max_exponent]", "envelope"),
    ("III", "envelope[valuation p=2]", "count"),
    ("III", "ideal-fit[p=3]", "count"),
    ("IV", "envelope[power]", "count"),
    ("V", "ideal-fit", "count"),
    ("VI", "sqrt-ratio", "count"),
    ("VI", "ideal-fit", "count"),
])
def test_verify_rejects_one_count_off(suite_out, statement, check, key):
    out, oracle = suite_out
    bad = copy.deepcopy(out)
    rec = next(r for r in bad["records"]
               if r["statement"] == statement and r["check"] == check and r["eps"] == 0.5)
    rec["rows"][-1][key] += 1
    assert _verify_failures(bad, oracle)


def test_verify_rejects_missing_check_and_failed_report(suite_out):
    out, oracle = suite_out
    bad = copy.deepcopy(out)
    bad["records"] = [r for r in bad["records"] if r["statement"] != "IV"]
    assert _verify_failures(bad, oracle)
    bad = copy.deepcopy(out)
    bad["passed"] = False
    assert _verify_failures(bad, oracle)


# ---------------------------------------------------------------------------
# aeps
# ---------------------------------------------------------------------------

AEPS_LIMIT = 10**6


@pytest.fixture(scope="module")
def aeps_out(tmp_path_factory):
    inp = workloads.aeps_inputs(5, tmp_path_factory.mktemp("aeps"), limit=AEPS_LIMIT)
    outs = run_ops(workloads.aeps_ops(idealconv, inp))
    return outs, checks.aeps_oracle(AEPS_LIMIT, workloads.AEPS_EPS)


def test_aeps_accepts_reports(aeps_out):
    outs, oracle = aeps_out
    assert len(outs) == len(workloads.COUNT_SEQS) + len(workloads.REMARK_SEQS)
    assert checks.check_aeps(outs, AEPS_LIMIT, oracle) == []


@pytest.mark.parametrize("i", range(len(workloads.COUNT_SEQS)))
def test_aeps_rejects_one_count_off(aeps_out, i):
    outs, oracle = aeps_out
    bad = copy.deepcopy(outs)
    bad[i]["doc"]["records"][1]["count"] += 1
    assert checks.check_aeps(bad, AEPS_LIMIT, oracle)


@pytest.mark.parametrize("i", range(len(workloads.REMARK_SEQS)))
@pytest.mark.parametrize("row, field", [(3, "member"), (-1, "member"), (-1, "ratio")])
def test_aeps_rejects_bad_limsup_row(aeps_out, i, row, field):
    outs, oracle = aeps_out
    bad = copy.deepcopy(outs)
    rec = bad[len(workloads.COUNT_SEQS) + i]["doc"]["records"][row]
    rec[field] += 1 if field == "member" else -0.1
    assert checks.check_aeps(bad, AEPS_LIMIT, oracle)


# ---------------------------------------------------------------------------
# lambda
# ---------------------------------------------------------------------------

LAMBDA_TERMS = 20_000


@pytest.fixture(scope="module")
def lambda_out(tmp_path_factory):
    inp = workloads.lambda_inputs(7, tmp_path_factory.mktemp("lambda"), terms=LAMBDA_TERMS)
    ops = [op for op in workloads.lambda_ops(idealconv, inp)
           if not op.name.startswith("classify")]
    outs = run_ops(ops)
    outs.append({"kind": "classify", "call": "classify_leq(power 1/2)", "q": 0.5,
                 "verdict": idealconv.classify_leq(idealconv.power_set(0.5), 0.5).verdict.value,
                 "want": ["consistent"]})
    lines = Path(inp["path"]).read_text().split()
    return outs, lines


def test_lambda_accepts_outputs(lambda_out):
    outs, lines = lambda_out
    assert {o["kind"] for o in outs} == {"power", "scale", "union", "construct", "file",
                                         "classify"}
    assert checks.check_lambda(outs, lines) == []


@pytest.mark.parametrize("kind", ["power", "scale", "union", "file"])
def test_lambda_rejects_term_off_by_one(lambda_out, kind):
    outs, lines = lambda_out
    bad = copy.deepcopy(outs)
    out = next(o for o in bad if o["kind"] == kind)
    n, a = out["samples"][3]
    out["samples"][3] = (n, a + 1)
    assert checks.check_lambda(bad, lines)


# twice the tolerance moves any accepted estimate out of it
@pytest.mark.parametrize("kind, delta", [("power", 0.021), ("scale", 0.021), ("union", 0.041),
                                         ("file", 1e-12)])
def test_lambda_rejects_estimate_off(lambda_out, kind, delta):
    outs, lines = lambda_out
    bad = copy.deepcopy(outs)
    next(o for o in bad if o["kind"] == kind)["value"] += delta
    assert checks.check_lambda(bad, lines)


def test_lambda_rejects_bad_file_and_verdict(lambda_out):
    outs, lines = lambda_out
    n = next(o for o in outs if o["kind"] == "file")["samples"][2][0]
    bad_lines = list(lines)
    bad_lines[n - 1] = str(int(bad_lines[n - 1]) + 1)
    assert checks.check_lambda(outs, bad_lines)
    assert checks.check_lambda(outs, lines[:-1])
    bad = copy.deepcopy(outs)
    next(o for o in bad if o["kind"] == "classify")["verdict"] = "indeterminate"
    assert checks.check_lambda(bad, lines)
