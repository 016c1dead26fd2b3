"""End-to-end checks of the command-line interface via main(argv)."""

import json
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from idealconv.cli import build_parser, main

from oracles import power_term


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# fn
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,n,extra,value",
    [
        ("omega", "12", (), "2"),
        ("gamma", "64", (), "4"),
        ("tau", "64", (), "12"),
        ("N", "3003", (), "8"),
        ("ap", "48", ("--p", "2"), "4"),
        ("h", "360", (), "1"),
        ("H", "360", (), "3"),
    ],
)
def test_fn_single_values(capsys, name, n, extra, value):
    code, out, _ = run(capsys, "fn", name, n, *extra)
    assert code == 0
    row = out.splitlines()[-1].split()
    assert row == [n, value]


def test_fn_range(capsys):
    code, out, _ = run(capsys, "fn", "d", "1:6", "--output", "csv")
    assert code == 0
    assert out == "n,value\n1,1\n2,2\n3,2\n4,3\n5,2\n6,4\n"


def test_fn_errors(capsys):
    code, _, err = run(capsys, "fn", "nope", "5")
    assert code == 2 and "unknown function" in err
    code, _, err = run(capsys, "fn", "ap", "48")
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, "fn", "omega", "9:3")
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (("gamma", "1:5"), "error: gamma/tau are undefined for n = 1\n"),
        (("tau", "1"), "error: gamma/tau are undefined for n = 1\n"),
        (("N", "1:5"), "error: pascal_count requires n >= 2, got 1\n"),
        (("ap", "1", "--p", "4"), "error: p=4 is not prime\n"),
    ],
    ids=["gamma", "tau", "N", "ap-p4"],
)
def test_fn_at_one_errors(capsys, argv, message):
    code, out, err = run(capsys, "fn", *argv)
    assert code == 2 and out == "" and err == message


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_logpower(capsys):
    code, out, _ = run(capsys, "construct", "--logpower", "0.5", "--terms", "3")
    assert code == 0
    assert out == "1\n6\n34\n"


def test_construct_power_fraction(capsys):
    code, out, _ = run(capsys, "construct", "--power", "3/4", "--terms", "5")
    assert code == 0
    want = [power_term(n, Fraction(3, 4)) for n in range(1, 6)]
    assert [int(v) for v in out.split()] == want


def test_construct_smooth(capsys):
    code, out, _ = run(capsys, "construct", "--smooth", "2,3", "--terms", "6")
    assert code == 0
    assert [int(v) for v in out.split()] == [1, 2, 3, 4, 6, 8]


def test_construct_needs_exactly_one_set(capsys):
    code, _, err = run(capsys, "construct", "--terms", "3")
    assert code == 2 and "exactly one" in err
    code, _, err = run(
        capsys, "construct", "--power", "0.5", "--logpower", "0.5", "--terms", "3"
    )
    assert code == 2 and "exactly one" in err


def test_construct_bad_exponent(capsys):
    code, _, err = run(capsys, "construct", "--power", "x/y", "--terms", "3")
    assert code == 2 and "bad exponent" in err


# ---------------------------------------------------------------------------
# lambda
# ---------------------------------------------------------------------------


def test_lambda_from_file(capsys, tmp_path):
    path = tmp_path / "nat.txt"
    path.write_text("".join(f"{i}\n" for i in range(1, 10_001)))
    code, out, _ = run(capsys, "lambda", "--file", str(path))
    assert code == 0
    assert out.startswith("lambda estimate: 1.000000")


def test_lambda_power_set(capsys):
    code, out, _ = run(
        capsys, "lambda", "--power", "0.5", "--terms", "2000", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.5, abs=1e-3)
    assert doc["terms"] == 2000
    assert [r["n"] for r in doc["records"]][:4] == [2, 4, 8, 16]


def test_lambda_of_a_generated_set_defaults_to_10000_terms(capsys):
    code, out, _ = run(capsys, "lambda", "--power", "0.5", "--output", "json")
    assert code == 0
    assert json.loads(out)["terms"] == 10_000


def test_lambda_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("5\n3\n")
    code, _, err = run(capsys, "lambda", "--file", str(path))
    assert code == 2
    assert "bad.txt:2" in err and "strictly increasing" in err


def test_lambda_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "lambda", "--file", str(tmp_path / "none.txt"))
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_exit_codes(capsys):
    # consistent -> 0
    code, out, _ = run(
        capsys, "classify", "--power", "0.25", "--ideal", "less", "--q", "0.5"
    )
    assert code == 0 and out.startswith("verdict: consistent")
    # inconsistent -> 1
    code, out, _ = run(
        capsys, "classify", "--power", "0.5", "--ideal", "leq", "--q", "0.25"
    )
    assert code == 1 and out.startswith("verdict: inconsistent")
    # indeterminate -> 3
    code, out, _ = run(
        capsys, "classify", "--power", "0.5", "--ideal", "leq", "--q", "0.48"
    )
    assert code == 3 and out.startswith("verdict: indeterminate")


def test_classify_json_payload(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--power",
        "0.25",
        "--ideal",
        "less",
        "--q",
        "0.5",
        "--output",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "consistent"
    assert doc["delta_used"] > 0
    rec = doc["records"][0]
    assert {"set", "ideal", "q", "delta", "x", "count", "ratio", "verdict"} <= rec.keys()


def test_classify_custom_checkpoints(capsys):
    code, _, _ = run(
        capsys,
        "classify",
        "--power",
        "0.25",
        "--ideal",
        "less",
        "--q",
        "0.5",
        "--checkpoints",
        "100:1000000:10",
    )
    assert code == 0


def test_classify_bad_checkpoints(capsys):
    code, _, err = run(
        capsys,
        "classify",
        "--power",
        "0.25",
        "--ideal",
        "less",
        "--q",
        "0.5",
        "--checkpoints",
        "10:20",
    )
    assert code == 2 and "START:CAP:FACTOR" in err


_CLASSIFY = ("classify", "--power", "0.5", "--ideal", "leq", "--q", "0.5")


# every message of the argument parsers, and the classifier's checkpoint
# count, line for line
@pytest.mark.parametrize(
    "argv,message",
    [
        (("construct", "--power", "x", "--terms", "5"), "bad exponent 'x'"),
        (("construct", "--smooth", "2,x", "--terms", "5"), "bad prime list '2,x'"),
        ((*_CLASSIFY, "--checkpoints", "10:x:10"), "bad checkpoint spec '10:x:10'"),
        ((*_CLASSIFY, "--checkpoints", "10,x"), "bad checkpoint list '10,x'"),
        (
            (*_CLASSIFY, "--checkpoints", "1:2:3:4"),
            "checkpoint spec '1:2:3:4' is not START:CAP:FACTOR",
        ),
        (("fn", "omega", "1:x"), "bad range '1:x'"),
        (("fn", "omega", "1:2:3"), "bad range '1:2:3'"),
        (("fn", "omega", "x"), "bad value 'x'"),
        (
            (*_CLASSIFY, "--checkpoints", "1000,10000000"),
            "need at least 3 checkpoints",
        ),
    ],
    ids=[
        "exponent", "prime-list", "checkpoint-spec", "checkpoint-list",
        "checkpoint-parts", "range", "range-parts", "value", "two-checkpoints",
    ],
)
def test_argument_errors_give_their_exact_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# aeps
# ---------------------------------------------------------------------------


def test_aeps_counts(capsys):
    code, out, _ = run(
        capsys, "aeps", "--seq", "gamma", "--eps", "0.5", "--limit", "10000"
    )
    assert code == 0
    assert "envelope perfect_power: holds" in out


def test_aeps_prime_valuation_at_eps_one(capsys):
    # the members at eps = 1 are the powers of 5 (x_n = 1 there exactly),
    # and the bound log_p x, met with equality at powers of 3, holds
    code, out, _ = run(
        capsys, "aeps", "--seq", "ap", "--p", "5", "--eps", "1", "--limit", "1000",
        "--checkpoints", "100,200,1000", "--output", "csv",
    )
    assert code == 0
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == ["2", "3", "4"]
    code, out, _ = run(
        capsys, "aeps", "--seq", "ap", "--p", "3", "--eps", "1", "--limit", "1000",
        "--checkpoints", "81,243,729",
    )
    assert code == 0
    assert "envelope prime_valuation: holds" in out
    # the printed envelope at x = 3**5 is 5 itself, not 4.999999999999999
    code, out, _ = run(
        capsys, "aeps", "--seq", "ap", "--p", "3", "--eps", "1", "--limit", "1000",
        "--checkpoints", "81,243,729", "--output", "json",
    )
    rows = json.loads(out)["records"]
    assert code == 0
    assert [(r["count"], r["envelope"], r["ratio"]) for r in rows] == [
        (4, 4.0, 1.0), (5, 5.0, 1.0), (6, 6.0, 1.0)
    ]


def test_aeps_counts_csv(capsys):
    code, out, _ = run(
        capsys,
        "aeps",
        "--seq",
        "gamma",
        "--eps",
        "0.5",
        "--limit",
        "10000",
        "--checkpoints",
        "10:10000:10",
        "--output",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sequence,eps,x,count,envelope,ratio"
    counts = [line.split(",")[2:4] for line in lines[1:]]
    assert counts == [
        ["10", "3"],
        ["100", "12"],
        ["1000", "40"],
        ["10000", "124"],
    ]


def test_aeps_remark(capsys):
    code, out, _ = run(
        capsys,
        "aeps",
        "--seq",
        "omega",
        "--eps",
        "0.5",
        "--limit",
        "10000",
        "--remark",
    )
    assert code == 0
    first = out.splitlines()[2].split()
    assert first[2:] == ["1", "3", "0"]  # k=1 lands on n=3, log 1 = 0


def test_aeps_requires_p_for_ap(capsys):
    code, _, err = run(capsys, "aeps", "--seq", "ap", "--eps", "0.5")
    assert code == 2 and "prime" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("fn", "omega", "12", "--p", "4"), "error: fn omega takes no prime parameter\n"),
        (("fn", "N", "12", "--p", "3"), "error: fn N takes no prime parameter\n"),
        (
            ("aeps", "--seq", "h", "--p", "3", "--eps", "0.5", "--limit", "1000"),
            "error: sequence 'min_exponent_over_log' takes no prime parameter\n",
        ),
        (
            ("aeps", "--seq", "N", "--p", "2", "--eps", "0.5", "--limit", "1000"),
            "error: sequence 'pascal_count' takes no prime parameter\n",
        ),
    ],
    ids=["fn-omega", "fn-N", "aeps-h", "aeps-N"],
)
def test_p_refused_where_it_does_not_apply(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == message


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--checkpoints", "10,100"), "error: aeps --remark takes no --checkpoints\n"),
        (("--envelope", "auto"), "error: aeps --remark takes no --envelope\n"),
        (("--limit", "-5"), "error: aeps needs 2 <= --limit < 2**63, got -5\n"),
    ],
    ids=["checkpoints", "envelope", "limit"],
)
def test_remark_refuses_what_it_cannot_use(capsys, argv, message):
    code, out, err = run(capsys, "aeps", "--seq", "omega", "--eps", "0.5", "--remark", *argv)
    assert code == 2 and out == "" and err == message


def test_aeps_below_the_default_grid_start_reports_at_the_limit(capsys):
    code, out, err = run(
        capsys, "aeps", "--seq", "omega", "--eps", "0.5", "--limit", "500", "--output", "csv"
    )
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["omega_over_loglog,0.5,500,143,,"]


def test_aeps_refuses_a_limit_below_two(capsys):
    code, out, err = run(capsys, "aeps", "--seq", "h", "--eps", "0.5", "--limit", "-5")
    assert code == 2 and out == ""
    assert err == "error: aeps needs 2 <= --limit < 2**63, got -5\n"


def test_aeps_envelope_of_its_own_kind_prints_as_no_flag(capsys):
    argv = ("aeps", "--seq", "gamma", "--eps", "0.5", "--limit", "10000")
    plain = run(capsys, *argv)
    assert plain[0] == 0 and "envelope perfect_power: holds" in plain[1]
    for flag in ("auto", "perfect_power"):
        assert run(capsys, *argv, "--envelope", flag) == plain


@pytest.mark.parametrize("kind", ["max_exponent", "foo"])
def test_aeps_refuses_an_envelope_other_than_its_own(capsys, kind):
    argv = ("aeps", "--seq", "gamma", "--eps", "0.5", "--limit", "10000")
    assert run(capsys, *argv, "--envelope", kind) == (
        2,
        "",
        f"error: envelope {kind!r} does not bound sequence 'power_rep_count'; "
        "choose from auto, none, perfect_power\n",
    )


def test_aeps_unknown_sequence(capsys):
    code, _, err = run(capsys, "aeps", "--seq", "zeta", "--eps", "0.5")
    assert code == 2 and "unknown sequence" in err


def test_aeps_checkpoint_beyond_limit(capsys):
    code, _, err = run(
        capsys,
        "aeps",
        "--seq",
        "gamma",
        "--eps",
        "0.5",
        "--limit",
        "1000",
        "--checkpoints",
        "10:10000:10",
    )
    assert code == 2 and "exceeds" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_statement(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "IV", "--limit", "100000")
    assert code == 0
    assert out.startswith("suite: PASS")


def test_verify_vi_at_eps_3_and_4_passes(capsys):
    # VI's verdict reads the suite's checkpoints to 10**7, beyond its members
    # 120 ... 24310 at eps >= 3; VI alone runs no sieve
    code, out, _ = run(
        capsys, "verify", "--suite", "VI", "--eps", "3", "--eps", "4", "--limit", "10000000"
    )
    assert code == 0
    assert out.startswith("suite: PASS")


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "II", "--eps", "2000"),
        ("--suite", "III", "--eps", "2000"),
        ("--eps", "inf"),
    ],
    ids=["II", "III", "inf"],
)
def test_verify_passes_where_the_envelope_underflows(capsys, argv):
    code, out, err = run(capsys, "verify", *argv, "--limit", "100000")
    assert code == 0 and err == ""
    assert out.startswith("suite: PASS") and "; max ratio 0\n" in out


@pytest.mark.parametrize("checkpoints", ["5000", "5000,6000"])
def test_verify_refuses_fewer_than_three_checkpoints(capsys, checkpoints):
    code, out, err = run(
        capsys, "verify", "--limit", "100000", "--checkpoints", checkpoints
    )
    assert code == 2 and out == ""
    assert err == "error: need at least 3 checkpoints\n"


def test_verify_unknown_statement(capsys):
    code, _, err = run(capsys, "verify", "--suite", "IX", "--limit", "100000")
    assert code == 2 and "unknown statements" in err


@pytest.mark.parametrize(
    "argv, name, extra, values",
    [
        (("verify", "--suite", "IV", "--limit", "100000"), "eps", ("--eps", "0.5"), [0.5]),
        (
            ("classify", "--power", "0.25", "--ideal", "less", "--q", "0.5"),
            "delta",
            ("--delta", "0.01", "--delta", "0.02"),
            [0.01, 0.02],
        ),
    ],
    ids=["verify-eps", "classify-delta"],
)
def test_repeatable_options_do_not_leak_between_calls(capsys, argv, name, extra, values):
    # main builds its parser once per process; an `append` option given in
    # one call must not reach the next
    plain = (*argv, "--output", "json")
    given = (*plain, *extra)
    before = run(capsys, *plain)
    assert run(capsys, *given) != before
    assert run(capsys, *plain) == before
    parser = build_parser()
    assert parser is build_parser()
    assert getattr(parser.parse_args(given), name) == values
    assert getattr(parser.parse_args(plain), name) is None


# ---------------------------------------------------------------------------
# limits the program cannot serve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("aeps", "--seq", "omega", "--eps", "0.5", "--remark"),
        ("verify",),
        ("aeps", "--seq", "h", "--eps", "0.5"),
    ],
)
def test_limit_from_two_to_the_63_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--limit", str(2**63))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "2**63" in err and err.count("\n") == 1


def test_pascal_scan_beyond_its_cap_exits_2(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "aeps", "--seq", "N", "--eps", "0.5", "--limit", str(10**18))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    # the count report scans to its last checkpoint; the message names --limit
    assert err == (
        "error: Pascal count scans support --limit <= 8796107702277, "
        "got 1000000000000000000\n"
    )


def test_pascal_scan_to_ten_to_the_eleven_runs(capsys):
    code, out, _ = run(capsys, "aeps", "--seq", "N", "--eps", "0.5", "--limit", str(10**11))
    assert code == 0 and "pascal_count" in out


# one input per error class that reaches main() on the set path
@pytest.mark.parametrize(
    "argv,content,message",
    [
        (("--power", "2"), None, "power exponent must be in (0, 1], got 2"),
        (
            ("--power", "0.0007", "--terms", "3000"),
            None,
            "power(0.0007): term 2835 exceeds the long double range",
        ),
        (("--file", "{path}"), None, "No such file or directory"),
        (("--file", "{path}"), "1\n2\nthree\n", "values.txt:3: not an integer: 'three'"),
        # a byte that is not UTF-8, once a UnicodeDecodeError traceback
        (("--file", "{path}"), b"1\n2\n\xff3\n", "values.txt:3: not an integer: '\\udcff3'"),
        (
            ("--file", "{path}", "--terms", "500"),
            "".join(f"{i}\n" for i in range(1, 151)),
            "only 150 elements available, 500 requested",
        ),
    ],
    ids=[
        "InvalidArgumentError", "InvalidArgumentError-overflow", "OSError", "DataFormatError",
        "DataFormatError-not-utf8", "InsufficientDataError",
    ],
)
def test_set_path_errors_exit_2(capsys, tmp_path, argv, content, message):
    path = tmp_path / "values.txt"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    argv = [arg.format(path=path) for arg in argv]
    code, out, err = run(capsys, "lambda", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_fn_omega_at_three_billion(capsys):
    # one block at n = 3e9 sweeps the primes up to 54772, no table up to n
    t0 = time.perf_counter()
    code, out, err = run(capsys, "fn", "omega", "3000000000", "--output", "csv")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and err == "" and out == "n,value\n3000000000,3\n"


def test_fn_omega_near_the_sieve_cap(capsys):
    # one integer below 2**52 sweeps the 3.9 million primes below 2**26; as
    # Python ints they would take about 140 MB, as an int64 array 31 MB
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "fn", "omega", str(2**52 - 1), "--output", "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == "" and out == f"n,value\n{2**52 - 1},7\n"
    assert peak < 100 * 2**20


def test_fn_ap_of_a_huge_prime(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "fn", "ap", "5", "--p", str(2**61 - 1), "--output", "csv")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and err == "" and out == "n,value\n5,0\n"


# inputs that once raised a traceback or a huge allocation
@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("fn", "ap", str(2**70), "--p", "2"),
            "bulk scans need limit < 2**63, got 1180591620717411303424",
        ),
        (
            ("verify", "--suite", "I", "--eps", "0.05", "--limit", "10000"),
            "eps=0.05 puts the smooth bound e**(1/eps) above the prime sieve cap",
        ),
        (
            ("fn", "omega", str(2**62)),
            "prime sieve bound 2147483648 is above the cap 2**26 = 67108864",
        ),
        (("fn", "ap", "48", "--p", "4"), "p=4 is not prime"),
        # sequence_spec and smooth_set give iter_blocks' message
        (("aeps", "--seq", "ap", "--p", "4", "--eps", "0.5"), "p=4 is not prime"),
        (("construct", "--smooth", "2,4", "--terms", "5"), "p=4 is not prime"),
        (
            ("aeps", "--seq", "ap", "--p", str(2**89 - 1), "--eps", "0.5"),
            "primality is decided below 3317044064679887385961981 only",
        ),
        (("verify", "--eps", "nan", "--limit", "100000"), "eps grid must be positive"),
        (("aeps", "--seq", "h", "--eps", "nan"), "tolerance eps must be positive, got nan"),
        (
            ("classify", "--power", "1/2", "--ideal", "leq", "--q", "0.5", "--delta", "nan"),
            "delta must be positive, got nan",
        ),
        (
            ("verify", "--suite", "I", "--eps", "0.5", "--eps", "0.5", "--limit", "1000000"),
            "eps grid must not repeat a value, got (0.5, 0.5)",
        ),
        (
            ("fn", "omega", "1:100000000"),
            "fn ranges hold at most 1000000 values, got 100000000",
        ),
        (
            ("fn", "N", "5:1000005"),
            "fn ranges hold at most 1000000 values, got 1000001",
        ),
        # an exponent that rounds to the fraction 0 takes the float path
        (("lambda", "--power", "1e-13"), "power(1e-13): term 2 exceeds the long double range"),
        (
            ("classify", "--power", "1e-300", "--ideal", "less", "--q", "0.5"),
            "power(1e-300): term 2 exceeds the long double range",
        ),
        (
            ("construct", "--power", "1e-13", "--terms", "2"),
            "power(1e-13): term 2 exceeds the long double range",
        ),
        (
            ("construct", "--power", "1e-300", "--terms", "2"),
            "power(1e-300): term 2 exceeds the long double range",
        ),
        # a term too long for str(), exact (2**15000) or from long doubles
        (
            ("construct", "--power", "1/15000", "--terms", "2"),
            f"term 2 has more than {sys.get_int_max_str_digits()} digits",
        ),
        (
            ("construct", "--power", "0.0001", "--terms", "3"),
            f"term 3 has more than {sys.get_int_max_str_digits()} digits",
        ),
    ],
    ids=[
        "fn-ap-2**70", "verify-eps-0.05", "fn-omega-2**62", "fn-ap-p4", "aeps-ap-p4",
        "construct-smooth-4", "aeps-ap-2**89-1",
        "verify-eps-nan", "aeps-eps-nan", "classify-delta-nan", "verify-eps-repeated",
        "fn-omega-10**8-values", "fn-N-10**6+1-values",
        "lambda-power-1e-13", "classify-power-1e-300", "construct-power-1e-13",
        "construct-power-1e-300", "construct-power-1/15000", "construct-power-0.0001",
    ],
)
def test_bad_input_exits_2_at_once(capsys, argv, message):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def test_outputs_are_deterministic(capsys):
    argv = (
        "aeps", "--seq", "gamma", "--eps", "0.5", "--limit", "10000",
        "--checkpoints", "10:10000:10", "--output", "csv",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv = argv[:-1] + ("json",)
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_json_envelope_fields(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "IV",
        "--limit",
        "100000",
        "--output",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "verify"
    assert doc["passed"] is True
    assert all(isinstance(r["passed"], bool) for r in doc["records"])


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "set.txt"
    code = main(
        ["construct", "--power", "0.5", "--terms", "4", "--out", str(path)]
    )
    assert code == 0
    assert path.read_text() == "1\n4\n9\n16\n"
    capsys.readouterr()

    path = tmp_path / "report.json"
    code = main(
        [
            "aeps", "--seq", "gamma", "--eps", "0.5", "--limit", "10000",
            "--checkpoints", "10:10000:10", "--output", "json",
            "--out", str(path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert [r["count"] for r in doc["records"]] == [3, 12, 40, 124]


def test_failed_construct_leaves_out_file_alone(capsys, tmp_path):
    path = tmp_path / "set.txt"
    path.write_bytes(b"kept\n")
    argv = ["construct", "--power", "0.0007", "--terms", "3000", "--out", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "long double range" in err
    assert path.read_bytes() == b"kept\n"


def test_construct_refuses_negative_terms_before_out(capsys, tmp_path):
    path = tmp_path / "set.txt"
    path.write_bytes(b"kept\n")
    argv = ["construct", "--power", "0.5", "--terms", "-1", "--out", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: prefix length must be >= 0, got -1\n")
    assert path.read_bytes() == b"kept\n"


def test_construct_refuses_a_term_too_long_to_write_before_out(capsys, tmp_path):
    path = tmp_path / "set.txt"
    argv = ["construct", "--power", "1/15000", "--terms", "2", "--out", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "term 2 has more than" in err
    assert not path.exists()
    # the sets themselves are fine: only writing their terms is refused
    code, _, err = run(capsys, "lambda", "--power", "1/15000", "--terms", "300")
    assert code == 0 and err == ""
    code, _, err = run(capsys, "classify", "--power", "0.0001", "--ideal", "less", "--q", "0.5")
    assert code == 0 and err == ""
