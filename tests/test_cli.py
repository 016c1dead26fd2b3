"""End-to-end checks of the command-line interface via main(argv)."""

import json
import time
import tracemalloc
from fractions import Fraction

import pytest

from idealconv.cli import main

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


# ---------------------------------------------------------------------------
# aeps
# ---------------------------------------------------------------------------


def test_aeps_counts(capsys):
    code, out, _ = run(
        capsys, "aeps", "--seq", "gamma", "--eps", "0.5", "--limit", "10000"
    )
    assert code == 0
    assert "envelope perfect_power: holds" in out


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


def test_verify_unknown_statement(capsys):
    code, _, err = run(capsys, "verify", "--suite", "IX", "--limit", "100000")
    assert code == 2 and "unknown statements" in err


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
        (
            ("--file", "{path}", "--terms", "500"),
            "".join(f"{i}\n" for i in range(1, 151)),
            "only 150 elements available, 500 requested",
        ),
    ],
    ids=["InvalidArgumentError", "InvalidArgumentError-overflow", "OSError", "DataFormatError", "InsufficientDataError"],
)
def test_set_path_errors_exit_2(capsys, tmp_path, argv, content, message):
    path = tmp_path / "values.txt"
    if content is not None:
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
    ],
    ids=[
        "fn-ap-2**70", "verify-eps-0.05", "fn-omega-2**62", "fn-ap-p4", "aeps-ap-2**89-1",
        "verify-eps-nan", "aeps-eps-nan", "classify-delta-nan",
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
