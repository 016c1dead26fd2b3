"""CLI output and the suite's check rows, pinned byte for byte against golden files.

Each file under tests/golden/ is the stdout of `idealconv` for one argument
list in GOLDEN, or the text that a function in GOLDEN returns.  The verify
and aeps files were written at commit 7a92f98, the lambda, construct and
classify files at commit 4330b07, the files
at --limit 1000000, which span several sieve blocks, at commit bfba96a, and
the fn files, written from the smallest-prime-factor table that `fn` then
read, at commit 20cb003, the files at --limit 4000000 and near 10**9,
written from the per-prime sieve sweep, at commit 29867fe, and the
`verify --suite I` file, written from the per-bound smooth products, at
commit 4690f5d, and the two classify files at q = 0.5 and 0.25, written from
the `DecayPolicy` dataclass, at commit ad92edc, and the `verify --suite VI`
file at eps 3 and 4, written from VI's verdict on the suite's checkpoints,
at commit 27dc90d.  `suite_rows_1e5.json` holds the suite's records at
10**5 with the rows of each check.  It, `verify.json` and `verify_1e6.json`
were last written, from the tallies fed block masks and without the VII/VIII
decade peak step, at commit 3944999.  `lambda_file_power_2_3.json` was
written at commit bec1a45, from the text-mode file parse that the bytes
parse replaced.  `construct_power_1_7.txt` was written at commit 17d6361,
from the buffer of Python ints that the int64 buffer replaced.  Each file is
written with

    PYTHONPATH=src python tests/test_golden.py [NAME...]

which rewrites the named files, or all of them when none is named, from the
source tree on the path.  A change that moves any byte of csv or json output
fails here; regenerate only when the output is meant to change, and say why
in CHANGES.md.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from idealconv import statement_suite
from idealconv.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_AEPS = ("aeps", "--eps", "0.5", "--limit", "100000", "--output", "json")
_SEQS = ("h", "H", "gamma", "tau", "N", "omega", "bigomega", "logf", "logfstar")
_AEPS_1E6 = ("aeps", "--eps", "0.5", "--limit", "1000000", "--output", "json")
_AEPS_4E6 = ("aeps", "--eps", "0.5", "--limit", "4000000", "--output", "json")
_FNS = ("omega", "bigomega", "h", "H", "ap", "d", "logf", "logfstar", "gamma", "tau", "N")


def _fn(name: str, n: str, output: str, p: str = "2") -> tuple[str, ...]:
    """`fn` argv; gamma, tau and N are undefined at n = 1, so start at 2."""
    if n.startswith("1:") and name in ("gamma", "tau", "N"):
        n = "2" + n[1:]
    return ("fn", name, n, *(("--p", p) if name == "ap" else ()), "--output", output)


def _suite_rows_1e5() -> str:
    """The suite's records at 10**5 with each check's rows, which neither
    `verify` output nor any other golden shows."""
    records = statement_suite(10**5).to_records(include_rows=True)
    return json.dumps(records, indent=1) + "\n"


def _lambda_file_2_3() -> str:
    """`lambda --file` on the file that `construct --power 2/3 --terms 2000`
    writes, named by a relative path so that the set label is the same in
    every directory."""
    name = "power_2_3.txt"
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _stdout(("construct", "--power", "2/3", "--terms", "2000", "--out", name))
            return _stdout(("lambda", "--file", name, "--output", "json"))
        finally:
            os.chdir(cwd)


# file name -> argv, or a function that returns the file's text
GOLDEN = {
    "suite_rows_1e5.json": _suite_rows_1e5,
    "verify.json": ("verify", "--limit", "100000", "--output", "json"),
    **{f"aeps_{s}.json": (*_AEPS, "--seq", s) for s in _SEQS},
    **{f"aeps_{s}_remark.json": (*_AEPS, "--seq", s, "--remark") for s in _SEQS},
    "verify_1e6.json": ("verify", "--limit", "1000000", "--output", "json"),
    "aeps_gamma_1e6.json": (*_AEPS_1E6, "--seq", "gamma"),
    "aeps_omega_remark_1e6.json": (*_AEPS_1E6, "--seq", "omega", "--remark"),
    # to 4*10**6 the sieve sweeps primes up to 2000, on both sides of
    # bulk.T, across 31 blocks
    "aeps_h_4e6.json": (*_AEPS_4E6, "--seq", "h"),
    "aeps_omega_remark_4e6.json": (*_AEPS_4E6, "--seq", "omega", "--remark"),
    # statement I's smooth bounds at these eps are 22013, above sqrt(10**6),
    # 353, between bulk.T and the sqrt of every block's end, and 139, below
    # bulk.T; the ideal fit at 0.17 is indeterminate, so verify exits 1
    "verify_I_smooth_1e6.json": (
        "verify", "--suite", "I", "--eps", "0.1", "--eps", "0.17", "--eps", "0.2",
        "--limit", "1000000", "--output", "json",
    ),
    # statement VI's members at eps >= 3 end at 24310 below 10**7; its
    # verdict reads the suite's checkpoints to the limit
    "verify_VI_eps3_4_1e7.json": (
        "verify", "--suite", "VI", "--eps", "3", "--eps", "4",
        "--limit", "10000000", "--output", "json",
    ),
    "aeps_ap_p3.csv": ("aeps", "--seq", "ap", "--p", "3", "--eps", "0.5", "--output", "csv"),
    "lambda_power_3_4.json": ("lambda", "--power", "3/4", "--terms", "100000", "--output", "json"),
    "lambda_power_0.25.json": ("lambda", "--power", "0.25", "--terms", "100000", "--output", "json"),
    "lambda_power_0.7071.json": (
        "lambda", "--power", "0.7071", "--terms", "20000", "--output", "json",
    ),
    "lambda_logpower_0.3.json": (
        "lambda", "--logpower", "0.3", "--terms", "50000", "--output", "json",
    ),
    "lambda_smooth_2_3_5.json": (
        "lambda", "--smooth", "2,3,5", "--terms", "20000", "--output", "json",
    ),
    # the byte parse of a set file, read back from `construct`
    "lambda_file_power_2_3.json": _lambda_file_2_3,
    "construct_power_2_3.txt": ("construct", "--power", "2/3", "--terms", "5000"),
    # term 512 is 512**7 = 2**63 exactly, so the first chunk of 1/7 crosses
    # the int64 limit at that value: the terms below it fit in int64, the
    # rest do not
    "construct_power_1_7.txt": ("construct", "--power", "1/7", "--terms", "1000"),
    "classify_power_1_2_leq.json": (
        "classify", "--power", "1/2", "--ideal", "leq", "--q", "0.5", "--output", "json",
    ),
    "classify_smooth_2_3_less.csv": (
        "classify", "--smooth", "2,3", "--ideal", "less", "--q", "0.25", "--output", "csv",
    ),
    # a below-q verdict's delta_used and policy fields, and the table's
    # policy head line
    "classify_smooth_2_3_less_0.5.json": (
        "classify", "--smooth", "2,3", "--ideal", "less", "--q", "0.5", "--output", "json",
    ),
    "classify_power_1_2_leq_0.25.txt": (
        "classify", "--power", "1/2", "--ideal", "leq", "--q", "0.25",
    ),
    # every fn name in every format; the csv windows hold 2**17 = 131072, a
    # 17th power.  `fn` starts its sieve block at the window's start, so they
    # cross no block edge: tests/test_bulk.py checks the block edges
    **{f"fn_{f}.txt": _fn(f, "1:64", "table") for f in _FNS},
    **{f"fn_{f}.json": _fn(f, "1:300", "json") for f in _FNS},
    **{f"fn_{f}_block_edge.csv": _fn(f, "131060:131080", "csv", p="3") for f in _FNS},
    # near 10**9 the sieve sweeps the primes to 31622; 1000079360 = 7630 * 2**17
    "fn_omega_1e9.txt": _fn("omega", "1000079300:1000079420", "table"),
    "fn_omega_1e9.csv": _fn("omega", "1000079300:1000079420", "csv"),
    # 2**20 has 6 representations a**b, of weight 42
    "fn_gamma_2_20.csv": _fn("gamma", "1048560:1048590", "csv"),
    "fn_tau_2_20.json": _fn("tau", "1048560:1048590", "json"),
    # C(104, 39) = C(103, 40), far above 2**63
    "fn_N_singmaster.csv": _fn("N", "61218182743304701891431482520", "csv"),
}


def _stdout(argv) -> str:
    if callable(argv):
        return argv()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(list(argv))
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name):
    want = (GOLDEN_DIR / name).read_bytes()
    assert _stdout(GOLDEN[name]).encode() == want


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or GOLDEN:
        (GOLDEN_DIR / name).write_bytes(_stdout(GOLDEN[name]).encode())
