"""Benchmark of idealconv: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

A run imports the package from `src/` of the checkout that holds this file,
draws the workload's inputs from the seed, and repeats whole rounds of the
workload's operations until `--seconds` have passed (at least two rounds).
It then checks every output against independent oracles and prints, as its
last line, one JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: `setup_s` (median of
fresh processes that import the package and build the inputs), `run_s`
(the time of one round; checks excluded) and `peak_rss_mb` (read before
the checks).  Both times are given at the reference speed of the machine,
see round_time; the wall times are in the info line.  With `--trace 1` the
package's entry points are wrapped (see layers.py) and the metrics are per
layer, plus `trace.run_s`, the traced round time, so the cost of tracing
shows.  The line before the result records the machine, the versions, the
source revision and the inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# one thread per process: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
# set-up is timed in fresh processes, one before each round and the rest
# after the last, so the probes are spread over the run and one slow spell
# of the machine does not set the median; at least this many
SETUP_PROBES = 7
# every operation is timed at least twice (see round_time)
MIN_ROUNDS = 2
# no round starts that would end past this, so a run ends well inside its
# time limit even when --seconds is large or the rounds are slow
ROUND_CUTOFF_S = 90.0
# The speed gauge: a fixed pure-Python loop timed before and after every
# operation, and the loop's time on an idle core of the reference machine
# (a 2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7).  See round_time.
GAUGE_LOOP = 80_000
GAUGE_REFERENCE_S = 0.0045

sys.path.insert(0, str(HERE))

from layers import METRICS as LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_package():
    """Import idealconv from this checkout's src/, never from elsewhere."""
    pkg = SRC / "idealconv"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {pkg}")
    sys.path.insert(0, str(SRC))
    import idealconv
    import idealconv.cli  # noqa: F401  (the CLI workloads call it)

    if Path(idealconv.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported idealconv from {idealconv.__file__}, not {pkg}")
    return idealconv


def source_info() -> dict:
    """The git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                commit = (git / ref).read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
        else:
            commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh process that imports the package and builds the
    workload's inputs, then exits; and that time at the reference speed, by
    the gauges taken just before and after it (see round_time)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    g0 = gauge_s()
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return wall, wall * 2 * GAUGE_REFERENCE_S / (g0 + gauge_s())


def gauge_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine runs now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(GAUGE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Round:
    op_seconds: list[float]  # wall time of each operation
    gauges: list[float]  # gauge times around the operations, one more than them
    failed: int
    outputs: list[dict]
    layers: dict | None = None

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    @property
    def op_reference_seconds(self) -> list[float]:
        """Each operation's time scaled to the reference speed by the mean of
        the gauges taken just before and just after it."""
        return [t * 2 * GAUGE_REFERENCE_S / (g0 + g1)
                for t, g0, g1 in zip(self.op_seconds, self.gauges, self.gauges[1:])]


def run_round(ops) -> Round:
    times, gauges, failed, outputs = [], [gauge_s()], 0, []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # any error is a failed operation, reported
            failed += 1
            print(f"# failed: {op.name}: {exc!r}", file=sys.stderr)
            continue
        finally:
            times.append(time.perf_counter() - t0)
            gauges.append(gauge_s())
        outputs.append(op.extract(result))
        del result
    return Round(times, gauges, failed, outputs)


def round_time(rounds: list[Round]) -> float:
    """The time of one round at the reference speed: the sum over operations
    of each operation's fastest scaled time across rounds.

    Other load on the host slows this machine, pure-Python code by up to
    1.8x, in spells from seconds to minutes, some longer than a run; the
    guest sees no steal time, so only a gauge shows them.  Scaling each
    operation by the gauge taken around it removes most of a spell, and the
    fastest repeat drops what is left of the shorter ones.  Numpy-bound code
    slows less in a spell than the gauge (1.4x where the gauge reads 1.7x),
    so in a spell its scaled time reads up to a sixth low; that is most of
    the spread that remains."""
    return sum(min(ts) for ts in zip(*(r.op_reference_seconds for r in rounds)))


def wall_round_time(rounds: list[Round]) -> float:
    """The same without the gauge: each operation's fastest wall time."""
    return sum(min(ts) for ts in zip(*(r.op_seconds for r in rounds)))


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    ic = load_package()
    inputs = wl.inputs(args.seed, WORKDIR)
    if args.setup_only:
        return 0
    WORKDIR.mkdir(exist_ok=True)
    setups: list[tuple[float, float]] = []
    tracer = Tracer() if args.trace else None
    op_names = [op.name for op in wl.ops(ic, inputs)]
    rounds: list[Round] = []
    try:
        if tracer:
            tracer.install()
        start = time.perf_counter()
        while True:
            if tracer:
                tracer.reset()
            else:
                setups.append(time_setup(args.workload, args.seed))
            rnd = run_round(wl.ops(ic, inputs))
            if tracer:
                rnd.layers = tracer.metrics()
            rounds.append(rnd)
            elapsed = time.perf_counter() - start
            if elapsed + rnd.seconds > ROUND_CUTOFF_S or (
                    elapsed >= args.seconds and len(rounds) >= MIN_ROUNDS):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer:
            tracer.uninstall()
    if not args.trace:
        setups += [time_setup(args.workload, args.seed)
                   for _ in range(SETUP_PROBES - len(setups))]
    try:
        failures = wl.check([r.outputs for r in rounds], inputs)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for msg in failures[:20]:
        print(f"# check failed: {msg}", file=sys.stderr)

    run_s = round_time(rounds)
    if tracer:
        # counts are equal in every round; median_low keeps them integers
        metrics = {
            name: {"value": (statistics.median if unit == "s" else statistics.median_low)(
                r.layers[name] for r in rounds), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
        metrics["trace.run_s"] = {"value": run_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    import numpy

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": [round(r.seconds, 4) for r in rounds],
        "wall_run_s": round(wall_round_time(rounds), 4),
        "gauge_median_s": round(statistics.median(g for r in rounds for g in r.gauges), 6),
        "op_fastest_s": {
            name: round(min(ts), 4)
            for name, ts in zip(op_names, zip(*(r.op_seconds for r in rounds)))
        },
        "setup_wall_s": [round(w, 4) for w, _ in setups],
        "inputs": {k: v for k, v in inputs.items() if k != "samples"},
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **source_info(),
        "check_failures": len(failures),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(r.op_seconds) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then a summary table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(f"{'workload':12} {'metric':36} {'value':>14} unit   attempted failed correct")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:12} {metric:36} {m['value']:14.6g} {m['unit']:6} "
                  f"{res['attempted']:9d} {res['failed']:6d} {res['correct']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
