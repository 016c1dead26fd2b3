"""The benchmark's layer tracer against the package's current names.

perfbench/layers.py wraps package functions by name.  A renamed or removed
function makes `Tracer.install` raise, and a call path that bypasses a
wrapped binding leaves its counter at zero; either fails here, in the test
run, instead of in a benchmark run.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import idealconv as ic
import idealconv.cli  # noqa: F401  (binds ic.cli)

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    # loaded by path, so perfbench's modules never shadow the test oracles
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name bound in the package's modules, and IntegerSet's attributes."""
    found = {
        (mod_name, name): value
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "idealconv" or mod_name.startswith("idealconv.")
        for name, value in vars(mod).items()
    }
    found.update({("IntegerSet", k): v for k, v in vars(ic.IntegerSet).items()})
    return found


def test_tracer_counts_the_scan_layers_and_uninstalls():
    tracer = _load_layers().Tracer()
    before = _bindings()
    try:
        tracer.install()  # inside the try: a failed install undoes what it did
        # looked up at call time, as the benchmark does, so the wrappers run
        ic.statement_suite(10**5, pascal_check_limit=1000)
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["aeps", "--seq", "ap", "--p", "3", "--eps", "0.5", "--limit", "100000"]
            assert ic.cli.main(argv) == 0
            # the suite counts on arrays; `fn N` is the per-n Pascal count
            assert ic.cli.main(["fn", "N", "2:200"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["bulk.iter_blocks.blocks"] > 0
    assert metrics["convergence.sequence_values.calls"] > 0
    assert metrics["arith.pascal_count.calls"] > 0
    assert tracer.calls["convergence.report"] > 0
    assert tracer.calls["suite.statement_suite"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_counts_the_lambda_layers_and_uninstalls(tmp_path):
    tracer = _load_layers().Tracer()
    path = tmp_path / "squares.txt"
    path.write_text("".join(f"{n * n}\n" for n in range(1, 2001)))
    before = _bindings()
    try:
        tracer.install()
        # through the package's attributes, as the benchmark calls them
        ic.classify_leq(ic.power_set(0.5), 0.5)
        ic.classify_less(ic.power_set(0.5), 0.75)
        ic.estimate_lambda(ic.power_set(0.25), 1000)
        ic.estimate_lambda(ic.from_file(str(path)), 1000)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert tracer.calls["exponent.classify"] == 2
    assert tracer.calls["exponent.estimate_lambda"] == 2
    assert metrics["exponent.estimate_lambda.self_s"] > 0
    assert metrics["sets.from_file.busy_s"] > 0
    assert metrics["sets.elements"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
