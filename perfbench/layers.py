"""Per-layer spans around the package's public entry points.

`Tracer.install` replaces functions of idealconv, wherever a module of the
package binds them, with wrappers that time each call; nothing in the
package changes on disk.  A span's self time is its duration minus the
spans it caused, so each layer's share of a run can be read off.

Layers and what is wrapped:

  bulk         iter_blocks: each next() is a span; blocks and integers swept
  convergence  count_report and remark_limsup (self time), sequence_values
  arith        pascal_count (calls counted, not timed)
  suite        statement_suite (self time), _statement_vi_checks
  exponent     classify_leq / classify_less, estimate_lambda (self time)
  sets         IntegerSet.prefix / count, from_file; elements buffered
  cli          main (self time: parsing and rendering)
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict

# metric name -> unit, in report order
METRICS = {
    "bulk.iter_blocks.busy_s": "s",
    "bulk.iter_blocks.blocks": "count",
    "bulk.iter_blocks.integers": "count",
    "convergence.sequence_values.busy_s": "s",
    "convergence.sequence_values.calls": "count",
    "convergence.self_s": "s",
    "arith.pascal_count.calls": "count",
    "suite.vi_checks.busy_s": "s",
    "suite.self_s": "s",
    "exponent.classify.busy_s": "s",
    "exponent.classify.calls": "count",
    "exponent.estimate_lambda.self_s": "s",
    "sets.generate.busy_s": "s",
    "sets.elements": "count",
    "sets.from_file.busy_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self._sets: weakref.WeakSet = weakref.WeakSet()
        self.reset()

    def reset(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.child: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[float] = []  # child time of each open span

    # -- spans --------------------------------------------------------------

    def _begin(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _end(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        self.child[name] += self._stack.pop()
        self.busy[name] += dt
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dt

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(name, t0)

        return wrapper

    def _blocks(self, fn):
        """iter_blocks: time every step of the generator, count what it yields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = self._begin()
                try:
                    stats = next(it)
                except StopIteration:
                    return
                finally:
                    self._end("bulk.iter_blocks", t0)
                self.counts["bulk.blocks"] += 1
                self.counts["bulk.integers"] += stats.hi - stats.lo
                yield stats

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generate(self, fn):
        """IntegerSet.prefix / count: a span, plus the elements it buffered
        in this set and in the sets it draws from."""
        span = self._span("sets.generate", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = sum(len(s._buf) for s in self._sets)
            try:
                return span(*args, **kwargs)
            finally:
                self.counts["sets.elements"] += sum(len(s._buf) for s in self._sets) - before

        return wrapper

    def _register(self, fn):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            self._sets.add(obj)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, wrap) -> None:
        """Replace owner.attr, and every other binding of the same function
        in the package's modules, by wrap(original)."""
        orig = getattr(owner, attr)
        new = wrap(orig)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [
                (mod, name)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "idealconv" or mod_name.startswith("idealconv.")
                for name, value in list(vars(mod).items())
                if value is orig
            ]
        for mod, name in sites:
            setattr(mod, name, new)
            self._undo.append((mod, name, orig))

    def install(self) -> None:
        from idealconv import arith, bulk, cli, convergence, exponent, sets, suite

        self._patch(bulk, "iter_blocks", self._blocks)
        self._patch(convergence, "sequence_values",
                    functools.partial(self._span, "convergence.sequence_values"))
        for fn in ("count_report", "remark_limsup"):
            self._patch(convergence, fn, functools.partial(self._span, "convergence.report"))
        self._patch(arith, "pascal_count",
                    functools.partial(self._counted, "arith.pascal_count"))
        self._patch(suite, "statement_suite",
                    functools.partial(self._span, "suite.statement_suite"))
        self._patch(suite, "_statement_vi_checks",
                    functools.partial(self._span, "suite.vi_checks"))
        for fn in ("classify_leq", "classify_less"):
            self._patch(exponent, fn, functools.partial(self._span, "exponent.classify"))
        self._patch(exponent, "estimate_lambda",
                    functools.partial(self._span, "exponent.estimate_lambda"))
        self._patch(sets.IntegerSet, "__init__", self._register)
        for fn in ("prefix", "count"):
            self._patch(sets.IntegerSet, fn, self._generate)
        self._patch(sets, "from_file", functools.partial(self._span, "sets.from_file"))
        self._patch(cli, "main", functools.partial(self._span, "cli.main"))

    def uninstall(self) -> None:
        while self._undo:
            mod, name, orig = self._undo.pop()
            setattr(mod, name, orig)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float | int]:
        def self_time(name: str) -> float:
            return self.busy[name] - self.child[name]

        return {
            "bulk.iter_blocks.busy_s": self.busy["bulk.iter_blocks"],
            "bulk.iter_blocks.blocks": self.counts["bulk.blocks"],
            "bulk.iter_blocks.integers": self.counts["bulk.integers"],
            "convergence.sequence_values.busy_s": self.busy["convergence.sequence_values"],
            "convergence.sequence_values.calls": self.calls["convergence.sequence_values"],
            "convergence.self_s": self_time("convergence.report"),
            "arith.pascal_count.calls": self.counts["arith.pascal_count"],
            "suite.vi_checks.busy_s": self.busy["suite.vi_checks"],
            "suite.self_s": self_time("suite.statement_suite"),
            "exponent.classify.busy_s": self.busy["exponent.classify"],
            "exponent.classify.calls": self.calls["exponent.classify"],
            "exponent.estimate_lambda.self_s": self_time("exponent.estimate_lambda"),
            "sets.generate.busy_s": self.busy["sets.generate"],
            "sets.elements": self.counts["sets.elements"],
            "sets.from_file.busy_s": self.busy["sets.from_file"],
            "cli.self_s": self_time("cli.main"),
        }
