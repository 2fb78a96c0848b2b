"""Spans around calls into cvqec's modules, recorded from outside the package.

A ``Tracer`` replaces each traced function at every place the package binds
it: the defining module, every module that imported it by name (``from .code
import run_rounds``), the package namespace, and module-level tables such as
``cli._RUNNERS`` and ``acceptance.CRITERIA``.  Methods are wrapped on their
class.  After installing, the tracer walks the package again and refuses to
run if any reference to an unwrapped original is left, so a binding it cannot
reach fails loudly instead of reporting zero time.

Each span adds its wall time to its function's ``total_s`` and to its
parent's child time; ``self_s`` is ``total_s`` minus the time covered by child
spans.  The benchmark runs one thread (``CVQEC_THREADS=1``), so one stack of
open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import Counter

def _run_rounds_counts(stat: Counter, outcome) -> None:
    summary = outcome.summary
    n = summary.n_rounds
    stat["rounds"] += n
    stat["samples"] += n * summary.window
    stat["reruns"] += round(summary.fourier_rate * n)
    stat["matched"] += round(summary.accuracy * n)


def _draw_counts(stat: Counter, series) -> None:
    stat["samples"] += len(series)


# (span name, module, attribute; "Class.method" wraps the method on its class,
# optional hook adding counts taken from the return value)
COUNTING_TARGETS = (("code.run_rounds", "code", "run_rounds", _run_rounds_counts),)

TRACED_TARGETS = COUNTING_TARGETS + (
    ("code.PipelineMaps", "code", "PipelineMaps.__init__", None),
    ("code.closed_form_output", "code", "closed_form_output", None),
    ("code.summarize_reports", "code", "summarize_reports", None),
    ("code.encode", "code", "encode", None),
    ("code.decode", "code", "decode", None),
    ("code.syndrome_trace", "code", "syndrome_trace", None),
    ("network.encoder_matrix", "network", "encoder_matrix", None),
    ("network.inverse", "network", "inverse", None),
    ("network.lift_to_symplectic", "network", "lift_to_symplectic", None),
    ("exact.mode_forms_apply_matrix", "exact", "mode_forms_apply_matrix", None),
    ("gaussian.fidelity_from_moments", "gaussian", "fidelity_from_moments", None),
    ("errors.ErrorLaw.draw", "errors", "ErrorLaw.draw", _draw_counts),
    ("witness.combination_value", "witness", "combination_value", None),
    ("witness.optimize_gains", "witness", "optimize_gains", None),
    ("witness.evaluate_witness", "witness", "evaluate_witness", None),
    ("cli.run_chunked_rounds", "cli", "run_chunked_rounds", None),
    ("cli.run_table2", "cli", "run_table2", None),
    ("cli.run_mc_sweep", "cli", "run_mc_sweep", None),
    ("cli.run_tableC1", "cli", "run_tableC1", None),
    ("cli.run_witness", "cli", "run_witness", None),
    ("cli.run_syndrome_demo", "cli", "run_syndrome_demo", None),
)

_CRITERION = re.compile(r"criterion_(\d+)_\w+")


def criterion_targets() -> tuple:
    """One target per ``acceptance.criterion_<n>_*`` function."""
    acceptance = importlib.import_module("cvqec.acceptance")
    return tuple((f"acceptance.criterion_{m.group(1)}", "acceptance", name, None)
                 for name in sorted(vars(acceptance))
                 if (m := _CRITERION.fullmatch(name)))


class MissedBinding(RuntimeError):
    """A traced function is still reachable without its span."""


class Tracer:
    """Installs spans on ``targets`` and aggregates them per iteration."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.stats: dict[str, Counter] = {}
        self._stack: list[list[float]] = []
        self._undo: list = []

    def take(self) -> dict[str, Counter]:
        """Returns the statistics gathered since the last call and resets them."""
        stats, self.stats = self.stats, {}
        return stats

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            tracer._stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                stat = tracer.stats.setdefault(name, Counter())
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - child[0]
            if hook is not None:
                hook(stat, result)
            return result

        return span

    def _set(self, setter, container, key, value, original) -> None:
        setter(container, key, value)
        self._undo.append((setter, container, key, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        importlib.import_module("cvqec.acceptance")     # loads every other module
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cvqec" or name.startswith("cvqec.")]
        wrappers = {}
        for name, module, attr, hook in self.targets:
            owner = importlib.import_module(f"cvqec.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._set(setattr, cls, method, self._wrap(name, original, hook), original)
            else:
                original = getattr(owner, attr)
                wrappers[id(original)] = (original, self._wrap(name, original, hook))
        for module in modules:
            self._rebind(module, wrappers)
        originals = {id(o) for o, _ in wrappers.values()}
        spans = {id(w) for _, w in wrappers.values()}
        left = [where for module in modules
                for where in _references(module, originals, spans)]
        if left:
            self.uninstall()
            raise MissedBinding("traced functions still reachable without a span: "
                                + ", ".join(left))

    def _rebind(self, module, wrappers) -> None:
        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for key, value in list(vars(module).items()):
            if (new := swap(value)) is not None:
                self._set(setattr, module, key, new, value)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if (new := swap(v)) is not None:
                        self._set(dict.__setitem__, value, k, new, v)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, tuple) and any(swap(v) for v in item):
                        new = tuple(swap(v) or v for v in item)
                        self._set(list.__setitem__, value, i, new, item)
                    elif (new := swap(item)) is not None:
                        self._set(list.__setitem__, value, i, new, item)

    def uninstall(self) -> None:
        while self._undo:
            setter, container, key, original = self._undo.pop()
            setter(container, key, original)
        self._stack.clear()


def _references(module, originals: set[int], spans: set[int]):
    """Yields where ``module`` still reaches one of ``originals`` other than
    through the ``spans`` that wrap them."""

    def walk(value, where, depth):
        if id(value) in originals:
            yield where
            return
        if depth == 0 or id(value) in spans:
            return
        if isinstance(value, dict):
            items = value.items()
        elif isinstance(value, (list, tuple, set, frozenset)):
            items = enumerate(value)
        elif isinstance(value, functools.partial):
            items = enumerate((value.func,) + value.args)
        elif callable(value) and hasattr(value, "__code__"):
            cells = []
            for cell in value.__closure__ or ():
                try:
                    cells.append(cell.cell_contents)
                except ValueError:      # a cell not yet filled
                    pass
            items = enumerate(list(value.__defaults__ or ())
                              + list((value.__kwdefaults__ or {}).values()) + cells)
        elif isinstance(value, type) and value.__module__ == module.__name__:
            items = vars(value).items()
        else:
            return
        for key, item in items:
            yield from walk(item, f"{where}[{key!r}]", depth - 1)

    for key, value in vars(module).items():
        yield from walk(value, f"{module.__name__}.{key}", 3)
