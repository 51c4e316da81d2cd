"""Per-layer spans around the public functions of the qnt modules.

:meth:`Tracer.install` replaces every public function of the layer modules
with a wrapper -- in the module that defines it and in every layer module
that re-binds it through ``from .x import name``, and in the public dict
tables that captured it at import time, such as ``experiments.DRIVERS``
-- and :meth:`Tracer.uninstall` puts the originals back.  The program itself is
not changed.

A span has a name, start, end, parent span and operation id, and is kept
in memory until :meth:`Tracer.write` at the end of the run.  Its self time
is its duration minus the time its children cover.  Functions called
10^4-10^5 times per operation (all of ``pauli``, and FOLDED) are not kept
as spans: their calls and self time are folded into per-operation
counters, so that holding the trace does not dominate the process.

Every layer runs in the caller's thread and none has a queue, so no layer
waits on another and no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
from pathlib import Path
from time import perf_counter

PACKAGE = "qnt"
LAYERS = ("cli", "experiments", "protocols", "stats", "network", "topo_io", "pauli", "lossy")
FOLDED = frozenset({"network.natural_key", "network.monitor_chain", "lossy.decohere"})


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end, child time)
        self.folded: list[dict] = []  # per operation: name -> [calls, self time]
        self.decohere_dt: list[set] = []  # per operation: distinct storage intervals
        self.loss_counts: list[tuple[int, int]] = []  # (merged, received) per lossy run
        self.op = -1
        self._stack: list[list] = []  # open calls: [span id, time covered by children]
        self._ids = itertools.count()
        self._undo: list = []  # calls that put the originals back

    def begin_op(self) -> None:
        self.op = len(self.folded)
        self.folded.append({})
        self.decohere_dt.append(set())

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner, _, layer = obj.__module__.rpartition(".")
                if owner != PACKAGE or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    name = f"{layer}.{obj.__name__}"
                    make = self._folded if layer == "pauli" or name in FOLDED else self._span
                    wrappers[id(obj)] = make(obj, name)
                self._undo.append(functools.partial(setattr, module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        # Tables that captured functions at import time, such as experiments.DRIVERS.
        for module in self.modules:
            for attr, table in vars(module).items():
                if attr.startswith("_") or not isinstance(table, dict):
                    continue
                for key, obj in list(table.items()):
                    if id(obj) in wrappers:
                        self._undo.append(functools.partial(table.__setitem__, key, obj))
                        table[key] = wrappers[id(obj)]

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def _span(self, fn, name):
        stack, spans, ids = self._stack, self.spans, self._ids
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((self.op, frame[0], parent, name, start, end, frame[1]))
            if observe:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _folded(self, fn, name):
        stack = self._stack
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [stack[-1][0] if stack else -1, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                counts = self.folded[-1].get(name)
                if counts is None:
                    counts = self.folded[-1][name] = [0, 0.0]
                counts[0] += 1
                counts[1] += elapsed - frame[1]
            if observe:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def totals(self) -> dict[str, list]:
        """Function name -> [calls, self time in s], spans and folded counters together."""
        out: dict[str, list] = {}
        for _, _, _, name, start, end, child in self.spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child
        for per_op in self.folded:
            for name, (calls, self_s) in per_op.items():
                entry = out.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        return out

    def write(self, path: Path) -> None:
        """Spans, then folded counters, as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\top\tid\tparent\tname\tstart_s\tend_s\tself_s\n")
            for op, sid, parent, name, start, end, child in self.spans:
                out.write(f"span\t{op}\t{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t"
                          f"{end - start - child:.9f}\n")
            out.write("folded\top\tname\tcalls\tself_s\n")
            for op, per_op in enumerate(self.folded):
                for name, (calls, self_s) in sorted(per_op.items()):
                    out.write(f"folded\t{op}\t{name}\t{calls}\t{self_s:.9f}\n")


def _observe_decohere(tracer: Tracer, args, kwargs, result) -> None:
    tracer.decohere_dt[-1].add(args[1] if len(args) > 1 else kwargs["dt_s"])


def _observe_loss(tracer: Tracer, args, kwargs, result) -> None:
    tracer.loss_counts.append((result.merged_count, result.received_count))


_OBSERVERS = {"lossy.decohere": _observe_decohere, "lossy.run_loss_experiment": _observe_loss}
