"""Span recorder for the traced run.

Each traced function is wrapped from outside the package: the wrapper
replaces the module attribute that callers look up, in the defining
module and in every acansim namespace that imported the function by name
(``bench`` imports ``run_neuron``, ``baseline`` imports ``propagate``).
Methods are replaced on their class.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _steps(args, kwargs, result) -> int:
    return int(kwargs["n"] if "n" in kwargs else args[3])


def _plan_cycles(args, kwargs, result) -> int:
    return len(kwargs["cycles"] if "cycles" in kwargs else args[1])


def _run_cycles(args, kwargs, result) -> int:
    return int(result.ledger_full.n_cycles)


def _baseline_cycles(args, kwargs, result) -> int:
    return int(result.ledger.n_cycles)


# span name -> (defining module, attribute, work counter, reported fields).
# A work counter returns the span's exact work count, reported under the
# field name it is paired with ("steps" or "cycles").
SPANS: dict[str, tuple[str, str, tuple[str, object] | None, tuple[str, ...]]] = {
    "engine.build_phase_system": ("acansim.engine", "build_phase_system", None, ("calls", "s")),
    "engine.step_maps": ("acansim.engine", "step_maps", None, ("calls", "s")),
    "engine.propagate": ("acansim.engine", "propagate", ("steps", _steps), ("calls", "steps", "s")),
    "engine.simulate": ("acansim.engine", "simulate", ("cycles", _plan_cycles),
                        ("calls", "cycles", "s", "self_s")),
    "engine.Trace.to_csv": ("acansim.engine", "Trace.to_csv", None, ("s",)),
    "neuron.make_schedule": ("acansim.neuron", "make_schedule", None, ("calls", "s")),
    "neuron.dlcc_decide": ("acansim.neuron", "dlcc_decide", None, ("calls", "s")),
    "neuron.run_neuron": ("acansim.neuron", "run_neuron", ("cycles", _run_cycles),
                          ("calls", "cycles", "s", "self_s")),
    "model.NeuronSpec.fires": ("acansim.model", "NeuronSpec.fires", None, ("calls", "s")),
    "model.tune_inductor": ("acansim.model", "tune_inductor", None, ("calls", "s")),
    "model.sweep_lock_frequency": ("acansim.model", "sweep_lock_frequency", None, ("calls", "s")),
    "baseline.run_baseline": ("acansim.baseline", "run_baseline", ("cycles", _baseline_cycles),
                              ("calls", "cycles", "s", "self_s")),
    "baseline.propagate": ("acansim.baseline", "propagate", ("steps", _steps), ("calls", "steps", "s")),
    "bench.optimize_frequency": ("acansim.bench", "optimize_frequency", None, ("calls", "s")),
    "bench.worst_window_mean": ("acansim.bench", "worst_window_mean", None, ("calls", "s")),
    "cli.dispatch": ("acansim.cli", "dispatch", None, ("s",)),
    "cli.emit_outputs": ("acansim.cli", "emit_outputs", None, ("s",)),
}


class Tracer:
    """Records one span per call of every function in ``SPANS``.

    A span is ``[name, start, end, parent, study, point, count, error]``;
    ``parent`` is the index of the enclosing span or -1.  The harness sets
    ``study`` and ``point`` so that spans of one study point share ids.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.study = -1
        self.point = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, _, _, _ in SPANS.values():
            try:
                importlib.import_module(mod_name)
            except ImportError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "acansim" or name.startswith("acansim."))]
        claimed = {(mod, attr) for mod, attr, _, _ in SPANS.values()}
        for name, (mod_name, attr, counter, _) in SPANS.items():
            mod = sys.modules.get(mod_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, leaf, None) if owner is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, orig, counter[1] if counter else None)
            if owner_name:
                self._patch(owner, leaf, wrapped)
                continue
            for m in modules:
                if m.__dict__.get(leaf) is orig and (m is mod or (m.__name__, leaf) not in claimed):
                    self._patch(m, leaf, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, rec.study, rec.point, 0, ""]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[7] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def totals(self) -> dict[int, dict[str, list]]:
        """Per study and span name: [calls, work count, inclusive s, self s].

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[3] >= 0:
                child[sp[3]] += sp[2] - sp[1]
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0, 0.0, 0.0]))
        for i, (name, t0, t1, _, study, _, count, _) in enumerate(self.spans):
            agg = out[study][name]
            agg[0] += 1
            agg[1] += count
            agg[2] += t1 - t0
            agg[3] += t1 - t0 - child[i]
        return out

    def write(self, path, header: str) -> None:
        """Write every span as one CSV row, after a ``# meta`` header line."""
        with open(path, "w") as fh:
            fh.write(f"# {header}\n")
            fh.write("study,point,name,start_s,end_s,parent,count,error\n")
            for name, t0, t1, parent, study, point, count, err in self.spans:
                fh.write(f"{study},{point},{name},{t0!r},{t1!r},{parent},{count},{err}\n")
