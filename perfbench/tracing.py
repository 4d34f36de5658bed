"""Spans around the package's layer entry points, recorded from outside.

``Tracer.install`` replaces each traced public function in every module
namespace that holds it (``twinbeam.figures.cond_count_dist`` and
``twinbeam.estimation.joint_table`` are the same function reached from two
layers), so a call from one layer into another opens a span whose parent is
the caller's span.  Spans stay in memory; ``summary`` folds them into
per-layer self times (span time minus the time of child spans) and counts.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import twinbeam

MODULES = ("twinbeam", "twinbeam.core", "twinbeam.conditional", "twinbeam.nongauss",
           "twinbeam.sampling", "twinbeam.estimation", "twinbeam.serialize",
           "twinbeam.figures", "twinbeam.cli")

# span name -> (defining module, function name)
ENTRY_POINTS = {
    "core.joint_table": ("twinbeam.core", "joint_table"),
    "core.marginal_dist": ("twinbeam.core", "marginal_dist"),
    "conditional.cond_count_dist": ("twinbeam.conditional", "cond_count_dist"),
    "conditional.build_conditional": ("twinbeam.conditional", "build_conditional"),
    "nongauss.nongauss_report": ("twinbeam.nongauss", "nongauss_report"),
    "nongauss.sweep": ("twinbeam.nongauss", "sweep"),
    "sampling.sample_run": ("twinbeam.sampling", "sample_run"),
    "sampling.histogram": ("twinbeam.sampling", "histogram"),
    "estimation.estimate_params": ("twinbeam.estimation", "estimate_params"),
    "estimation.noise_reduction": ("twinbeam.estimation", "noise_reduction"),
    "estimation.fidelity": ("twinbeam.estimation", "fidelity"),
    "figures.reproduce": ("twinbeam.figures", "reproduce"),
    "cli.main": ("twinbeam.cli", "main"),
}

# The per-member kernel of set-like count distributions.  It is private, so
# the count it feeds reads 0 if a later version renames it.
MEMBER_KERNEL = ("twinbeam.conditional", "_exact_count_dist")


def _serialize_functions():
    mod = sys.modules["twinbeam.serialize"]
    for name in dir(mod):
        fn = getattr(mod, name)
        if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
            continue
        if name.startswith(("format_", "write_")):
            yield "serialize.write", name, fn
        elif name.startswith("read_"):
            yield "serialize.read", name, fn


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent])
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index][2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def _inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    # --- counts taken at the same boundaries --------------------------------

    def _after(self, name: str, fn):
        c = self.counts
        sig = inspect.signature(fn)

        def cells(result, args, kwargs):
            c["core.joint_table.cells"] += result.probs.size

        def conditional(result, args, kwargs):
            values = getattr(result, "trigger_values", None)
            if values is not None:
                c["conditional.members"] += len(values)
                c["conditional.states_built"] += len(result.states)
            else:
                c["conditional.members"] += 1

        def shots(result, args, kwargs):
            c["sampling.shots"] += len(result)

        def resamples(result, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            c["estimation.bootstrap_resamples"] += bound.arguments["n_bootstrap"]

        def files(result, args, kwargs):
            c["figures.files"] += len(result["files"]) + 1  # plus manifest.json

        return {"core.joint_table": cells, "conditional.build_conditional": conditional,
                "sampling.sample_run": shots, "estimation.estimate_params": resamples,
                "figures.reproduce": files}.get(name)

    def _serialize_after(self, kind: str, fn_name: str):
        c = self.counts

        def wrote(result, args, kwargs):
            text = args[1] if len(args) > 1 else kwargs["text"]
            c["serialize.bytes_written"] += len(text.encode())

        def read(result, args, kwargs):
            if not self._inside("serialize.read"):
                path = args[0] if args else kwargs["path"]
                c["serialize.bytes_read"] += os.path.getsize(path)

        if fn_name == "write_text":
            return wrote
        return read if kind == "serialize.read" else None

    # --- install / uninstall ----------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for name, (mod_name, fn_name) in ENTRY_POINTS.items():
            fn = getattr(sys.modules[mod_name], fn_name)
            wrappers[id(fn)] = self._span(name, fn, self._after(name, fn))
        for kind, fn_name, fn in _serialize_functions():
            wrappers[id(fn)] = self._span(kind, fn, self._serialize_after(kind, fn_name))
        for mod_name in MODULES:
            mod = sys.modules[mod_name]
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])

        mod_name, fn_name = MEMBER_KERNEL
        kernel = getattr(sys.modules[mod_name], fn_name, None)
        if kernel is not None:
            def member(*args, _kernel=kernel, **kwargs):
                # each kernel call made directly by cond_count_dist is one
                # accepted trigger value (an exact rule makes one call)
                if self.stack and self.spans[self.stack[-1]][0] == "conditional.cond_count_dist":
                    self.counts["conditional.kernel_calls"] += 1
                return _kernel(*args, **kwargs)
            self._patch(sys.modules[mod_name], fn_name, member)

        mixture = twinbeam.ConditionalMixture
        original = mixture.mean_counts

        def mean_counts(inner_self):
            self.counts["conditional.means_requested"] += 1
            return original(inner_self)
        self._patch(mixture, "mean_counts", mean_counts)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # --- summary ----------------------------------------------------------

    def summary(self, wall: float) -> dict:
        total = defaultdict(float)
        self_time = defaultdict(float)
        roots = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            self_time[name] += duration
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
            else:
                roots += duration
        c = self.counts
        out = {key + ".self_s": self_time.get(key, 0.0) for key in ENTRY_POINTS}
        out["serialize.write_s"] = self_time.get("serialize.write", 0.0)
        out["serialize.read_s"] = self_time.get("serialize.read", 0.0)
        out["core.joint_table.cells"] = c["core.joint_table.cells"]
        out["conditional.members"] = c["conditional.members"] + c["conditional.kernel_calls"]
        out["conditional.states_built"] = c["conditional.states_built"]
        out["conditional.means_requested"] = c["conditional.means_requested"]
        out["sampling.shots"] = c["sampling.shots"]
        out["sampling.sample_run_s"] = total.get("sampling.sample_run", 0.0)
        for key in ("estimation.bootstrap_resamples", "serialize.bytes_written",
                    "serialize.bytes_read", "figures.files"):
            out[key] = c[key]
        out["trace.wall_s"] = wall
        out["trace.harness_s"] = wall - roots
        out["trace.spans"] = len(self.spans)
        return out
