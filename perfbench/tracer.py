"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function in every ``asyncmc`` module
namespace that binds it (``random_schedule`` lives in both ``schedules`` and
``measure_sim``, ``kernel_step`` in both ``kernels`` and ``shmem``), and wraps
``sample``/``logpdf`` of every proposal class in ``kernels``.  Nothing in the
library changes; ``uninstall`` puts the original objects back.

Coarse calls (once per run or per campaign instance) keep one span each:
name, start, end and parent span.  Per-event calls (10^4-10^6 per run) only
add to an in-memory aggregate of count, total time and self time.  Self time
is a span's duration minus the time its traced children took.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, function, keep one span per call)
TRACED = (
    ("cli", "run_experiment", True),
    ("schedules", "random_schedule", True),
    ("schedules", "validate", True),
    ("schedules", "schedule_to_jsonl", True),
    ("measure_sim", "propagate", True),
    ("measure_sim", "verify_theorem4", True),
    ("measures", "apply_operator", False),
    ("measures", "tv_distance", False),
    ("measures", "stationary_distribution", True),
    ("kernels", "kernel_step", False),
    ("kernels", "render_matrix", True),
    ("shmem", "replay", True),
    ("pserver", "run_pserver", True),
    ("pserver", "server_receive", False),
    ("diagnostics", "moments", True),
)
PROPOSAL_SPAN = "kernels.proposal"
PROPOSAL_METHODS = ("sample", "logpdf")
KEEP_RESULT = {"pserver.run_pserver"}


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [span id, child seconds]
        self.spans = []  # (id, name, start, end, parent id) of coarse calls
        self.agg = {}  # name -> [calls, total seconds, self seconds]
        self.results = {}  # name -> last return value, for names in KEEP_RESULT
        self._next_id = 0
        self._restore = []  # (owner, attribute, original)

    def wrap(self, name: str, fn, keep_span: bool):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        stats = self.agg.setdefault(name, [0, 0.0, 0.0])
        keep_result = name in KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep_span:
                    spans.append((span_id, name, start, end, parent))
            if keep_result:
                self.results[name] = result
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "asyncmc" or n.startswith("asyncmc.")]
        for module_name, attr, keep_span in TRACED:
            original = getattr(sys.modules[f"asyncmc.{module_name}"], attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original, keep_span)
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, bound_name, wrapper)
        kernels = sys.modules["asyncmc.kernels"]
        for cls_name, cls in inspect.getmembers(kernels, inspect.isclass):
            if cls.__module__ != kernels.__name__ or not cls_name.endswith("Proposal"):
                continue
            for method in PROPOSAL_METHODS:
                self._rebind(cls, method, self.wrap(PROPOSAL_SPAN, vars(cls)[method], False))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_seconds_by_module(self) -> dict:
        out = {}
        for name, (_, _, self_s) in self.agg.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_s
        return out
