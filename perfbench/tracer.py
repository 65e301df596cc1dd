"""Spans and call counts recorded from outside the package.

:class:`Tracer` replaces a public function by a wrapper at every module
binding that refers to it (``succoeff.cli.grid_optimize`` and
``succoeff.verify.grid_optimize`` are separate lookups), so no file of
the package changes.  Spans stay in memory until :meth:`Tracer.write`.
A function that a later version of the package no longer has is skipped
and its metrics are reported as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    span: str                 # span name, also the metric prefix
    module: str               # module that defines the function
    attr: str                 # "name" or "Class.method"
    label: Optional[Callable] = None     # (args, kwargs) -> span name suffix
    on_result: Optional[Callable] = None  # (tracer, result) -> None


def _which_suffix(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return "_" + spec.which.value


def _count_grid(tracer: "Tracer", report) -> None:
    n_c, n_r, n_t = report.grid
    tracer.counters["verify.grid_points"] += n_c * n_r * n_t


def _count_members(tracer: "Tracer", report) -> None:
    tracer.counters["verify.sample_members"] += report.n_samples


TARGETS = (
    Target("cli.main", "succoeff.cli", "main"),
    Target("bounds.bound_d2", "succoeff.bounds", "bound_d2"),
    Target("bounds.extremal_series", "succoeff.bounds", "extremal_series"),
    Target("caratheodory.solve_two_atom", "succoeff.caratheodory", "solve_two_atom"),
    Target("caratheodory.to_series", "succoeff.caratheodory", "to_series"),
    Target("families.construct_member", "succoeff.families", "construct_member"),
    Target("series.exp", "succoeff.series", "TruncatedSeries.exp"),
    Target("verify.grid_optimize", "succoeff.verify", "grid_optimize", _which_suffix, _count_grid),
    Target("verify.functional_value", "succoeff.verify", "functional_value"),
    Target("verify.case_boundary_check", "succoeff.verify", "case_boundary_check"),
    Target("verify.sample_no_violation", "succoeff.verify", "sample_no_violation",
           on_result=_count_members),
)
# Constructions are counted, not spanned: there are too many for spans.
COUNTED_INIT = ("series.init_calls", "succoeff.series", "TruncatedSeries")


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, command index)
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.command = -1
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list = []   # (owner, name, original)

    # -------------------------------------------------------- installing

    def _wrap(self, target: Target, original):
        spans, stack, tracer = self.spans, self._stack, self
        base = target.span
        label, on_result = target.label, target.on_result

        def traced(*args, **kwargs):
            name = base + label(args, kwargs) if label else base
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.command)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def _count(self, counter: str, original):
        counters = self.counters

        def counted(self_, *args, **kwargs):
            counters[counter] += 1
            return original(self_, *args, **kwargs)

        return counted

    def _bindings(self, original):
        """Every (module, name) of the package whose value is ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "succoeff" or mod_name.startswith("succoeff.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    yield mod, name

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.add(target.span)
                continue
            wrapper = self._wrap(target, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
            else:
                for mod, name in self._bindings(original):
                    self._patch(mod, name, wrapper)
        counter, module, cls = COUNTED_INIT
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None:
            self.absent.add(counter)
        else:
            self._patch(owner, "__init__", self._count(counter, owner.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ---------------------------------------------------------- results

    def totals(self) -> dict:
        """name -> (total ms, calls, self ms) over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total, calls, own = out.get(name, (0.0, 0, 0.0))
            out[name] = (total + (end - start) * 1e3, calls + 1,
                         own + (end - start - child_time[i]) * 1e3)
        return out

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span.

        A span's id is its line number after the header; ``parent`` is the
        id of the enclosing span or -1, ``command`` the command's index.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "command"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
