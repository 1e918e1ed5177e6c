"""Spans around calls into allocflow's layers, installed from outside.

The tracer replaces every public function of each layer module with a
recording wrapper at every allocflow module that holds a reference to it
(``optimizer.all_flows``, ``baseline.solve_branch_bound``, ...), so calls
between layers are seen no matter which module makes them.  Nothing under
src/ is edited; uninstall() puts the original functions back.

``CommModel.resolve`` is called once per hop, tens of thousands of times per
request on some workloads, so it is counted rather than spanned; its time
stays in the span of whichever function called it.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from harness import LAYERS, span_self_and_busy

OnReturn = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self, program, on_return: Optional[Dict[str, OnReturn]] = None):
        self._program = program
        self._on_return = on_return or {}
        self.names: List[str] = []  # span name table; spans store an index
        self._name_layer: List[int] = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.failed = [0] * len(LAYERS)
        self.resolve_calls = 0
        self.request = -1
        self._current = -1
        self._patched: list = []
        self._wrappers = {}  # original function -> recording wrapper
        for layer_id, layer in enumerate(LAYERS):
            module = getattr(program, layer)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    self._wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer_id)
        self._resolve = program.model.CommModel.resolve
        self._counted_resolve = self._count_resolve(self._resolve, LAYERS.index("model"))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        package = self._program.package
        # the package and every submodule imported so far, which Python binds
        # as attributes of the package
        modules = [package] + [
            obj for obj in vars(package).values()
            if inspect.ismodule(obj) and obj.__name__.startswith(package.__name__ + ".")
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, attr, self._wrappers[obj])
                    self._patched.append((module, attr, obj))
        comm_model = self._program.model.CommModel
        self._patched.append((comm_model, "resolve", self._resolve))
        comm_model.resolve = self._counted_resolve

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer_id: int):
        name_id = len(self.names)
        self.names.append(name)
        self._name_layer.append(layer_id)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end
        failed = self.failed
        on_return = self._on_return.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(tracer._current)
            requests.append(tracer.request)
            ends.append(0)
            tracer._current = i
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                tracer._current = parents[i]
                failed[layer_id] += 1
                raise
            ends[i] = clock()
            tracer._current = parents[i]
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _count_resolve(self, original, layer_id: int):
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.resolve_calls += 1
            try:
                return original(*args, **kwargs)
            except BaseException:
                tracer.failed[layer_id] += 1
                raise

        return counted

    # -- results -------------------------------------------------------------

    def per_function(self) -> Dict[str, Dict[str, int]]:
        """name -> {"calls", "self_ns", "busy_ns"} summed over every span."""
        layers = [self._name_layer[n] for n in self.span_name]
        self_t, busy_t = span_self_and_busy(
            self.span_parent, self.span_start, self.span_end, layers
        )
        table: Dict[str, Dict[str, int]] = defaultdict(lambda: {"calls": 0, "self_ns": 0, "busy_ns": 0})
        for i, name_id in enumerate(self.span_name):
            row = table[self.names[name_id]]
            row["calls"] += 1
            row["self_ns"] += self_t[i]
            row["busy_ns"] += busy_t[i]
        return dict(table)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("span,parent,request,name,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i},{self.span_parent[i]},{self.span_request[i]},"
                    f"{self.names[self.span_name[i]]},{self.span_start[i]},{self.span_end[i]}\n"
                )
