"""In-memory span tracer for the ``ecoc`` modules.

``Tracer.install()`` replaces every public function in the namespace of each
traced module with a wrapper that records one span per call.  Names a module
imported from another one (``experiment_io.evaluate_bounds``,
``simulator.exchangeable_pmf``) are wrapped in the importing namespace too,
so calls across modules are caught.  A span is attributed to the module that
defines the function, not to the namespace it was reached through.
``uninstall()`` puts the original functions back.

A span is ``(op, parent, name, start, end, failed)``: ``op`` is the
identifier of the operation that was running, ``parent`` the index of the
enclosing span (-1 for a root), and times are ``time.perf_counter()``
seconds.  Spans stay in ``Tracer.spans`` until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

LAYERS = ("cli", "prob_engine", "bounds", "simulator", "code_matrix", "experiment_io")
PACKAGE = "ecoc"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [self.op, stack[-1] if stack else -1, name, time.perf_counter(), 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        owners = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = owners.get(obj.__module__)
                if owner is None:
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, owner))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append((span[3], span[4]))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span[3]
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span[4] - span[3] - covered)
    return out
