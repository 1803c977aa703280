"""In-memory span tracer for the trafficflow layers.

Every public function defined in a layer module is replaced, at every
trafficflow module that binds it, by one wrapper that records a span:
``(name, parent, start, end, extra)``.  Because the wrapper is installed
at the callers' bindings, internal calls such as ``solve_overflow`` ->
``solve_left`` (bound in ``trafficflow.solvers``) or
``spectral_radius`` -> ``has_stochastic_class`` (bound in
``trafficflow.linalg``) nest as child spans.  Private helpers
(``_linear_step``, ``_eliminate``, ...) are not wrapped; their time is
the self time of the public function that called them.

A span's self time is its duration minus the durations of its direct
children.  Calls run on one thread, so children never overlap and the
self times of all spans add up to the summed duration of the root spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

#: Layer modules in the order they are reported.
LAYERS = ("linalg", "_graph", "structure", "solvers", "network", "generators")
#: Spans of this function also record the system dimension and whether
#: the solve was unique.
SOLVE = "linalg.solve_left"


class Tracer:
    """Wraps the layer functions of an imported ``trafficflow`` package.

    ``install`` patches the bindings and ``uninstall`` restores them.
    Spans accumulate in ``spans`` while ``active`` is true; ``drain``
    hands them over and starts a new list.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.active = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        is_solve = name == SOLVE
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = None
                if is_solve and result is not None:
                    matrix = args[0] if args else kwargs["a_matrix"]
                    info = (len(matrix), result.status.value == "unique")
                spans[idx] = (name, parent, start, end, info)

        return wrapper

    def install(self) -> None:
        modules = [getattr(self.package, m) for m in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    # Metric names start with a letter: _graph -> graph.
                    layer = mod.__name__.rsplit(".", 1)[-1].lstrip("_")
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj)
        # Rebind at every module whose callers look the function up,
        # including the package namespace.
        for mod in modules + [self.package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def drain(self) -> list[tuple]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot drain while a span is open")
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[tuple]) -> dict:
    """Per-function calls, total and self seconds, the summed self time
    and the sizes of the ``solve_left`` systems.

    Returns ``{"functions": {name: {"calls", "total_s", "self_s"}},
    "self_s": ..., "solve_left": {...}}``.
    """
    child_cover = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    funcs: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    self_sum = 0.0
    rows = cubes = singular = 0
    for k, (name, parent, start, end, info) in enumerate(spans):
        dur = end - start
        own = dur - child_cover[k]
        entry = funcs[name]
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += own
        self_sum += own
        if info is not None:
            dim, unique = info
            rows += dim
            cubes += dim**3
            singular += 0 if unique else 1
    return {
        "functions": dict(funcs),
        "self_s": self_sum,
        "solve_left": {"rows": rows, "cubes": cubes, "singular": singular},
    }
