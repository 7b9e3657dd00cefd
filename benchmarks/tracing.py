"""Span tracing of the stratdual layers from outside the library.

Each traced function is rebound, in every ``stratdual`` module namespace
that holds it (found by object identity), to a wrapper that records one
span per call.  Internal calls made through a module's globals, such as
``monte_carlo`` calling ``draw_sample``, are therefore seen too.  Spans
stay in memory, in compact columns, until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: Public functions traced, by module.  Their spans are the layer metrics.
TRACED = {
    "simulate": ("generate_population", "draw_sample", "monte_carlo"),
    "estimators": ("estimate", "dual_transform_means"),
    "domain": ("read_summary_csv", "read_units_csv", "summarize_stratum",
               "combine", "validate", "neyman_allocation"),
    "moments": ("compute_moments", "compute_dual_moments"),
    "mse_theory": ("mse_first_order", "optimize_theta", "optimize_alphas"),
    "cli": ("main", "build_parser", "render_table"),
}


class Tracer:
    """Records spans as columns: name, start, end, parent and root.

    Span ``i`` has name ``names[name[i]]``; ``parent[i]`` is the index of
    the enclosing span (-1 at top level) and ``root[i]`` the index of the
    top-level span, shared by every span under one top-level call.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.root = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def install(self) -> None:
        """Wrap every function of :data:`TRACED` in all stratdual modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None
                      and (name == "stratdual" or name.startswith("stratdual."))]
        for module, names in TRACED.items():
            home = sys.modules.get(f"stratdual.{module}")
            if home is None:  # not imported by this workload
                continue
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def remove(self) -> None:
        """Restore every rebound name to its original function."""
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, starts, ends = self.name, self.start, self.end
        parents, roots, stack = self.parent, self.root, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            parent = stack[-1] if stack else -1
            roots.append(roots[parent] if parent >= 0 else index)
            parents.append(parent)
            names.append(name_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def layer_totals(self, start: int = 0, stop: int | None = None
                     ) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_ms`` over spans ``start:stop``.

        Self time is a span's duration minus that of its direct children;
        calls are sequential, so children never overlap.  A range that
        begins at a top-level span holds all descendants of its spans.
        """
        stop = len(self) if stop is None else stop
        duration = (np.frombuffer(self.end, dtype=float)[start:stop]
                    - np.frombuffer(self.start, dtype=float)[start:stop])
        parent = np.frombuffer(self.parent, dtype=np.int64)[start:stop] - start
        name = np.frombuffer(self.name, dtype=np.uint16)[start:stop]
        inside = parent >= 0
        self_s = duration.copy()
        np.subtract.at(self_s, parent[inside], duration[inside])
        return {
            self.names[name_id]: {
                "calls": int(np.count_nonzero(name == name_id)),
                "self_ms": 1e3 * float(self_s[name == name_id].sum()),
            }
            for name_id in np.unique(name)
        }

    def write(self, path) -> None:
        """Write all spans as compressed NumPy columns (``.npz``)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start_s=np.frombuffer(self.start, dtype=float),
            end_s=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            root=np.frombuffer(self.root, dtype=np.int64))
