"""In-memory span tracer that wraps fingerloc's public functions from outside.

Nothing inside the program changes. ``Tracer.install`` replaces every public
function of the traced modules, and every public method of their public
classes, with a wrapper that records a span: name, start, end and the index
of the enclosing span. A function that another module took with
``from .x import name`` is replaced there too, so ``rationalize.train`` and
``augment.build_model`` are traced like ``nn.train`` and
``models.build_model``. Functions held only inside containers (such as
``cli.COMMANDS`` or ``nn.LOSSES``) are not replaced; their time counts as
the caller's self time.
"""
from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, hooks: dict | None = None):
        # hooks: span name -> fn(result, args, kwargs, counters) run after a call returns
        self.hooks = hooks or {}
        self._ids: dict[str, int] = {}  # span name -> id
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = {}
        self.hook_failures: set[str] = set()

    # ------------------------------------------------------------------
    # wrapping

    def _wrapper(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if hook is not None:
                try:
                    hook(result, args, kwargs, self.counters)
                except (AttributeError, KeyError, TypeError, IndexError):
                    # the traced API changed shape; the hook's counters go missing
                    self.hook_failures.add(name)
            return result

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the public functions and methods of each ``short name -> module``."""
        replacements: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrapper(obj, f"{short}.{attr}")
                    replacements[id(obj)] = (obj, wrapper)
                    self._set(module, attr, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrapper(fn, f"{short}.{attr}.{meth}"))
        # names bound elsewhere by ``from .x import name``
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # aggregation

    def arrays(self):
        """(name ids, durations, self times) of the recorded spans."""
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return nid, dur, dur - child

    def ids_of(self, names) -> list[int]:
        return [self._ids[n] for n in names if n in self._ids]

    def step_times(self, backward: str, steps: list[str]) -> np.ndarray:
        """Seconds from each ``backward`` span's start to the end of the
        optimizer step that directly follows it under the same parent."""
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        step_ids = self.ids_of(steps)
        if backward not in self._ids or not step_ids:
            return np.empty(0)
        idx = np.flatnonzero(np.isin(nid, [self._ids[backward], *step_ids]))
        a, b = idx[:-1], idx[1:]
        pair = (nid[a] == self._ids[backward]) & np.isin(nid[b], step_ids) & (parent[a] == parent[b])
        return end[b[pair]] - start[a[pair]]
