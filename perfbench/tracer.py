"""In-memory span tracer for the public functions of the ppasim modules.

The tracer wraps, from outside the package, every function listed in a
module's ``__all__`` and defined in that module, plus construction of
``DensityMatrix`` and ``POVM`` and the ``Generator.from_matrix`` classmethod.
Each wrapper is rebound in every ``ppasim.*`` module that holds the original,
so calls made through ``from .x import f`` are traced too.  A span is
``(function id, start, end, parent span index, raised)``; spans stay in
memory and are summarised once the traced pass has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("states", "fisher", "quasiprob", "bench", "tomography", "verify", "cli")
TRACED_CLASSES = (("states", "DensityMatrix"), ("quasiprob", "POVM"))
TRACED_CLASSMETHODS = (("states", "Generator", "from_matrix"),)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, raised)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced callables and rebind them wherever ppasim imported them."""
        mods = {m: importlib.import_module(f"ppasim.{m}") for m in MODULES}
        holders = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "ppasim" or name.startswith("ppasim.")
        ]
        for short, mod in mods.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                # Skip names bound elsewhere and wrappers already installed.
                if (
                    not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or hasattr(fn, "__wrapped__")
                ):
                    continue
                wrapped = self._wrap(f"{short}.{name}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, attr, wrapped)
        for short, cls_name in TRACED_CLASSES:
            cls = getattr(mods[short], cls_name, None)
            if cls is not None:
                self._set(cls, "__init__", self._wrap(f"{short}.{cls_name}", cls.__init__))
        for short, cls_name, meth in TRACED_CLASSMETHODS:
            cls = getattr(mods[short], cls_name, None)
            if cls is not None and meth in cls.__dict__:
                fn = cls.__dict__[meth].__func__
                self._set(cls, meth, classmethod(self._wrap(f"{short}.{cls_name}.{meth}", fn)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def table(self) -> dict[str, dict]:
        """Per traced name: calls, raised, total and self time in seconds.

        Self time is a span's duration minus the durations of its direct
        child spans; spans of one thread nest, so the children never overlap.
        """
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {
            name: {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for idx, (fid, start, end, _, raised) in enumerate(self.spans):
            row = out[self.names[fid]]
            row["calls"] += 1
            row["raised"] += raised
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return out
