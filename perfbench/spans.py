"""Span tracing of nctorus layers, installed from outside the library.

``Tracer.install`` replaces each public function and class method of the
traced modules with a wrapper that records a span (name, start, end,
parent, operation) for every call made inside an operation.  Spans live in
flat arrays in memory and are written once, by ``dump``.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

#: Modules whose public functions and class methods are wrapped.
MODULES = ("cli", "algebra", "forms", "connections", "coverings", "infinitecover")
#: Dunder methods that carry the algebra's arithmetic.
ARITHMETIC = frozenset(("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"))
#: Name of the root span the benchmark opens around each operation.
OP = "bench.op"
MUL = "algebra.TorusElement.__mul__"


class Tracer:
    """Span recorder for one traced window; ``install`` and ``uninstall`` bracket it."""

    def __init__(self):
        self.names: list[str] = [OP]
        self._ids = {OP: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._current_op = [-1]
        #: Sum over element products of |a|*|b| (scalars count one term).
        self.term_pairs = 0
        #: Largest term count of any product result.
        self.terms_hwm = 0
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call inside an operation records a span."""
        nid = self._name_id(name)
        stack, current_op, clock = self._stack, self._current_op, time.perf_counter
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1] < 0:  # outside an operation: input building, oracles
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(current_op[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def run_op(self, index: int, fn):
        """Call ``fn`` as operation ``index`` under a root span."""
        self._current_op[0] = index
        idx = len(self.start)
        self.name.append(0)
        self.parent.append(-1)
        self.op.append(index)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn()
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _count_mul(self, args, result):
        a, b = args
        self.term_pairs += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
        if len(result.terms) > self.terms_hwm:
            self.terms_hwm = len(result.terms)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the traced modules' public functions and class methods."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"nctorus.{name}") for name in MODULES}
        wrapped: dict[int, object] = {}  # id(original) -> wrapper, shared by every importer

        def wrapper_for(fn, name):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._span(name, fn, self._count_mul if name == MUL else None)
            return wrapped[id(fn)]

        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__ and not issubclass(obj, BaseException):
                    self._install_class(obj, short, wrapper_for)
        import nctorus

        for owner in (*mods.values(), nctorus):
            for attr, obj in list(vars(owner).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith("nctorus.") and home in MODULES:
                    self._patch(owner, attr, wrapper_for(obj, f"{home}.{obj.__name__}"))
        # The matrix exponential is scipy's, called through connections.
        self._patch(mods["connections"], "expm", wrapper_for(mods["connections"].expm, "connections.expm"))

    def _install_class(self, cls, short: str, wrapper_for):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, wrapper_for(obj, name))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(wrapper_for(obj.__func__, name)))

    def uninstall(self):
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def arrays(self) -> dict:
        """The span columns as numpy arrays (copies)."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        """Seconds of every span called ``name``."""
        a = self.arrays()
        if name not in self._ids:
            return np.zeros(0)
        mask = a["name"] == self._ids[name]
        return a["end"][mask] - a["start"][mask]

    def dump(self, path):
        """Write every span, with the name table, to ``path`` (.npz)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
