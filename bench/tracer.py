"""Outside-in span tracer for the diskdyn package.

`Tracer.install` replaces, from outside the package, every public function
bound in a diskdyn module namespace (once per namespace that binds it) and
a few class methods with wrappers that record spans.  Spans live in flat
in-memory arrays; `fold` turns the spans of the ops run so far into
per-name totals, with a span's self time taken as its duration minus the
durations of its direct children.  Nothing under the package changes on
disk, and `uninstall` restores every binding.
"""
from __future__ import annotations

import functools
import time
import types
from array import array
from pathlib import Path

import numpy as np

# Class methods traced under a layer name: (module, class, method) -> span.
_METHODS = {
    ("ifs", "MapDescriptor", "__call__"): "ifs.map_apply",
    ("ifs", "MapDescriptor", "__post_init__"): "ifs.map_vet",
    ("hyperbolic", "Blaschke2", "preimages"): "hyperbolic.Blaschke2.preimages",
}
_DOMAIN_METHODS = ("contains", "inradius_at")
_MODULES = ("hyperbolic", "domains", "sampling", "bloch", "ifs", "constructions", "cli", "errors")


def _size(_args, result) -> float:
    return float(np.size(result))


def _points(args, _result) -> float:
    return float(np.size(args[1]))


def _witness(_args, result) -> float:
    return float(result.verdict.kind == "non_bloch_witness")


def _steps(_args, result) -> float:
    return float(len(result[1]))


def _bytes(_args, result) -> float:
    return float(sum(Path(p).stat().st_size for p in result.values()))


# Work counted per span: span name -> measure(args, result).
_MEASURES = {
    "hyperbolic.rho_grid": _size,
    "sampling.witness_samples": _size,
    "ifs.map_apply": _points,
    "bloch.bloch_radius_search": _witness,
    "constructions.build_nonconstant_system": _steps,
    "cli.emit_outputs": _bytes,
}


# Calls of _ATTEMPT made while a _BUILD span is open are counted, and kept
# only when that build returns normally.
_ATTEMPT = "hyperbolic.Blaschke2.preimages"
_BUILD = "constructions.build_nonconstant_system"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list = []
        self._clear()
        self.calls: dict = {}
        self.total_s: dict = {}
        self.self_s: dict = {}
        self.amount: dict = {}
        # _ATTEMPT calls inside _BUILD calls that returned normally.
        self.build_attempts = 0
        self._build_depth = 0
        self._pending_attempts = 0

    def _clear(self):
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._amount = array("d")
        self._stack = [-1]

    def _wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        measure = _MEASURES.get(name)
        attempt, build = name == _ATTEMPT, name == _BUILD
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if attempt and self._build_depth:
                self._pending_attempts += 1
            if build:
                self._build_depth += 1
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1])
            self._amount.append(0.0)
            self._end.append(0.0)
            self._stack.append(idx)
            start = clock()
            self._start.append(start)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    self._amount[idx] = measure(args, result)
                if build and self._build_depth == 1:
                    self.build_attempts += self._pending_attempts
                return result
            finally:
                self._end[idx] = clock()
                self._stack.pop()
                if build:
                    self._build_depth -= 1
                    if not self._build_depth:
                        self._pending_attempts = 0

        return wrapper

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, package):
        modules = [package] + [getattr(package, m) for m in _MODULES]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._replace(mod, attr, wrapped[obj])
        for (mod, cls, meth), name in _METHODS.items():
            owner = getattr(getattr(package, mod), cls)
            self._replace(owner, meth, self._wrap(owner.__dict__[meth], name))
        base = package.domains.DomainModel
        classes = {c for mod in modules for c in vars(mod).values()
                   if isinstance(c, type) and issubclass(c, base)}
        for cls in sorted(classes, key=lambda c: c.__qualname__):
            for meth in _DOMAIN_METHODS:
                if meth in cls.__dict__:
                    self._replace(cls, meth, self._wrap(cls.__dict__[meth], f"domains.{meth}"))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def fold(self):
        """Add the spans recorded so far to the per-name totals and drop
        them.  Call only between ops, when no span is open."""
        n = len(self._start)
        if n:
            name = np.frombuffer(self._name, dtype=np.int32)
            parent = np.frombuffer(self._parent, dtype=np.int32)
            dur = np.frombuffer(self._end) - np.frombuffer(self._start)
            amount = np.frombuffer(self._amount)
            has = parent >= 0
            child = np.bincount(parent[has], weights=dur[has], minlength=n)
            own = dur - child
            k = len(self.names)
            for key, values in (
                ("calls", np.ones(n)),
                ("total_s", dur),
                ("self_s", own),
                ("amount", amount),
            ):
                sums = np.bincount(name, weights=values, minlength=k)
                table = getattr(self, key)
                for i, v in enumerate(sums):
                    if v:
                        table[self.names[i]] = table.get(self.names[i], 0.0) + float(v)
        self._clear()
