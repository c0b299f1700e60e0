"""Per-layer tracing from outside the program.

``install`` wraps the public functions and methods of each torcode module
and replaces every name bound to them in every torcode module, so calls
that cross modules are counted too.  Each wrapper counts calls and keeps
self time and self instructions: its span's total minus the spans of the
wrapped calls made inside it.  Self figures of all wrappers therefore add
up to the time and instructions spent inside ``cli.main``.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("qfield", "intmat", "binforms", "glz", "betasym", "coding", "cli", "schemas", "svgplot")

# dunder methods worth a span; the rest are left alone
_DUNDERS = {
    "__init__": "new",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__rtruediv__": "div",
    "__neg__": "neg",
    "__pow__": "pow",
    "__abs__": "abs",
    "__eq__": "eq",
    "__hash__": "hash",
    "__lt__": "cmp",
    "__le__": "cmp",
    "__gt__": "cmp",
    "__ge__": "cmp",
    "__call__": "call",
    "__len__": "len",
}


class Tracer:
    """Call counts and self cost per wrapped function name."""

    def __init__(self, read_instructions) -> None:
        self.read = read_instructions
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns, self_instr, elements]
        self.stack: list[list[int]] = [[0, 0]]  # child ns and instructions of each open span

    def wrap(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self.stack
        clock = time.perf_counter_ns
        read = self.read
        count_elements = name == "glz.kernel_group"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st[0] += 1
            stack.append([0, 0])
            t0 = clock()
            i0 = read()
            try:
                out = fn(*args, **kwargs)
                if count_elements:
                    st[3] += len(out.elements or ())
                return out
            finally:
                i1 = read()
                t1 = clock()
                child = stack.pop()
                dt, di = t1 - t0, i1 - i0
                st[1] += dt - child[0]
                st[2] += di - child[1]
                parent = stack[-1]
                parent[0] += dt
                parent[1] += di

        return span


def _class_spans(tracer: Tracer, short: str, cls) -> None:
    wrapped: dict[int, object] = {}
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("__"):
            label = _DUNDERS.get(attr)
        else:
            label = None if attr.startswith("_") else attr
        if label is None:
            continue
        name = f"{short}.{cls.__name__}.{label}"
        if inspect.isfunction(obj):
            if id(obj) not in wrapped:
                wrapped[id(obj)] = tracer.wrap(name, obj)
            setattr(cls, attr, wrapped[id(obj)])
        elif isinstance(obj, property) and obj.fget is not None:
            setattr(cls, attr, property(tracer.wrap(name, obj.fget), obj.fset, obj.fdel, obj.__doc__))
        elif isinstance(obj, (classmethod, staticmethod)):
            setattr(cls, attr, type(obj)(tracer.wrap(name, obj.__func__)))


def install(tracer: Tracer) -> None:
    """Wrap the public functions and class methods of the loaded torcode
    modules and rebind every name that refers to a wrapped function."""
    modules = {name: sys.modules[f"torcode.{name}"] for name in MODULES}
    namespaces = list(modules.values()) + [sys.modules["torcode"]]
    spans: dict[int, object] = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                spans[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _class_spans(tracer, short, obj)
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and id(obj) in spans:
                setattr(ns, attr, spans[id(obj)])


def module_totals(stats: dict[str, list[int]]) -> dict[str, list[int]]:
    """[self_ns, self_instr] summed per module."""
    out: dict[str, list[int]] = {}
    for name, (_, ns, instr, _) in stats.items():
        acc = out.setdefault(name.split(".", 1)[0], [0, 0])
        acc[0] += ns
        acc[1] += instr
    return out
