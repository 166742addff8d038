"""Spans and solver counters recorded from outside the homog package.

The tracer replaces each public function of the traced modules with a wrapper
at every module namespace that holds it.  Consumers bind names at import time
(``from .sparse import cg_solve``), so patching ``homog.sparse.cg_solve`` alone
would miss the live call sites ``homog.solve.cg_solve`` and
``homog.cell.cg_solve``.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span in the same list (-1 for a root) and ``attrs`` holds the
counters taken at that boundary.  Spans stay in memory until the caller
collects them.  ``homog.grid`` is not wrapped: its helpers run once per
element chunk and their time is charged to the calling layer's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

LAYERS = ("sparse", "cell", "solve", "unfold", "metrics", "coeff", "harness")


def _counted_matvec(self, other):
    self.matvecs += 1
    return super(type(self), self)._matmul_vector(other)


def counting_matrix(matrix):
    """A view of a scipy sparse matrix, sharing its arrays, that counts
    products with a vector (``@``, ``dot`` and ``*`` all reach
    ``_matmul_vector``)."""
    cls = type(matrix)
    sub = type(f"Counting{cls.__name__}", (cls,), {"_matmul_vector": _counted_matvec})
    view = sub.__new__(sub)
    view.__dict__.update(matrix.__dict__)
    view.matvecs = 0
    return view


def _around_cg_solve(call, attrs, system, *args, **kwargs):
    # iterations are counted as products with the system matrix passed in
    matrix = counting_matrix(system.matrix)
    attrs["dofs"] = int(system.dimension)
    try:
        return call(dataclasses.replace(system, matrix=matrix), *args, **kwargs)
    finally:
        attrs["iters"] = matrix.matvecs


def _around_assemble_stiffness(call, attrs, *args, **kwargs):
    system = call(*args, **kwargs)
    attrs["nnz"] = int(system.matrix.nnz)
    return system


AROUND = {
    "sparse.cg_solve": _around_cg_solve,
    "sparse.assemble_stiffness": _around_assemble_stiffness,
}


class Tracer:
    """Wraps the public functions of ``homog.<layer>`` for each layer in
    ``LAYERS``; the modules must already be imported."""

    def __init__(self):
        self.spans = []
        self.sites = []  # (module name, attribute) of every patched binding
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        around = AROUND.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(fn, attrs, *args, **kwargs)
            except BaseException:
                attrs["failed"] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"homog.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "homog" and not mod_name.startswith("homog."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    self.sites.append((mod_name, attr))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def roots(spans) -> list:
    """Index of the root span above each span (spans are in call order, so a
    parent always precedes its children)."""
    out = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def has_ancestor(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_totals(span_lists) -> dict:
    """Per-function totals over several span lists: ``<name>.s`` (inclusive
    seconds), ``.self_s``, ``.calls``, ``.failed`` and the summed counters."""
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for spans in span_lists:
        for (name, start, end, _, attrs), own in zip(spans, self_times(spans)):
            add(f"{name}.s", end - start)
            add(f"{name}.self_s", own)
            add(f"{name}.calls", 1)
            for key, value in attrs.items():
                add(f"{name}.{key}", value)
    return totals
