"""Spans around the public functions of each jcpairs layer, from outside the package.

``Tracer.install()`` replaces every target function with a timing wrapper
wherever callers look it up: the defining module, every ``jcpairs`` module
that bound the same object with ``from .x import y``, and the class for
methods.  ``uninstall()`` puts the originals back.  A target missing from the
package (renamed or removed at some commit) is recorded as absent.

Spans (name, start, end, parent) are kept in memory; ``aggregate`` turns them
into calls, total time and self time per name, self time being the span's
duration minus the time its child spans cover.  ``esd.zero_intervals`` also
counts the calls into the ``curve`` and ``q_curve`` callables passed to it.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute path, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("closedform", "resonance_values", "closedform.resonance_values"),
    ("dynamics", "evolve_analytic", "dynamics.evolve_analytic"),
    ("dynamics", "HamiltonianPropagator.evolve", "dynamics.propagator_evolve"),
    ("dynamics", "HamiltonianPropagator.__init__", "dynamics.propagator_build"),
    ("jcmodel", "total_hamiltonian", "jcmodel.total_hamiltonian"),
    ("jcmodel", "dressed_data", "jcmodel.dressed_data"),
    ("linalg", "partial_trace", "linalg.partial_trace"),
    ("linalg", "sqrt_psd", "linalg.sqrt_psd"),
    ("entanglement", "wootters_concurrence", "entanglement.wootters_concurrence"),
    ("entanglement", "all_pairwise", "entanglement.all_pairwise"),
    ("esd", "zero_intervals", "esd.zero_intervals"),
    ("esd", "sweep", "esd.sweep"),
)
SPAN_NAMES = tuple(name for _, _, name in TARGETS)


class Tracer:
    """Installs span-recording wrappers on the TARGETS and keeps their spans."""

    def __init__(self):
        self.absent = []
        self._patches = []  # (owner, attribute, original)
        self.spans = []  # (index, name id, start, end, parent index), in end order
        self._stack = [-1]
        self.reset()

    def reset(self):
        """Drop recorded spans and counts."""
        self.spans.clear()
        self._stack[:] = [-1]
        self.curve_evals = 0
        self._next = 0

    def _wrap(self, fn, name_id):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._next
            self._next = index + 1
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((index, name_id, start, end, parent))

        return traced

    def _counting(self, curve):
        def counted(t):
            self.curve_evals += 1
            return curve(t)

        return counted

    def _wrap_zero_intervals(self, fn, name_id):
        inner = self._wrap(fn, name_id)

        @functools.wraps(fn)
        def zero_intervals(curve, *args, **kwargs):
            if kwargs.get("q_curve") is not None:
                kwargs["q_curve"] = self._counting(kwargs["q_curve"])
            return inner(self._counting(curve), *args, **kwargs)

        return zero_intervals

    def install(self):
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "jcpairs" or name.startswith("jcpairs."))]
        for name_id, (module_name, path, span) in enumerate(TARGETS):
            module = sys.modules.get(f"jcpairs.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(span)
                continue
            make = self._wrap_zero_intervals if span == "esd.zero_intervals" else self._wrap
            wrapper = make(original, name_id)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def aggregate(spans, n_names=len(SPAN_NAMES)):
    """Per span name: calls, total seconds and self seconds."""
    if not spans:
        zeros = np.zeros(n_names)
        return zeros.astype(int), zeros, zeros
    arr = np.array(spans, dtype=float)
    order = np.argsort(arr[:, 0])
    arr = arr[order]
    name = arr[:, 1].astype(int)
    duration = arr[:, 3] - arr[:, 2]
    parent = arr[:, 4].astype(int)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(arr))
    self_time = duration - covered
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=duration, minlength=n_names)
    own = np.bincount(name, weights=self_time, minlength=n_names)
    return calls, total, own
