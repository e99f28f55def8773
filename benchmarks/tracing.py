"""Spans recorded from outside odekit, around calls into its public API.

Every span has a kind (``layer.method``), a start, an end and the index
of the span that was open when it began.  Spans are appended to flat
arrays in memory and analysed, or written out, once the traced run is
over.  Nothing here touches odekit internals: the hooks are callables
handed to odekit (right-hand sides, observers), an ``Algebra`` subclass
passed through the steppers' ``algebra=`` parameter, and proxies around
stepper objects.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.kind = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # Counts taken at the same boundaries as the spans.
        self.counters = {}

    def kind_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name, fn, note=None):
        """Return ``fn`` recording one span of kind ``name`` per call.

        ``note(args, result)`` runs after the span closes, so the
        layer's time does not include the bookkeeping.
        """
        kid = self.kind_id(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(kid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if note is not None:
                note(args, result)
            return result

        return traced

    def analyse(self):
        """Per-kind calls, inclusive and self time; checks nesting."""
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        n = len(kind)
        dur = end - start
        child = parent >= 0
        pidx = parent[child]
        nested = bool(
            np.all(start[pidx] <= start[child]) and np.all(end[child] <= end[pidx])
        )
        covered = np.bincount(pidx, weights=dur[child], minlength=n)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(kind, minlength=k)
        incl = np.bincount(kind, weights=dur, minlength=k)
        own = np.bincount(kind, weights=self_time, minlength=k)
        per_kind = {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        return {
            "spans": n,
            "nested": nested and bool(np.all(self_time >= -1e-9)),
            "root_s": float(dur[~child].sum()),
            "self_sum_s": float(self_time.sum()),
            "kinds": per_kind,
        }

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _state_bytes(state):
    nbytes = getattr(state, "nbytes", None)
    return nbytes if nbytes is not None else 8 * len(state)


def tracing_algebra(ok, inner, tracer):
    """An ``odekit.Algebra`` that times every call and delegates to ``inner``.

    Every public method of the backend is forwarded, so a backend method
    added later is still delegated (and counted as ``algebra.other``).
    """

    def scale_sum_note(args, result):
        out, coeffs = args[0], args[1]
        tracer.add("algebra.scale_sum.bytes", (len(coeffs) + 1) * _state_bytes(out))

    class TracingAlgebra(getattr(ok, "Algebra", object)):
        def __init__(self):
            for name, _ in inspect.getmembers(type(inner), inspect.isfunction):
                if name.startswith("_"):
                    continue
                bound = getattr(inner, name)
                if name == "scale_sum":
                    setattr(self, name, tracer.wrap("algebra.scale_sum", bound, scale_sum_note))
                elif name == "error_ratio_max":
                    setattr(self, name, tracer.wrap("algebra.error_norm", bound))
                else:
                    setattr(self, name, tracer.wrap("algebra.other", bound))

    return TracingAlgebra()


class Proxy:
    """Stands in for a stepper and times each of its public methods.

    Attribute reads fall through to the target, so the drivers' duck
    typing sees exactly the capabilities of the wrapped object.
    """

    def __init__(self, target, tracer, layer, notes=None):
        self._target = target
        notes = notes or {}
        for name, _ in inspect.getmembers(type(target), inspect.isfunction):
            if not name.startswith("_"):
                fn = getattr(target, name)
                setattr(self, name, tracer.wrap(f"{layer}.{name}", fn, notes.get(name)))

    def __getattr__(self, name):
        return getattr(self._target, name)


def controlled_proxy(controller, tracer):
    def count_rejection(args, result):
        if not getattr(result, "accepted", True):
            tracer.add("controlled.rejected", 1)

    return Proxy(controller, tracer, "controlled", {"try_step": count_rejection})


def implicit_proxy(stepper, tracer):
    def count_iterations(args, result):
        tracer.add("implicit.newton_iters", getattr(stepper, "last_iteration_count", 0))

    return Proxy(stepper, tracer, "implicit", {"do_step": count_iterations})
