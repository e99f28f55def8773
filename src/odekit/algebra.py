"""Elementwise state operations decoupled from the state container.

Steppers never index into states themselves.  Every elementwise
operation goes through an :class:`Algebra`, so the same stepper code
drives numpy arrays, Python lists, or any other indexable container an
algebra knows how to handle.  Both shipped backends perform the
floating point operations of ``scale_sum`` in the same left-to-right
order, which keeps trajectories bit-identical across containers.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# A seven-stage embedded pair needs at most seven terms in one update.
MAX_TERMS = 7


class Algebra:
    """Operations a state backend must provide.

    ``scale_sum`` is the workhorse: a fused linear combination
    ``out[i] = sum_j coeffs[j] * terms[j][i]`` written in one pass.
    ``out`` may alias ``terms[0]`` (that is how in-place stepping
    works) but must not alias any later term.
    """

    def scale_sum(self, out, coeffs, terms):
        raise NotImplementedError

    def norm_inf(self, state) -> float:
        """Maximum absolute component.  Empty states are rejected."""
        raise NotImplementedError

    def clone_shape(self, src):
        """New zero-filled floating state with the same length and
        container as ``src``."""
        raise NotImplementedError

    def error_ratio_max(self, xerr, x, dxdt, atol, rtol, dt) -> float:
        """max_i |xerr_i| / (atol + rtol * (|x_i| + |dt| * |dxdt_i|))."""
        raise NotImplementedError

    def copy(self, out, src):
        """Copy ``src`` into ``out``; a one-term ``scale_sum``."""
        return self.scale_sum(out, (1.0,), (src,))

    @staticmethod
    def _check_scale_sum(out, coeffs, terms):
        k = len(coeffs)
        if k != len(terms):
            raise DimensionError(
                f"got {k} coefficients for {len(terms)} terms"
            )
        if not 1 <= k <= MAX_TERMS:
            raise ValueError(f"scale_sum supports 1..{MAX_TERMS} terms, got {k}")
        n = len(out)
        for term in terms:
            if len(term) != n:
                raise DimensionError(
                    f"term of length {len(term)} does not match output length {n}"
                )
        return k, n


class NumpyAlgebra(Algebra):
    """Vectorized backend for one-dimensional ``numpy.ndarray`` states."""

    def scale_sum(self, out, coeffs, terms):
        self._check_scale_sum(out, coeffs, terms)
        # Accumulate strictly left to right; same rounding sequence as
        # the sequence backend.
        np.multiply(terms[0], coeffs[0], out=out)
        for c, term in zip(coeffs[1:], terms[1:]):
            out += np.multiply(term, c)
        return out

    def norm_inf(self, state):
        if len(state) == 0:
            raise DimensionError("norm of an empty state is undefined")
        return float(np.max(np.abs(state)))

    def clone_shape(self, src):
        # Integer and boolean states get a float64 clone; float32 stays.
        return np.zeros_like(src, dtype=np.result_type(src, 0.0))

    def error_ratio_max(self, xerr, x, dxdt, atol, rtol, dt):
        if not len(xerr) == len(x) == len(dxdt):
            raise DimensionError("error, state, and derivative lengths differ")
        if len(xerr) == 0:
            raise DimensionError("error ratio of an empty state is undefined")
        scale = atol + rtol * (np.abs(x) + abs(dt) * np.abs(dxdt))
        return float(np.max(np.abs(xerr) / scale))


class SequenceAlgebra(Algebra):
    """Pure Python backend for mutable sequences of floats.

    Works on ``list`` out of the box and on any container exposing
    ``__len__``, ``__getitem__``, and ``__setitem__`` whose class can be
    constructed from an iterable of floats.
    """

    def scale_sum(self, out, coeffs, terms):
        k, n = self._check_scale_sum(out, coeffs, terms)
        # Unrolled small-k paths keep the million-step runs affordable.
        if k == 1:
            (c0,), (t0,) = coeffs, terms
            for i in range(n):
                out[i] = c0 * t0[i]
        elif k == 2:
            c0, c1 = coeffs
            t0, t1 = terms
            for i in range(n):
                out[i] = c0 * t0[i] + c1 * t1[i]
        elif k == 3:
            c0, c1, c2 = coeffs
            t0, t1, t2 = terms
            for i in range(n):
                out[i] = c0 * t0[i] + c1 * t1[i] + c2 * t2[i]
        else:
            for i in range(n):
                acc = coeffs[0] * terms[0][i]
                for j in range(1, k):
                    acc += coeffs[j] * terms[j][i]
                out[i] = acc
        return out

    def norm_inf(self, state):
        if len(state) == 0:
            raise DimensionError("norm of an empty state is undefined")
        return float(max(abs(v) for v in state))

    def clone_shape(self, src):
        if isinstance(src, list):
            return [0.0] * len(src)
        try:
            return src.__class__(0.0 for _ in range(len(src)))
        except TypeError as exc:
            raise TypeError(
                f"cannot build a zero state of type {type(src).__name__};"
                " provide a custom algebra"
            ) from exc

    def error_ratio_max(self, xerr, x, dxdt, atol, rtol, dt):
        if not len(xerr) == len(x) == len(dxdt):
            raise DimensionError("error, state, and derivative lengths differ")
        if len(xerr) == 0:
            raise DimensionError("error ratio of an empty state is undefined")
        adt = abs(dt)
        worst = 0.0
        for i in range(len(xerr)):
            ratio = abs(xerr[i]) / (atol + rtol * (abs(x[i]) + adt * abs(dxdt[i])))
            if ratio > worst or ratio != ratio:  # propagate NaN
                worst = ratio
        return float(worst)


NUMPY_ALGEBRA = NumpyAlgebra()
SEQUENCE_ALGEBRA = SequenceAlgebra()


def algebra_for(state) -> Algebra:
    """Pick the default backend for a state container."""
    if isinstance(state, np.ndarray):
        return NUMPY_ALGEBRA
    if hasattr(state, "__len__") and hasattr(state, "__setitem__"):
        return SEQUENCE_ALGEBRA
    raise TypeError(
        f"no state algebra for {type(state).__name__}; expected a numpy"
        " array or a mutable sequence"
    )


def scratch(owner, x, count):
    """Backend for ``x`` and ``count`` zero states shaped like it.

    ``owner`` pins the backend in ``_fixed_algebra`` (None picks the
    default for ``x``) and caches the buffers in ``_scratch``; they are
    reallocated only when the backend, the length, or for numpy states
    the shape or dtype of ``x`` changes, so a step allocates no
    state-sized memory.  Returns ``(algebra, buffers)``.
    """
    algebra = owner._fixed_algebra
    if isinstance(x, np.ndarray):
        if algebra is None:
            algebra = NUMPY_ALGEBRA
        key = (id(algebra), x.shape, x.dtype)
    else:
        if algebra is None:
            algebra = algebra_for(x)
        key = (id(algebra), len(x))
    cached = owner._scratch
    if cached is None or cached[0] != key:
        cached = owner._scratch = (key, [algebra.clone_shape(x) for _ in range(count)])
    return algebra, cached[1]
