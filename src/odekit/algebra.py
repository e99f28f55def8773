"""Elementwise state operations decoupled from the state container.

Steppers never index into states themselves.  Every elementwise
update goes through an :class:`Algebra`, so the same stepper code
drives numpy arrays, Python lists, or any other indexable container an
algebra knows how to handle.  Both shipped backends perform the
floating point operations of ``scale_sum`` in the same left-to-right
order, which keeps trajectories bit-identical across containers.

Public calls are checked.  Inside the steppers the shipped backends
check lengths once per scratch buffer set and run unchecked kernels; a
backend that overrides ``scale_sum`` receives every update through it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# A seven-stage embedded pair needs at most seven terms in one update.
MAX_TERMS = 7


class Algebra:
    """Operations a state backend must provide: ``scale_sum``,
    ``clone_shape``, ``error_ratio_max`` and ``copy``.  These are the
    vector operations the steppers share; implicit Euler's Newton
    matrix, solve and norms run on numpy directly.

    ``scale_sum`` is the workhorse: a fused linear combination
    ``out[i] = sum_j coeffs[j] * terms[j][i]`` written in one pass.
    ``out`` may alias ``terms[0]`` (that is how in-place stepping
    works) but must not alias any later term.
    """

    # Unchecked scale_sum bodies by term count, on a backend whose
    # scale_sum is the argument check followed by ``_kernels[k]``.
    _kernels = None

    def scale_sum(self, out, coeffs, terms):
        if self._kernels is None:
            raise NotImplementedError
        return self._kernels[self._check_scale_sum(out, coeffs, terms)](out, coeffs, terms)

    def _kernel(self, k):
        """Unchecked ``scale_sum`` for ``k`` terms; ``scale_sum`` itself
        on a backend without kernels or whose class overrides it."""
        if self._kernels is None or type(self).scale_sum is not Algebra.scale_sum:
            return self.scale_sum
        return self._kernels[k]

    def clone_shape(self, src):
        """New zero-filled floating state with the same length and
        container as ``src``."""
        raise NotImplementedError

    def error_ratio_max(self, xerr, x, dxdt, atol, rtol, dt) -> float:
        """max_i |xerr_i| / (atol + rtol * (|x_i| + |dt| * |dxdt_i|))."""
        raise NotImplementedError

    def copy(self, out, src):
        """Copy ``src`` into ``out``; a one-term ``scale_sum``."""
        if len(out) != len(src):
            raise DimensionError(f"cannot copy length {len(src)} into length {len(out)}")
        return self._kernel(1)(out, (1.0,), (src,))

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
        return k


def _numpy_scale_sum(out, coeffs, terms):
    # Accumulate strictly left to right; same rounding sequence as the
    # sequence backend.
    np.multiply(terms[0], coeffs[0], out=out)
    for c, term in zip(coeffs[1:], terms[1:]):
        out += np.multiply(term, c)
    return out


def _sequence_scale_sum(k):
    # out[i] = c0*t0[i] + c1*t1[i] + ..., unrolled and added left to right.
    c = ", ".join(f"c{j}" for j in range(k))
    t = ", ".join(f"t{j}" for j in range(k))
    body = " + ".join(f"c{j} * t{j}[i]" for j in range(k))
    namespace = {}
    exec(
        f"def scale_sum_{k}(out, coeffs, terms):\n"
        f"    ({c},), ({t},) = coeffs, terms\n"
        f"    for i in range(len(out)):\n        out[i] = {body}\n"
        "    return out\n",
        namespace,
    )
    return namespace[f"scale_sum_{k}"]


class NumpyAlgebra(Algebra):
    """Vectorized backend for one-dimensional ``numpy.ndarray`` states."""

    _kernels = (None,) + (_numpy_scale_sum,) * MAX_TERMS

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

    _kernels = (None,) + tuple(_sequence_scale_sum(k) for k in range(1, MAX_TERMS + 1))

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


def _kernel_table(algebra, buffers):
    return [algebra._kernel(k) for k in range(MAX_TERMS + 1)]


def scratch(owner, x, count, bind=_kernel_table):
    """Backend for ``x``, ``count`` zero states shaped like it, and
    ``bind(algebra, buffers)``, by default the kernels by term count.

    ``owner`` pins the backend in ``_fixed_algebra`` (None picks the
    default for ``x``) and caches ``(tag, key, result)`` in
    ``_scratch``.  A call whose tag, ``type(x)`` and ``len(x)`` (shape
    and dtype for numpy states), matches returns the cached result at
    once.  Otherwise an equal key, the length (shape and dtype), keeps
    the buffers under the new tag: a list's buffers serve an
    ``array.array`` of its length.  Only a new key reallocates them,
    checks their lengths and calls ``bind`` again, so a step allocates
    no state-sized memory.  Returns ``(algebra, buffers, bound)``.
    """
    numpy = isinstance(x, np.ndarray)
    tag = (x.shape, x.dtype) if numpy else (type(x), len(x))
    cached = owner._scratch
    if cached is not None and cached[0] == tag:
        return cached[2]
    algebra = owner._fixed_algebra
    if algebra is None:
        algebra = NUMPY_ALGEBRA if numpy else algebra_for(x)
    key = tag if numpy else len(x)
    if cached is None or cached[1] != key:
        buffers = [algebra.clone_shape(x) for _ in range(count)]
        if any(len(buf) != len(x) for buf in buffers):
            raise DimensionError("clone_shape changed the state length")
        cached = (tag, key, (algebra, buffers, bind(algebra, buffers)))
    owner._scratch = (tag, key, cached[2])
    return cached[2]
