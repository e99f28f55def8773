"""Elementwise state operations decoupled from the state container.

Steppers never index into states themselves.  Every elementwise
update goes through an :class:`Algebra`, so the same stepper code
drives numpy arrays, Python lists, or any other indexable container an
algebra knows how to handle.  Both shipped backends perform the
floating point operations of ``scale_sum`` in the same left-to-right
order, which keeps trajectories bit-identical across containers.

Only this module decides which backend handles a state
(:func:`algebra_of`), how states are checked and which kernels run:
one shape rule checks every buffer a caller passes before any
evaluation; one override rule (class or instance) for ``scale_sum``,
``copy`` and ``error_ratio_max`` is fixed when a stepper binds.

The sequence backend's code is generated per state length, and one
function, :func:`_update_lines`, writes every update in it: one
statement per element up to ``UNROLL`` elements, one loop beyond.  A
stepper binding a sequence state gets the copy and the error ratio
generated for its length and writes its updates inline, the
controller its whole trial; on numpy states, and wherever any of the
three methods is replaced, the same generated code calls the kernels
(see ``Algebra._fused_length``), each on one scaffold, :func:`_make`.
On a sequence state a fixed-step stepper's whole step is also its
instance's own ``do_step``, behind one guard on the state's type and
length (:func:`_enter`); any other call runs the class's method.
``integrate_const`` runs neither: its generated loop runs a shipped
explicit stepper's step inline, on every backend.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError

# A seven-stage embedded pair needs at most seven terms in one update.
MAX_TERMS = 7
# Generated sequence code writes one statement per element for states
# up to this length, and one loop for longer ones.
UNROLL = 8


class Algebra:
    """Operations a state backend must provide: ``scale_sum``,
    ``clone_shape``, ``error_ratio_max`` and ``copy``.  These are the
    vector operations the steppers share; implicit Euler's Newton
    matrix, solve and norms run on numpy directly.

    ``scale_sum`` is the workhorse: a fused linear combination
    ``out[i] = sum_j coeffs[j] * terms[j][i]`` written in one pass.
    ``out`` may alias ``terms[0]`` (that is how in-place stepping
    works) but must not alias any later term.

    One shape rule, ``_shape``, checks every state a public call or a
    stepper's caller hands in, before any evaluation.  A ``scale_sum``,
    ``copy`` or ``error_ratio_max`` replaced on the class or on the
    instance receives every such call, the others run as unchecked
    kernels or, on a sequence backend that replaces none of the three,
    as code written inline; a stepper fixes that choice when it binds
    its scratch.
    """

    # ``_kernels(k)``: the unchecked scale_sum body of k terms, on a
    # backend whose scale_sum is the argument check followed by it.
    _kernels = None
    # ``_ratio(w, v)``: the unchecked error ratio computing in states w
    # and v, on a backend whose error_ratio_max checks, then runs it.
    _ratio = None
    _shape = len  # what two states must share; the shape on numpy

    def scale_sum(self, out, coeffs, terms):
        if self._kernels is None:
            raise NotImplementedError
        k = len(coeffs)
        if k != len(terms):
            raise DimensionError(f"got {k} coefficients for {len(terms)} terms")
        if not 1 <= k <= MAX_TERMS:
            raise ValueError(f"scale_sum supports 1..{MAX_TERMS} terms, got {k}")
        self._check_shapes(out, *terms)
        return self._kernels(k)(out, coeffs, terms)

    def _fused_length(self, x):
        """The length the updates on ``x`` are generated for, every
        length past ``UNROLL`` as ``UNROLL + 1`` (one loop); None where
        they are kernel calls: on every backend but the sequence one,
        and wherever ``scale_sum``, ``copy`` or ``error_ratio_max`` is
        replaced."""
        return None

    def _replaced(self, name):
        """Whether the class or the instance replaced Algebra's method ``name``."""
        return getattr(self, name) != getattr(Algebra, name).__get__(self)

    def _kernel(self, k):
        """Unchecked ``scale_sum`` of ``k`` terms, unless absent or replaced."""
        if self._kernels is None or self._replaced("scale_sum"):
            return self.scale_sum
        return self._kernels(k)

    def _copy_kernel(self, x):
        """Unchecked copy on states like ``x``, unless replaced: inline
        for the length generated, else a one-term kernel call."""
        n = self._fused_length(x)
        if n is not None:
            return _sequence_copy(n)
        if self._replaced("copy"):
            return self.copy
        one = self._kernel(1)
        return lambda out, src: one(out, (1.0,), (src,))

    def _error_kernel(self, buffers):
        """Unchecked error ratio in the last two of ``buffers``, unless absent or replaced."""
        if self._ratio is None or self._replaced("error_ratio_max"):
            return self.error_ratio_max
        return self._ratio(*buffers[-2:])

    def _check_shapes(self, x, *given):
        """Raise :class:`DimensionError` unless each state given has x's shape."""
        shape = self._shape(x)
        for state in given:
            if state is not None and self._shape(state) != shape:
                raise DimensionError(f"shape {self._shape(state)} does not match {shape}")

    def clone_shape(self, src):
        """New zero-filled floating state with the same length and
        container as ``src``."""
        raise NotImplementedError

    def error_ratio_max(self, xerr, x, dxdt, atol, rtol, dt) -> float:
        """max_i |xerr_i| / (atol + rtol * (|x_i| + |dt| * |dxdt_i|))."""
        if self._ratio is None:
            raise NotImplementedError
        self._check_shapes(x, xerr, dxdt)
        _refuse_empty(x, "the error ratio of an empty state is undefined")
        return self._ratio(self.clone_shape(x), self.clone_shape(x))(xerr, x, dxdt, atol, rtol, dt)

    def copy(self, out, src):
        """Copy ``src`` into ``out``; a one-term ``scale_sum``."""
        self._check_shapes(out, src)
        return self._kernel(1)(out, (1.0,), (src,))


def _numpy_scale_sum(out, coeffs, terms):
    # Accumulate strictly left to right; same rounding sequence as the
    # sequence backend.
    np.multiply(terms[0], coeffs[0], out=out)
    for c, term in zip(coeffs[1:], terms[1:]):
        out += np.multiply(term, c)
    return out


def _each(n, length, row):
    """Lines running the statement ``row(i)`` on every element ``i``:
    one line per element for a length ``n <= UNROLL``, else one loop
    over ``range(length)``."""
    if n <= UNROLL:
        return [row(i) for i in range(n)]
    return [f"for i in range({length}):", f"    {row('i')}"]


def _update_lines(n, out, coeffs, terms, at="{}[{}]".format):
    """Lines writing ``out[i] = c0 * t0[i] + c1 * t1[i] + ...``, added
    left to right, for the coefficient expressions ``coeffs`` (each
    evaluated once, first) and the term names ``terms``: with ``n``
    None a call of the kernel ``K<k>`` of the k terms, else inline for
    states of length ``n`` (see :func:`_each`).  Every generated update
    is written here, so every one has the same bits.  Inline, a first
    coefficient ``1.0`` followed by other terms is left out: that
    product is exact.  ``at(term, i)`` names element ``i`` of a term.  An
    ``out`` ``out(i, value)`` instead of a name gives the statement that
    uses element ``i``'s value, on every element of the first term."""
    if n is None:
        return [f"K{len(terms)}({out}, ({', '.join(coeffs)},), ({', '.join(terms)},))"]
    c = [f"c{j}" for j in range(len(coeffs))]
    skip = int(len(coeffs) > 1 and coeffs[0] == "1.0")
    value = lambda i: " + ".join([at(terms[0], i)] * skip + [
        f"{cj} * {at(t, i)}" for cj, t in zip(c[skip:], terms[skip:])])
    if callable(out):
        row, length = (lambda i: out(i, value(i))), f"len({terms[0]})"
    else:
        row, length = (lambda i: f"{out}[{i}] = {value(i)}"), f"len({out})"
    return [f"{', '.join(c[skip:])}, = {', '.join(coeffs[skip:])},", *_each(n, length, row)]


def _define(name, args, lines, **names):
    """The function ``def name(args)``, body ``lines``, globals ``names``."""
    exec(f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in lines), names)
    return names[name]


def _indent(lines, depth=1):
    return [" " * 4 * depth + line for line in lines]


def _make(kernels, args, lines, returns, **names):
    """Every generator's ``make(kernel, <args>)``: it binds ``K<k>``, the
    kernel of k terms, when ``kernels`` is set (``n`` None), runs
    ``lines`` and returns ``returns``; ``names`` and :func:`_enter` are its globals."""
    terms = range(1, MAX_TERMS + 1)
    head = [f"{', '.join(f'K{k}' for k in terms)} = map(kernel, {terms!r})"] if kernels else []
    return _define("make", f"kernel, {args}", [*head, *lines, f"return {returns}"], _enter=_enter, **names)


# The generated sequence code is cached per term count k <= MAX_TERMS
# or length n <= UNROLL + 1, so these caches stay bounded.
@lru_cache(maxsize=None)
def _sequence_scale_sum(k):
    """Unchecked scale_sum of ``k`` terms on sequences of any length: one loop."""
    t = [f"t{j}" for j in range(k)]
    coeffs = [f"coeffs[{j}]" for j in range(k)]
    return _define("scale_sum", "out, coeffs, terms",
                   [f"{', '.join(t)}, = terms", *_update_lines(UNROLL + 1, "out", coeffs, t), "return out"])


@lru_cache(maxsize=None)
def _sequence_copy(n):
    """Unchecked copy on sequences of length ``n``: a one-term update."""
    return _define("copy", "out, src", [*_update_lines(n, "out", ["1.0"], ["src"]), "return out"])


def _ratio_lines(rows, dxdt):
    """Lines leaving the error ratio in ``worst``, NaN propagated:
    ``rows(row)`` runs ``row(i, e)``, the statement folding element
    ``i`` with error ``e``, on every element; ``dxdt`` names the
    derivative at ``x``.  A zero scale divides as numpy does, NaN for
    a zero error and inf for any other."""
    scale = lambda i: f"(atol + rtol * (abs(x[{i}]) + adt * abs({dxdt}[{i}])))"
    fold = "worst = r if r > worst or r != r else worst"
    return ["adt, worst = abs(dt), 0.0", *rows(lambda i, e: (
        f"r, s = abs({e}), {scale(i)}; r = r / s if s else r * float('inf'); {fold}")), "worst = float(worst)"]


@lru_cache(maxsize=None)
def _sequence_ratio(n):
    """Unchecked error ratio on sequences of length ``n`` (see :func:`_ratio_lines`)."""
    rows = lambda row: _each(n, "len(x)", lambda i: row(i, f"xerr[{i}]"))
    return _define("ratio", "xerr, x, dxdt, atol, rtol, dt", [*_ratio_lines(rows, "dxdt"), "return worst"])


def _numpy_error_ratio(w, v):
    # The formula's operations and operands, in place: same bits, no
    # temporary.  A zero scale's NaN or inf quotient is silent, as in
    # the sequence code.
    def ratio(xerr, x, dxdt, atol, rtol, dt):
        np.multiply(np.abs(dxdt, out=w), abs(dt), out=w)
        np.add(np.abs(x, out=v), w, out=w)
        np.add(np.multiply(w, rtol, out=w), atol, out=w)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.abs(xerr, out=v), w, out=v)
        return float(v.max())

    return ratio


class NumpyAlgebra(Algebra):
    """Vectorized backend for ``numpy.ndarray`` states."""

    _kernels = staticmethod(lambda k: _numpy_scale_sum)
    _ratio = staticmethod(_numpy_error_ratio)
    _shape = staticmethod(lambda state: getattr(state, "shape", None) or np.shape(state))

    def clone_shape(self, src):
        # Integer and boolean states get a float64 clone; float32 stays.
        return np.zeros_like(src, dtype=np.result_type(src, 0.0))


class SequenceAlgebra(Algebra):
    """Pure Python backend for mutable sequences of floats.

    Works on ``list`` out of the box and on any container exposing
    ``__len__``, ``__getitem__``, and ``__setitem__`` whose class can be
    constructed from an iterable of floats.
    """

    _kernels = staticmethod(_sequence_scale_sum)
    _ratio = staticmethod(lambda w, v: _sequence_ratio(min(len(w), UNROLL + 1)))

    def _fused_length(self, x):
        if any(map(self._replaced, ("scale_sum", "copy", "error_ratio_max"))):
            return None
        return min(len(x), UNROLL + 1)

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


def algebra_of(owner, x) -> Algebra:
    """The backend ``owner`` pins in ``_fixed_algebra``, else the default for ``x``."""
    algebra = getattr(owner, "_fixed_algebra", None)
    return algebra_for(x) if algebra is None else algebra


def _refuse_empty(x, message):
    """Raise :class:`DimensionError` with ``message`` when ``x`` holds no element."""
    if 0 in getattr(x, "shape", (len(x),)):
        raise DimensionError(message)


def _readonly(x, fresh=False):
    """Read-only snapshot of ``x``: a tuple, or a read-only numpy copy;
    a ``fresh`` numpy state, one no other code holds, is not copied."""
    if not isinstance(x, np.ndarray):
        return tuple(x)
    if not fresh:
        x = x.copy()
    x.flags.writeable = False
    return x


def _initial_copy(owner, x0):
    """``owner``'s backend and its copy of a run's initial state, refused if 0-d, empty or non-finite."""
    if getattr(x0, "ndim", None) == 0:
        raise DimensionError("the initial state is a 0-d array, with no length; give it 1 element")
    algebra = algebra_of(owner, x0)
    x = algebra.clone_shape(x0)
    algebra.copy(x, x0)
    _refuse_empty(x, "the initial state is empty")
    if not np.isfinite(x).all():
        raise ValueError("the initial state is not finite")
    return algebra, x


class Scratched:
    """Base of every stepper :func:`scratch` binds.  The buffers and
    generated code it caches, the attributes named in ``_caches`` and
    its :func:`_enter` entry are left out when the stepper is pickled
    or copied: generated code has no importable name, and a copy
    sharing it would write into the original's buffers.  The copy
    binds again, its own entry too, at its first step."""

    _scratch = None
    _caches = ("_scratch",)

    def __getstate__(self):
        state = {**self.__dict__, **dict.fromkeys(self._caches)}
        return {k: v for k, v in state.items() if not (k == "do_step" and hasattr(v, "_fallback"))}


def _entry_lines(n, args, head, guard, lines):
    """Lines handing :func:`_enter` ``entry(args)`` (None for ``n`` None): ``lines``
    where ``guard`` holds after ``head``, else the shipped ``fallback`` on ``owner``."""
    if n is None:
        return ["_enter(owner, None, fallback)"]
    return ["def entry(" + args + "):", *_indent(head), f"    if {guard}:", *_indent(lines, 2),
            f"    return fallback(owner, {args.replace('=None', '')})", "_enter(owner, entry, fallback)"]


def _enter(owner, entry, shipped):
    """Make ``entry`` (None: none) ``owner.do_step`` unless its class overrides ``shipped``,
    the method it falls back to.  A ``do_step`` not made here is never replaced."""
    current = vars(owner).get("do_step")
    if current is None or hasattr(current, "_fallback"):
        vars(owner).pop("do_step", None)
        if entry is not None and type(owner).do_step is shipped:
            vars(entry).update(vars(shipped), _fallback=shipped)  # shipped's marks, for the drivers
            owner.do_step = entry


def scratch(owner, x, count, bind):
    """Backend for ``x``, ``count`` zero states shaped like it (or
    ``count(algebra, x)``), the copy, and ``bind(algebra, buffers, x)``.

    The backend is :func:`algebra_of` ``owner``.  ``owner._scratch``
    caches ``(tag, result)``: a call whose tag, ``type(x)`` and
    ``len(x)`` (shape and dtype for numpy states), matches returns the
    cached result at once; a fixed step through its :func:`_enter`
    entry skips even that.  Any other state is refused when empty,
    else gets new buffers, checked and bound again, so a stepper
    answers it as a fresh one would.  A step makes no buffers of its
    own, but on numpy each kernel update of k terms still allocates
    k - 1 state-sized temporaries.  The copy is
    ``Algebra._copy_kernel``'s.  Returns ``(algebra, buffers, copy,
    bound)``.
    """
    tag = (x.shape, x.dtype) if isinstance(x, np.ndarray) else (type(x), len(x))
    cached = owner._scratch
    if cached is not None and cached[0] == tag:
        return cached[1]
    _refuse_empty(x, "an empty state cannot be stepped")
    algebra = algebra_of(owner, x)
    if callable(count):
        count = count(algebra, x)
    buffers = [algebra.clone_shape(x) for _ in range(count)]
    algebra._check_shapes(x, *buffers)
    owner._scratch = (tag, (algebra, buffers, algebra._copy_kernel(x), bind(algebra, buffers, x)))
    return owner._scratch[1]
