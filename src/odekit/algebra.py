"""Elementwise state operations decoupled from the state container.

Steppers never index into states themselves.  Every elementwise
update goes through an :class:`Algebra`, so the same stepper code
drives numpy arrays, Python lists, or any other indexable container an
algebra knows how to handle.  Both shipped backends perform the
floating point operations of ``scale_sum`` in the same left-to-right
order, which keeps trajectories bit-identical across containers.

Only this module decides which backend handles a state
(:func:`algebra_of`), which snapshot a run's observers get
(:func:`_snapshot`), how states are checked and which kernels run:
one shape rule checks every buffer a caller passes before any
evaluation; one override rule (class or instance) for ``scale_sum``,
``copy`` and ``error_ratio_max`` is fixed when a stepper binds; an
unreplaced copy is the one-term update, numpy's too.

The sequence backend's code is generated per state length, and one
function, :func:`_update_lines`, writes every update in it: one
statement per element up to ``UNROLL`` elements, where each state
the updates read is read once, into locals, after its last write
(:func:`_held`), and one loop beyond.  A stepper binding a sequence
state gets the copy and the error ratio generated for its length and
writes its updates inline, the controller its whole trial; on numpy
states, and wherever any of the three methods is replaced, the same
generated code calls the kernels (see ``Algebra._fused_length``), each
on one scaffold, :func:`_make`, which binds the kernels its lines call,
under a file name of its own (:func:`_define`).
On a sequence state a fixed-step stepper's whole step is also its
instance's own ``do_step``, behind one guard on the state's type and
length (:func:`_enter`); any other call runs the class's method.
Each stepper binds a state type once (:func:`scratch`), into one
:class:`Bound` that the drivers read (``Scratched._record``) for the
``pieces`` they run inline on every backend (see ``integrate``); a
bind compiles nothing, and the code only a manual call runs, an entry
too, is compiled on that call (:func:`_lazy_make`, :func:`_bound`).
"""

from __future__ import annotations

import linecache
import math
import re
from collections import namedtuple
from functools import cache, lru_cache, partial

import numpy as np

from .errors import DimensionError

# Generated sequence code writes one statement per element for states
# up to this length, and one loop for longer ones.
UNROLL = 8
# A stepper's binding for one state type: manual step (a thunk), inline pieces and their make's args, dense output.
Bound = namedtuple("Bound", "step pieces args dense", defaults=(None,) * 3)
# Whether every element of a state is finite: numpy's test on an array, else math.isfinite on each element.
_finite = lambda x: np.isfinite(x).all() if isinstance(x, np.ndarray) else all(map(math.isfinite, x))


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
        """One term or more.  On sequences the sum is one generated expression,
        whose compile depth bounds the count: CPython 3.11 compiles 2500
        terms and raises ``RecursionError`` at 3000, before ``out`` is written."""
        if self._kernels is None:
            raise NotImplementedError
        k = len(coeffs)
        if k != len(terms):
            raise DimensionError(f"got {k} coefficients for {len(terms)} terms")
        if not k:
            raise ValueError("scale_sum needs at least one term")
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
        return name in vars(self) or getattr(type(self), name) is not getattr(Algebra, name)

    def _kernel(self, k):
        """Unchecked ``scale_sum`` of ``k`` terms, unless absent or replaced."""
        if self._kernels is None or self._replaced("scale_sum"):
            return self.scale_sum
        return self._kernels(k)

    def _copy_kernel(self, x):
        """Unchecked copy on states like ``x``, unless replaced: inline
        for the length generated, else a one-term kernel call, numpy's
        too: ``out[...] = src``, or a multiply by 1.0 across dtypes."""
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
    # Accumulate strictly left to right, as the sequence backend does. An exact
    # 1.0 or -1.0 is no multiply (1.0 * t is t, a + -1.0 * t is a - t); a first
    # term is copied only from out's dtype (int64 into float32 rounds once where
    # the multiply rounds twice), into out by the first add or subtract if any.
    acc = terms[0]
    if coeffs[0] != 1.0 or getattr(acc, "dtype", None) is not out.dtype:
        acc = np.multiply(acc, coeffs[0], out=out)
    for c, term in zip(coeffs[1:], terms[1:]):
        if c == 1.0 or c == -1.0:
            acc = (np.add if c == 1.0 else np.subtract)(acc, term, out=out)
        else:
            acc = np.add(acc, np.multiply(term, c), out=out)
    if acc is not out:
        out[...] = acc
    return out


def _each(n, length, row):
    """Lines running the statement ``row(i)`` on every element ``i``:
    one line per element for a length ``n <= UNROLL``, else one loop
    over ``range(length)``."""
    if n <= UNROLL:
        return [row(i) for i in range(n)]
    return [f"for i in range({length}):", f"    {row('i')}"]


def _update_lines(n, out, coeffs, terms, at="{}[{}]".format):
    """Lines writing ``out[i] = c0 * t0[i] + c1 * t1[i] + ...``, added left to
    right, for the coefficients ``coeffs`` (an expression bound once, one name
    per line, a name read as it is) and the term names ``terms``: with ``n``
    None a call of the kernel ``K<k>`` of the k terms, else inline for
    states of length ``n`` (see :func:`_each`).  Every generated update
    is written here, so every one has the same bits.  Inline, as in the
    numpy kernel, a first ``1.0`` followed by other terms is left out and
    a later ``1.0`` or ``-1.0`` adds or subtracts its term: both exact.
    ``at(term, i)`` names element ``i`` of a term.  An
    ``out`` ``out(i, value)`` instead of a name gives the statement that
    uses element ``i``'s value, on every element of the first term."""
    if n is None:
        return [f"K{len(terms)}({out}, ({', '.join(coeffs)},), ({', '.join(terms)},))"]
    bare = [len(coeffs) > 1 and coeffs[0] == "1.0", *(cj in ("1.0", "-1.0") for cj in coeffs[1:])]
    c = [j for j in range(len(coeffs)) if not (bare[j] or coeffs[j].isidentifier())]
    sign = lambda j: ("- " if coeffs[j] == "-1.0" else "+ ") if j else ""
    times = lambda j: "" if bare[j] else f"c{j} * " if j in c else f"{coeffs[j]} * "
    value = lambda i: " ".join(sign(j) + times(j) + at(t, i) for j, t in enumerate(terms))
    if callable(out):
        row, length = (lambda i: out(i, value(i))), f"len({terms[0]})"
    else:
        row, length = (lambda i: f"{out}[{i}] = {value(i)}"), f"len({out})"
    return [*(f"c{j} = {coeffs[j]}" for j in c), *_each(n, length, row)]


def _held(n, code):
    """``code(at, unpack)``, each state it offers read into locals ``<state>_<i>`` (``at(state, i)``) by its
    ``unpack(state)`` line, up to ``UNROLL`` elements: a state is offered only once final, so no local goes stale."""
    held = set()
    return code(lambda state, i: f"{state}_{i}" if state in held else f"{state}[{i}]",
                lambda state: held.add(state) or [f"{''.join(f'{state}_{i}, ' for i in range(n))}= {state}"]
                if n and n <= UNROLL else [])


def _define(name, args, lines, key, **names):
    """The function ``def name(args)``, body ``lines``, globals ``names``,
    compiled as the file ``<odekit key>``, made unique per source, whose
    lines ``linecache`` holds (with no mtime, so ``checkcache`` keeps
    them) for tracebacks, ``inspect`` and profilers."""
    source = f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in lines)
    text, filename, count = source.splitlines(True), f"<odekit {key}>", 1
    while linecache.cache.setdefault(filename, (len(source), None, text, filename))[2] != text:
        filename, count = f"<odekit {key} #{count}>", count + 1
    exec(compile(source, filename, "exec"), names)
    return names[name]


def _indent(lines, depth=1):
    return [" " * 4 * depth + line for line in lines]


def _make(args, lines, returns, key, **names):
    """Every generator's ``make(kernel, <args>)``, named by ``key`` (see
    :func:`_define`): it binds ``K<k>``, the kernel of k terms, for each
    ``K<k>(`` call in ``lines``, runs ``lines`` and returns ``returns``;
    ``names`` and :func:`_enter` are its globals."""
    called = tuple(sorted({int(k) for k in re.findall(r"\bK(\d+)\(", "\n".join(lines))}))
    head = [f"{''.join(f'K{k}, ' for k in called)}= map(kernel, {called!r})"] if called else []
    return _define("make", f"kernel, {args}", [*head, *lines, f"return {returns}"], key, _enter=_enter, **names)


def _lazy_make(*make, **names):
    """``lazy()``, which compiles ``_make(*make, **names)`` on its first call and then returns it."""
    return cache(partial(_make, *make, **names))


def _bound(lazy, *args):
    """``entry()``, which returns ``lazy()(*args)``, made on its first call: ``entry()(...)`` runs no extra frame."""
    return cache(lambda: lazy()(*args))


# The generated sequence code is cached per term count k or length
# n <= UNROLL + 1: bounded by the term counts used and by UNROLL.
@lru_cache(maxsize=None)
def _sequence_scale_sum(k):
    """Unchecked scale_sum of ``k`` terms on sequences of any length: one loop."""
    t = [f"t{j}" for j in range(k)]
    coeffs = [f"coeffs[{j}]" for j in range(k)]
    return _define("scale_sum", "out, coeffs, terms",
                   [f"{', '.join(t)}, = terms", *_update_lines(UNROLL + 1, "out", coeffs, t), "return out"],
                   f"scale_sum k={k}")


@lru_cache(maxsize=None)
def _sequence_copy(n):
    """Unchecked copy on sequences of length ``n``: a one-term update."""
    return _define("copy", "out, src", [*_update_lines(n, "out", ["1.0"], ["src"]), "return out"], f"copy n={n}")


def _ratio_lines(rows, dxdt, at="{}[{}]".format):
    """Lines leaving the error ratio in ``worst``, NaN propagated:
    ``rows(row)`` runs ``row(i, e)``, the statement folding element
    ``i`` with error ``e``, on every element; ``dxdt`` names the
    derivative at ``x``, ``at`` elements.  A zero scale divides as
    numpy does, NaN for a zero error and inf for any other."""
    scale = lambda i: f"(atol + rtol * (abs({at('x', i)}) + adt * abs({at(dxdt, i)})))"
    fold = "worst = r if r > worst or r != r else worst"
    return ["adt, worst = abs(dt), 0.0", *rows(lambda i, e: (
        f"r, s = abs({e}), {scale(i)}; r = r / s if s else r * float('inf'); {fold}")), "worst = float(worst)"]


@lru_cache(maxsize=None)
def _sequence_ratio(n):
    """Unchecked error ratio on sequences of length ``n`` (see :func:`_ratio_lines`)."""
    rows = lambda row: _each(n, "len(x)", lambda i: row(i, f"xerr[{i}]"))
    return _define("ratio", "xerr, x, dxdt, atol, rtol, dt", [*_ratio_lines(rows, "dxdt"), "return worst"],
                   f"ratio n={n}")


def _numpy_error_ratio(w, v):
    # The formula's operations and operands, in place: same bits, no
    # temporary; the maximum by selection, numpy's bits, a first NaN too.
    # A zero scale's NaN or inf quotient is silent, as in the sequence code.
    def ratio(xerr, x, dxdt, atol, rtol, dt):
        np.multiply(np.abs(dxdt, out=w), abs(dt), out=w)
        np.add(np.abs(x, out=v), w, out=w)
        np.add(np.multiply(w, rtol, out=w), atol, out=w)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.abs(xerr, out=v), w, out=v)
        return v.item(v.argmax())

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


def _snapshot(x):
    """The observers' snapshot for a run on states like ``x``, chosen once: ``tuple``, or :func:`_readonly` on numpy."""
    return _readonly if isinstance(x, np.ndarray) else tuple


def _initial_copy(owner, x0):
    """``owner``'s copy of a run's initial state, made by its backend, refused if 0-d, empty or non-finite."""
    if getattr(x0, "ndim", None) == 0:
        raise DimensionError("the initial state is a 0-d array, with no length; give it 1 element")
    algebra = algebra_of(owner, x0)
    x = algebra.clone_shape(x0)
    _refuse_empty(x, "the initial state is empty")
    algebra._check_shapes(x, x0)
    algebra._copy_kernel(x)(x, x0)  # the copy a stepper binds: a replaced copy or scale_sum still runs
    if not _finite(x):
        raise ValueError("the initial state is not finite")
    return x


class Scratched:
    """Base of every stepper :func:`scratch` binds.  The buffers and
    generated code it caches, the attributes named in ``_caches`` and
    its :func:`_enter` entry are left out when the stepper is pickled
    or copied: generated code has no importable name, and a copy
    sharing it would write into the original's buffers.  The copy
    binds again, its own entry too, at its first step."""

    _scratch = None
    _caches = ("_scratch",)
    _record = lambda self, x: scratch(self, x)[3]  # the Bound for states like x, which the drivers read

    def __getstate__(self):
        state = {**self.__dict__, **dict.fromkeys(self._caches)}
        return {k: v for k, v in state.items() if not (k == "do_step" and hasattr(v, "_fallback"))}


def _entry_lines(n, args, head, guard, lines):
    """Lines handing :func:`_enter` ``entry(args)`` (none for ``n`` None): ``lines``
    where ``guard`` holds after ``head``, else the shipped ``fallback`` on ``owner``."""
    if n is None:
        return []
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


def scratch(owner, x):
    """Backend for ``x``, ``owner._count`` zero states shaped like it
    (or ``owner._count(algebra, x)``), the copy, and the :class:`Bound`
    ``owner._bind(algebra, buffers, x)``.

    The backend is :func:`algebra_of` ``owner``.  ``owner._scratch``
    caches ``(tag, result)``: a call whose tag, ``type(x)`` and
    ``len(x)`` (shape and dtype for numpy states), matches returns the
    cached result at once; a fixed step through its :func:`_enter`
    entry skips even that.  Any other state is refused when empty,
    else gets new buffers, checked and bound again, with no entry,
    so a stepper answers it as a fresh one would.  The copy is
    ``Algebra._copy_kernel``'s.  Returns ``(algebra, buffers, copy,
    bound)``.
    """
    tag = (x.shape, x.dtype) if isinstance(x, np.ndarray) else (type(x), len(x))
    cached = owner._scratch
    if cached is not None and cached[0] == tag:
        return cached[1]
    _refuse_empty(x, "an empty state cannot be stepped")
    algebra, count = algebra_of(owner, x), owner._count
    if callable(count):
        count = count(algebra, x)
    buffers = [algebra.clone_shape(x) for _ in range(count)]
    algebra._check_shapes(x, *buffers)
    _enter(owner, None, None)
    owner._scratch = (tag, (algebra, buffers, algebra._copy_kernel(x), owner._bind(algebra, buffers, x)))
    return owner._scratch[1]
