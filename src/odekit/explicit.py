"""Explicit fixed-step and embedded-error Runge-Kutta steppers.

All steppers share one calling convention: the system is a callable
``system(x, dxdt, t)`` that writes the derivative into ``dxdt``.
``do_step`` advances in place when no output state is given and leaves
``x`` untouched when one is; both paths perform the identical sequence
of floating point operations.  NaNs produced by the system propagate
unrepaired.  Steps run generated code (see ``algebra``'s module
docstring), whose stage rows also build the trials of ``controlled``,
where the error test lives.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial

from .algebra import MAX_TERMS, Scratched, _entry_lines, _held, _indent, _make, _update_lines, scratch
from .tableaus import CASH_KARP_54, DORMAND_PRINCE_54, EULER, RK4_CLASSIC

class StageRecord(namedtuple("StageRecord", ["derivatives"])):
    """Stage derivatives retained from the latest step.

    The entries are the stepper's live scratch buffers: read or copy
    them before the next call, which overwrites them.
    """

    @property
    def new_derivative(self):
        """Derivative at the accepted new state (last-stage evaluation)."""
        return self.derivatives[-1]


class ExplicitRungeKutta(Scratched):
    """Fixed-step explicit Runge-Kutta scheme over a Butcher tableau.

    Scratch buffers are sized lazily on first use and reused; on numpy
    an update's later terms not weighted 1.0 or -1.0 make a temporary each.
    Instances keep per-call scratch and must not be shared between
    concurrent integrations.

    Parameters
    ----------
    tableau : ButcherTableau
        Stage coefficients; zero entries are skipped at set-up time.
    algebra : Algebra, optional
        State backend.  Defaults to whatever matches the state passed
        to the first call.
    """

    def __init__(self, tableau, algebra=None):
        self.tableau = tableau
        self.order = tableau.order
        self.error_order = tableau.error_order
        self.stage_count = tableau.stage_count
        self.fsal = tableau.is_fsal
        self._fixed_algebra = algebra

    def _bind(self, algebra, k, x):
        # Once per buffer set (k: stage derivatives, then stage state): the generated step, inline
        # for the length on the sequence backend (with the do_step entry), else on kernels; its pieces.
        pieces, make = _step_code(self.tableau, algebra._fused_length(x))
        return (*make(algebra._kernel, k, self, type(x), len(x)), pieces, (algebra._kernel, k))

    def do_step(self, system, x, t, dt, out=None):
        """Advance ``x`` from ``t`` by ``dt``.

        Overwrites ``x`` when ``out`` is None, otherwise writes the new
        state into ``out`` and leaves ``x`` unchanged.  Returns the
        updated state.
        """
        algebra, k, _, (advance, *_) = scratch(self, x, self.stage_count + 1, self._bind)
        if out is not None:
            algebra._check_shapes(x, out)
        system(x, k[0], t)
        return advance(system, x, t, dt, x if out is None else out)

    # The fixed-step loop's step on x, as pieces, and its make's arguments.
    do_step._inline = lambda self, x: scratch(self, x, self.stage_count + 1, self._bind)[3][2:]


def _update(tableau, n, out, weights, lead, at="{}[{}]".format):
    """The update of ``out`` by ``weights`` on the stages ``k<j>``,
    after ``x`` when ``lead`` is 1, elements named by ``at``."""
    idx = [j for j, w in enumerate(weights) if w != 0.0]
    k = len(idx) + lead
    if not 1 <= k <= MAX_TERMS:
        raise ValueError(f"{tableau.name}: {k} terms in one update;"
                         f" the algebra takes 1..{MAX_TERMS}")
    coeffs = ["1.0"] * lead + [f"dt * {float(weights[j])!r}" for j in idx]
    terms = ["x"] * lead + [f"k{j}" for j in idx]
    return _update_lines(n, out, coeffs, terms, at)


def _stages(tableau, update, unpack):
    """Lines running the stages after the first, each update made by
    ``update(out, weights, lead)`` and each stage's ``unpack`` lines
    after its call.  A first-same-as-last stage state is the new state
    itself, and its derivative has zero weight, so its row is left out."""
    lines = []
    for i, row in enumerate(tableau.a[:-1] if tableau.is_fsal else tableau.a, start=1):
        lines += [*update("u", row, 1), f"system(u, k{i}, t + {float(tableau.c[i])!r} * dt)", *unpack(f"k{i}")]
    return lines


@lru_cache(maxsize=64)
def _step_code(tableau, n=None):
    """Straight-line step code for ``tableau``, generated once per
    tableau value and length ``n``: ``(pieces, make)``.  ``make(kernel,
    k, owner, T, N)`` binds the kernels by term count and the buffers,
    and returns ``advance(system, x, t, dt, target)``, which runs the
    stages after the first and writes the solution, and ``error(dt,
    xerr)`` (None without embedded weights).  With ``n`` None every
    update is a kernel call; with a length (see ``Algebra._fused_length``)
    it is written inline, and ``owner`` gets its ``do_step`` entry for
    a ``T`` of length ``N`` (``algebra._enter``); ``pieces`` are the
    entry's whole step, plain code that ``integrate._fixed_code`` runs
    and counts.  Zero weights are left out, the others are exact
    floats: the stage loop's bits, read from ``algebra._held``'s locals."""
    update = partial(_update, tableau, n)
    step = _held(n, lambda at, unpack: [*unpack("x"), *unpack("k0"), *_stages(
        tableau, partial(update, at=at), unpack), *update("target", tableau.b, 1, at)])
    body = ["def advance(system, x, t, dt, target):", *_indent(step + ["return target"])]
    ew = tableau.error_weights
    body += ["error = None"] if ew is None else [
        "def error(dt, xerr):", *_indent(update("xerr", ew, 0) + ["return xerr"])]
    body += _entry_lines(n, "system, x, t, dt, out=None", ["target = x if out is None else out"],
                         "type(x) is T and len(x) == len(target) == N", ["system(x, k0, t)", *step, "return target"])
    head = f"{''.join(f'k{j}, ' for j in range(tableau.stage_count))}u = k"
    key = f"{tableau.name} n={n}"
    pieces = (key, n is None, (head, "target = x"), ("system(x, k0, t)", *step))
    return pieces, _make(n is None, "k, owner, T, N", [head, *body], "advance, error", f"step {key}",
                         fallback=ExplicitRungeKutta.do_step)


class EmbeddedRungeKutta(ExplicitRungeKutta):
    """Explicit pair producing a solution and an error estimate.

    When the tableau is first-same-as-last (``tableau.is_fsal``), the
    last stage derivative is evaluated at the accepted new state, so it
    doubles as the first stage of the following step.  Callers chain
    steps by feeding ``StageRecord.new_derivative`` back through
    ``dxdt_in``, which saves one system evaluation per step.
    """

    def __init__(self, tableau, algebra=None):
        if tableau.b_embedded is None:
            raise ValueError(f"{tableau.name}: embedded weights required")
        super().__init__(tableau, algebra)

    def do_step_with_error(self, system, x, t, dt, out=None, xerr=None, dxdt_in=None):
        """As ``do_step`` but also fills ``xerr`` with the embedded
        error estimate.  ``dxdt_in``, when given, is ``f(x, t)``
        (typically the previous step's ``new_derivative``) and replaces
        the first stage evaluation; omit it whenever ``x`` was modified
        externally.  Returns ``(new_state, xerr)``, plus the
        :class:`StageRecord` for a first-same-as-last pair.
        """
        s, t, dt = self.stage_count, float(t), float(dt)
        algebra, k, copy, (advance, error, *_) = scratch(self, x, s + 1, self._bind)
        algebra._check_shapes(x, out, xerr, dxdt_in)
        if dxdt_in is None:
            system(x, k[0], t)
        else:
            copy(k[0], dxdt_in)
        target = advance(system, x, t, dt, x if out is None else out)
        # A first-same-as-last stage is evaluated at the new state.
        if self.fsal:
            system(target, k[s - 1], t + dt)
        if xerr is None:
            xerr = algebra.clone_shape(k[0])
        error(dt, xerr)
        if self.fsal:
            return target, xerr, StageRecord(tuple(k[:s]))
        return target, xerr


class ExplicitEuler(ExplicitRungeKutta):
    """First order explicit Euler: ``x + dt * f(x, t)``."""

    def __init__(self, algebra=None):
        super().__init__(EULER, algebra)


class RungeKutta4(ExplicitRungeKutta):
    """The classical fourth order scheme with weights 1/6, 1/3, 1/3, 1/6."""

    def __init__(self, algebra=None):
        super().__init__(RK4_CLASSIC, algebra)


class CashKarp54(EmbeddedRungeKutta):
    """Cash-Karp 5(4): six stages, fifth order solution, embedded
    fourth order comparison.

    References
    ----------
    Cash, J. R., Karp, A. H., "A variable order Runge-Kutta method for
    initial value problems with rapidly varying right-hand sides",
    ACM Transactions on Mathematical Software 16 (1990) 201-222.
    """

    def __init__(self, algebra=None):
        super().__init__(CASH_KARP_54, algebra)


class DormandPrince5(EmbeddedRungeKutta):
    """Dormand-Prince 5(4) with first-same-as-last stage reuse.

    The seventh stage derivative is evaluated at the accepted new state,
    so chained steps cost six fresh system evaluations each.  The full
    stage record also feeds the dense output interpolant.

    References
    ----------
    Dormand, J. R., Prince, P. J., "A family of embedded Runge-Kutta
    formulae", Journal of Computational and Applied Mathematics 6
    (1980) 19-26.
    """

    def __init__(self, algebra=None):
        super().__init__(DORMAND_PRINCE_54, algebra)
