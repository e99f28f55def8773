"""Explicit fixed-step and embedded-error Runge-Kutta steppers.

All steppers share one calling convention: the system is a callable
``system(x, dxdt, t)`` that writes the derivative into ``dxdt``.
``do_step`` advances in place when no output state is given and leaves
``x`` untouched when one is; both paths perform the identical sequence
of floating point operations.  NaNs produced by the system propagate
unrepaired.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import MAX_TERMS, scratch
from .errors import DimensionError
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


class ExplicitRungeKutta:
    """Fixed-step explicit Runge-Kutta scheme over a Butcher tableau.

    Scratch buffers are sized lazily on first use and reused, so a step
    allocates no state-sized memory.  Instances keep per-call scratch
    and must not be shared between concurrent integrations.

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
        self._scratch = None

    def _bind(self, algebra, k):
        # Once per buffer set (k: the stage derivatives, then the stage
        # state): each update's kernel, nonzero weights and the buffers
        # they scale, for the stages, the solution and the error.
        def update(weights, lead):
            idx = [j for j, w in enumerate(weights) if w != 0.0]
            n = len(idx) + lead
            if not 1 <= n <= MAX_TERMS:
                raise ValueError(f"{self.tableau.name}: {n} terms in one update;"
                                 f" the algebra takes 1..{MAX_TERMS}")
            return algebra._kernel(n), tuple(weights[j] for j in idx), tuple(k[j] for j in idx)

        tableau = self.tableau
        # A first-same-as-last stage state is the new state itself, and
        # its derivative has zero weight, so its row is left out.
        rows = tableau.a[:-1] if self.fsal else tableau.a
        stages = tuple(
            update(row, 1) + (k[i], tableau.c[i]) for i, row in enumerate(rows, start=1)
        )
        ew = tableau.error_weights
        return stages, update(tableau.b, 1), None if ew is None else update(ew, 0)

    @staticmethod
    def _run_stages(stages, system, x, t, dt, u):
        for kernel, weights, terms, k_i, c_i in stages:
            kernel(u, (1.0, *[dt * w for w in weights]), (x, *terms))
            system(u, k_i, t + c_i * dt)

    @staticmethod
    def _combine(combine, x, dt, target):
        kernel, weights, terms = combine
        return kernel(target, (1.0, *[dt * w for w in weights]), (x, *terms))

    def do_step(self, system, x, t, dt, out=None):
        """Advance ``x`` from ``t`` by ``dt``.

        Overwrites ``x`` when ``out`` is None, otherwise writes the new
        state into ``out`` and leaves ``x`` unchanged.  Returns the
        updated state.
        """
        _, k, (stages, combine, _) = scratch(self, x, self.stage_count + 1, self._bind)
        _check_lengths(x, out)
        system(x, k[0], t)
        self._run_stages(stages, system, x, t, dt, k[-1])
        return self._combine(combine, x, dt, x if out is None else out)


def _check_lengths(x, *given):
    for state in given:
        if state is not None and len(state) != len(x):
            raise DimensionError(f"length {len(state)} does not match state length {len(x)}")


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
        s = self.stage_count
        algebra, k, (stages, combine, error) = scratch(self, x, s + 1, self._bind)
        _check_lengths(x, out, xerr, dxdt_in)
        if dxdt_in is None:
            system(x, k[0], t)
        else:
            algebra.copy(k[0], dxdt_in)
        # A first-same-as-last stage is evaluated at the new state.
        self._run_stages(stages, system, x, t, dt, k[-1])
        target = self._combine(combine, x, dt, x if out is None else out)
        if self.fsal:
            system(target, k[s - 1], t + dt)
        if xerr is None:
            xerr = algebra.clone_shape(k[0])
        kernel, weights, terms = error
        kernel(xerr, [dt * w for w in weights], terms)
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
