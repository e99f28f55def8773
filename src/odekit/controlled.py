"""Adaptive step size control around embedded-error steppers.

A trial step is accepted when its scaled error ratio is at most one;
otherwise the state and time stay untouched and the step width shrinks.
The next width follows the standard integral controller
``dt * SAFETY * ratio**(-1/(error_order+1))``, clamped to the growth
window ``[FAC_MIN, FAC_MAX]``; :func:`next_step_size` is its public
reference.  The controller around a trial is written once, by one
generator here: ``try_step`` runs it as a walk of one trial, the
drivers' walk inline.  ``algebra``'s module docstring says which code
a trial's updates run as.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, partial

from .algebra import Bound, Scratched, _bound, _each, _finite, _held, _indent, _lazy_make, _ratio_lines, _update_lines
from .errors import SolverError, StepSizeUnderflowError
from .explicit import EmbeddedRungeKutta, _stages, _update

SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 5.0


class ControllerParams(namedtuple("ControllerParams", "atol rtol dt_min")):
    """Tolerances and the width floor of adaptive stepping, a frozen record.

    ``atol`` and ``rtol`` weight the error test; ``dt_min``, the
    smallest usable width, ends every chain of rejections.  Every field
    rejects NaN, and the tolerances reject infinity.
    """

    __slots__ = ()

    def __new__(cls, atol=1e-6, rtol=1e-6, dt_min=1e-14):
        if not (0.0 <= atol < math.inf and 0.0 <= rtol < math.inf and atol + rtol > 0.0):
            raise ValueError("tolerances must be finite nonnegative numbers, not both zero")
        if not dt_min > 0.0:
            raise ValueError("dt_min must be positive")
        return super().__new__(cls, atol, rtol, dt_min)

    # _replace builds through _make: both check, as the constructor does.
    _make = classmethod(lambda cls, fields: cls(*super(ControllerParams, cls)._make(fields)))


class StepResult(namedtuple("StepResult", ["accepted", "t", "dt", "error_ratio"])):
    """Outcome of ``try_step``: whether the trial was accepted, the time
    after the call, the width to use for the next trial, and the
    trial's error ratio."""


def next_step_size(dt, err, error_order, was_rejected=False):
    """Integral controller for the following step width: the public
    reference for the controller that ``try_step`` and the drivers'
    walk run as generated code, which does not call it.

    Returns ``dt`` times a factor in ``[FAC_MIN, FAC_MAX]``: a zero
    error ratio grows the width by ``FAC_MAX`` outright, a NaN ratio
    shrinks it by ``FAC_MIN``, and after a rejection the factor is
    capped at one.  Never raises.
    """
    if err == 0.0:
        factor = FAC_MAX
    else:
        factor = SAFETY * err ** (-1.0 / (error_order + 1))
        factor = min(FAC_MAX, max(FAC_MIN, factor))
    if was_rejected and factor > 1.0:
        factor = 1.0
    return dt * factor


class ControlledStepper(Scratched):
    """Accept/reject wrapper around an embedded-error stepper.

    ``try_step`` writes the new state into ``x`` only on acceptance; a
    rejected trial leaves ``x`` and ``t`` untouched and only shrinks
    the step width.  The derivative at the current state, needed for
    the error scale, is cached between trials and read as the first
    stage.  For steppers with a first-same-as-last stage it is the last
    stage of the accepted trial, handed over by swapping two buffers,
    so a smooth run costs one extra system evaluation in total.  The
    state backend is ``algebra`` when given, else the stepper's, and
    it runs the whole trial.

    A shipped embedded pair (an ``EmbeddedRungeKutta`` that keeps its
    ``do_step_with_error``) runs each trial as code generated from its
    tableau into the controller's own stage states (see ``algebra``'s
    module docstring).  Any other pair, which must have
    ``do_step_with_error``, ``error_order`` and ``fsal`` (see the
    README), runs each trial as one call of its ``do_step_with_error``
    on the system ``try_step`` is given, or the drivers' counter.
    Around either, the hand-over, the acceptance and the step size
    control are generated once: ``try_step`` runs them for one trial,
    the drivers' walk inline for every trial, where the run counts the
    system evaluations.  ``try_step`` keeps no count: wrap the system
    in an :class:`EvaluationCounter` to count a manual run's.

    Instances carry scratch states (the derivative cache among them)
    and the rejection history; do not share one instance between
    concurrent integrations.  Call ``reset`` after modifying the state
    externally; the drivers call it at the start of every run.
    """

    _caches = ("_scratch", "_dxdt")

    def __init__(self, stepper, params=None, algebra=None):
        self.stepper = stepper
        self.params = ControllerParams() if params is None else params
        self._algebra = algebra
        self.reset()

    @property
    def _fixed_algebra(self):
        # The given backend, else the current stepper's.
        return getattr(self._stepper, "_fixed_algebra", None) if self._algebra is None else self._algebra

    @property
    def stepper(self):
        """The embedded-error stepper; another one assigned binds anew."""
        return self._stepper

    @stepper.setter
    def stepper(self, stepper):
        missing = [name for name in ("do_step_with_error", "error_order", "fsal")
                   if getattr(stepper, name, None) is None]
        if missing:
            raise TypeError(f"{type(stepper).__name__} is no embedded error stepper: it has no {', '.join(missing)}")
        vars(self).update(dict.fromkeys(self._caches), _stepper=stepper)

    def reset(self):
        """Drop the cached derivative, every other cache but the scratch
        states, and the rejection flag."""
        vars(self).update(dict.fromkeys(self._caches[1:]), _rejected=False)

    def _plain(self):
        # Whether the stepper's trial is EmbeddedRungeKutta's, which
        # the generated trial runs from the stepper's tableau.
        return getattr(type(self._stepper), "do_step_with_error", None) is EmbeddedRungeKutta.do_step_with_error

    def _count(self, algebra, x):
        # A user's pair's first stage, trial state, error and two ratio
        # states; else the stages, the solution and, for kernel calls,
        # an error state and two ratio states.
        if not self._plain():
            return 5
        return self._stepper.stage_count + (4 if algebra._fused_length(x) is None else 1)

    def _bind(self, algebra, buffers, x, fit=((), ())):
        # try_step's walk of one trial, compiled on first call, the trial's pieces and their make's args.  Dense
        # output hands in its fit; its states follow the controller's, the last two of which the ratio runs in.
        # One backend runs it all.  An inline list trial folds its own error ratio, so it binds none.
        states, n = buffers[:len(buffers) - len(fit[0])], algebra._fused_length(x)
        tableau = self._stepper.tableau if self._plain() else None
        ratio = None if n and tableau else algebra._error_kernel(states)
        pieces, make = _trial_code(self._stepper.fsal, self._stepper.error_order, tableau, n, fit)
        args = (algebra._kernel, ratio, algebra._copy_kernel(x), buffers)
        return Bound(_bound(make, *args), pieces, args)

    def try_step(self, system, x, t, dt):
        """Attempt one step of width ``dt`` from ``(x, t)``.

        Returns a :class:`StepResult` ``(accepted, t, dt, error_ratio)``.
        On acceptance ``x`` holds the new state, ``result.t`` the
        advanced time and ``result.dt`` the width proposed for the next
        step; on rejection ``x`` and the time are unchanged and
        ``result.dt`` carries the reduced width to retry with.  An
        accepted step never raises.  A rejection raises
        :class:`StepSizeUnderflowError` once the width falls below
        ``dt_min``, and :class:`SolverError` at once when the error
        ratio and the derivative at ``(x, t)`` are not finite.  A
        non-finite ``t`` or ``dt``, or ``dt == 0``, raises
        :class:`ValueError`, and a width too small to move ``t``
        (``t + dt == t``) raises :class:`StepSizeUnderflowError`, both
        before any evaluation.
        """
        if not (math.isfinite(t) and math.isfinite(dt)) or dt == 0.0:
            raise ValueError("time and step width must be finite, the width nonzero")
        return self._record(x).step()(self, system, x, float(t), float(dt))

    try_step._shipped = True  # the drivers' walk runs its Bound's pieces inline


@lru_cache(maxsize=64)
def _trial_code(fsal, error_order, tableau, n, fit=((), ())):
    """One controlled trial, generated once per pair and length ``n``
    as ``explicit._step_code``'s step is: ``(pieces, make)``.  The
    plain pieces ``(key, head, step, accept, reject, tail)``
    (``key`` names the code, see ``algebra._define``) run in
    ``integrate._walk_code``, which counts.  ``make()(kernel, ratio,
    copy, k)``, compiled on the first ``make()``, binds them into
    ``try_step``'s walk of one trial, ``one(stepper, system, x, t,
    dt)``, returning the :class:`StepResult`; no driver runs it.
    ``head`` reads the controller; ``step`` hands ``f(x, t)`` over into ``k0`` and leaves the trial's error ratio in
    ``worst``; ``accept`` (ratio at most one), given the end time ``t_new``, or ``reject`` sets ``dt_next`` as
    ``next_step_size`` would, with its constants as literals: only ``FAC_MAX`` bounds an accepted ratio's factor,
    only ``FAC_MIN`` a rejected one's; ``tail`` writes the controller back.
    A shipped pair's trial is generated from its ``tableau``, the code
    ``algebra``'s module docstring describes: the other stages, the
    solution ``u``, a first-same-as-last stage at it and the error
    ratio, read from ``algebra._held``'s locals.  With no ``tableau`` it
    is ``trial =`` one call of the user's pair's ``do_step_with_error``
    on ``counted`` (``one``'s system itself) from ``k0`` into ``u`` and
    ``e``.  Then ``accept`` runs a dense stepper's ``fit``, ``(states,
    fit)`` (see ``dense._dense_code``), whose states follow the trial's
    own in ``k``, copies ``u`` into ``x`` and, after a user's
    first-same-as-last pair, ``trial[2].new_derivative`` into ``k0``.
    With a ``fit``, ``step`` drops the dense stepper's step interval and ``accept`` sets it to ``(t, t_new, dt)``."""
    power = f"{SAFETY!r} * worst ** {-1.0 / (error_order + 1)!r}"
    states, fit = fit
    called = tableau is None or n is None  # the error ratio is a call on the state e
    s, pair = (1, ["pair = stepper._stepper.do_step_with_error"]) if tableau is None else (tableau.stage_count, [])
    def code(at, unpack):  # the trial, then, on acceptance, the fit and the copy into x
        update = partial(_update, tableau, n, at=at)
        copy = ["copy(x, u)"] if n is None else _update_lines(n, "x", ["1.0"], ["u"]) if tableau is None \
            else _each(n, "len(x)", lambda i: f"x[{i}] = {at('u', i)}")  # a shipped pair's floats as they are
        return ["trial = pair(counted, x, t, dt, out=u, xerr=e, dxdt_in=k0)"] if tableau is None else [
            *unpack("x"), *unpack("k0"), *_stages(tableau, update, unpack), *update("u", tableau.b, 1), *unpack("u"),
            *([f"system(u, k{s - 1}, t + dt)", *unpack(f"k{s - 1}")] if tableau.is_fsal else []),
            *(update("e", tableau.error_weights, 0) if n is None
              else _ratio_lines(lambda row: update(row, tableau.error_weights, 0), "k0", at)),
        ], [*(fit(at) if fit else ()), *copy]
    body, copied = _held(n if tableau else None, code)
    names = [*(f"k{j}" for j in range(s)), "u", *(["e", "_", "_"] if called else []), *states]
    kl = f"k{s - 1}"
    head = [f"{', '.join(names)} = k", *pair, "params = stepper.params",
            "atol, rtol, dt_min = params.atol, params.rtol, params.dt_min",
            "dxdt, again = stepper._dxdt, stepper._rejected"]
    step = [*(["stepper._span = None"] if fit else []), "if t + dt == t:", "    raise StepSizeUnderflowError(dt, t)",
            "if dxdt is not k0:", f"    if dxdt is {kl}:", f"        k0, {kl} = {kl}, k0",
            "    else:", "        system(x, k0, t)", "    dxdt = k0", *body,
            *(["worst = ratio(e, x, k0, atol, rtol, dt)"] if called else [])]
    accept = [*copied,
              *(["copy(k0, trial[2].new_derivative)"] if fsal and tableau is None else []),
              *(["stepper._span = t, t_new, dt"] if fit else []),
              f"factor = {FAC_MAX!r} if worst == 0.0 else {power}",
              f"if factor > {FAC_MAX!r}:", f"    factor = {FAC_MAX!r}",
              "if again and factor > 1.0:", "    factor = 1.0",
              f"dt_next, again, dxdt = dt * factor, False, {kl if fsal else None}"]
    reject = ["if not isfinite(worst) and not finite(k0):",
              "    raise SolverError(f'the derivative at t={t!r} is not finite')",
              f"again, factor = True, {power}",
              f"dt_next = dt * (factor if factor > {FAC_MIN!r} else {FAC_MIN!r})",
              "if abs(dt_next) < dt_min:", "    raise StepSizeUnderflowError(dt_next, t, worst)"]
    tail = [f"k[0], k[{s - 1}] = k0, {kl}", "stepper._dxdt, stepper._rejected = dxdt, again"]
    key = f"{tableau.name if tableau else 'pair'}{' dense' if fit else ''} n={n}"
    pieces = (key, *map(tuple, (head, step, accept, reject, tail)))
    return pieces, _lazy_make("ratio, copy, k", [
        "def one(stepper, system, x, t, dt):", *_indent(["counted = system", *head, "try:", *_indent([
            *step, "if worst <= 1.0:",
            *_indent(["t_new = t + dt", *accept, "return StepResult(True, t_new, dt_next, worst)"]),
            *reject, "return StepResult(False, t, dt_next, worst)"]), "finally:", *_indent(tail)]),
    ], "one", f"trial {key}", StepResult=StepResult, SolverError=SolverError,
        StepSizeUnderflowError=StepSizeUnderflowError, isfinite=math.isfinite, finite=_finite)
