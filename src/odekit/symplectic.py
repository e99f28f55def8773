"""Structure-preserving first order stepping for separable Hamiltonians.

The state is a coordinate/momentum pair and the system supplies the
two halves of Hamilton's equations separately.  One step kicks the
momenta with the old coordinates, then drifts the coordinates with the
already-updated momenta; that ordering is what preserves the symplectic
form and keeps long-run energy drift bounded.  The step is generated
code (see ``algebra``'s module docstring).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .algebra import Bound, Scratched, _bound, _entry_lines, _indent, _lazy_make, _update_lines, scratch
from .errors import DimensionError


class PairState:
    """Coordinates ``q`` and momenta ``p`` of equal length, each held
    in any container a state algebra supports."""

    __slots__ = ("q", "p")

    def __init__(self, q, p):
        if len(q) != len(p):
            raise DimensionError(
                f"coordinate length {len(q)} != momentum length {len(p)}"
            )
        self.q = q
        self.p = p

    def __len__(self):
        return len(self.q)

    def __repr__(self):
        return f"PairState(q={self.q!r}, p={self.p!r})"


class SeparableHamiltonian(namedtuple("SeparableHamiltonian", "dqdt dpdt")):
    """The two halves of Hamilton's equations for H(q, p) = T(p) + V(q),
    as a frozen record.

    ``dqdt(p, out)`` writes the coordinate velocity (dH/dp);
    ``dpdt(q, out)`` writes the momentum rate (-dH/dq).  Neither half
    depends on time.
    """

    __slots__ = ()


class SymplecticEuler(Scratched):
    """First order symplectic Euler, momentum update first.

    ``p_new = p + dt * dpdt(q)`` followed by
    ``q_new = q + dt * dqdt(p_new)``.  A zero width leaves the state
    unchanged.  Instances keep one scratch buffer; do not share them
    between concurrent integrations.
    """

    order = 1
    _count = 1

    def __init__(self, algebra=None):
        self._fixed_algebra = algebra

    def do_step(self, system, state, t, dt, out=None):
        """Advance a :class:`PairState` from ``t`` by ``dt``.

        In place when ``out`` is None; otherwise the pair in ``out``
        receives the new values and ``state`` stays untouched.  The
        time argument is carried for signature uniformity; separable
        systems here are autonomous.
        """
        algebra, (buf,), _, bound = scratch(self, state.q)
        target = state if out is None else out
        algebra._check_shapes(buf, state.p, target.q, target.p)
        return bound.step()(system, state, dt, target)

    def _bind(self, algebra, buffers, q):
        # The generated step, compiled on first call; inline, the instance's do_step entry too.
        return Bound(_bound(_kick_drift(algebra._fused_length(q)), algebra._kernel, buffers[0], self, type(q), len(q)))


@lru_cache(maxsize=None)  # n is None or at most UNROLL + 1
def _kick_drift(n):
    """Symplectic Euler's step, generated once per length ``n`` as the
    explicit steppers' is: ``make()(kernel, buf, owner, T, N)`` returns
    ``step(system, state, dt, target)``, and inline gives ``owner`` a
    ``do_step`` entry for pairs of ``T`` of length ``N``."""
    unpack = ["q, p, qn, pn = state.q, state.p, target.q, target.p"]
    step = ["system.dpdt(q, buf)", *_update_lines(n, "pn", ["1.0", "dt"], ["p", "buf"]),
            "system.dqdt(pn, buf)", *_update_lines(n, "qn", ["1.0", "dt"], ["q", "buf"]), "return target"]
    return _lazy_make("buf, owner, T, N", [
        "def step(system, state, dt, target):", *_indent(unpack + step),
        *_entry_lines(n, "system, state, t, dt, out=None", ["target = state if out is None else out", *unpack],
                      "type(q) is T and len(q) == len(p) == len(qn) == len(pn) == N", step),
    ], "step", f"kick_drift n={n}", fallback=SymplecticEuler.do_step)
