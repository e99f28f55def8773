"""Structure-preserving first order stepping for separable Hamiltonians.

The state is a coordinate/momentum pair and the system supplies the
two halves of Hamilton's equations separately.  One step kicks the
momenta with the old coordinates, then drifts the coordinates with the
already-updated momenta; that ordering is what preserves the symplectic
form and keeps long-run energy drift bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import scratch
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


@dataclass(frozen=True)
class SeparableHamiltonian:
    """The two halves of Hamilton's equations for H(q, p) = T(p) + V(q).

    ``dqdt(p, out)`` writes the coordinate velocity (dH/dp);
    ``dpdt(q, out)`` writes the momentum rate (-dH/dq).  Neither half
    depends on time.
    """

    dqdt: object
    dpdt: object


class SymplecticEuler:
    """First order symplectic Euler, momentum update first.

    ``p_new = p + dt * dpdt(q)`` followed by
    ``q_new = q + dt * dqdt(p_new)``.  A zero width leaves the state
    unchanged.  Instances keep one scratch buffer; do not share them
    between concurrent integrations.
    """

    order = 1

    def __init__(self, algebra=None):
        self._fixed_algebra = algebra
        self._scratch = None

    def do_step(self, system, state, t, dt, out=None):
        """Advance a :class:`PairState` from ``t`` by ``dt``.

        In place when ``out`` is None; otherwise the pair in ``out``
        receives the new values and ``state`` stays untouched.  The
        time argument is carried for signature uniformity; separable
        systems here are autonomous.
        """
        algebra, (buf,) = scratch(self, state.q, 1)
        target = state if out is None else out
        if len(target) != len(state):
            raise DimensionError("output pair length does not match state")
        system.dpdt(state.q, buf)
        algebra.scale_sum(target.p, (1.0, dt), (state.p, buf))
        system.dqdt(target.p, buf)
        algebra.scale_sum(target.q, (1.0, dt), (state.q, buf))
        return target
