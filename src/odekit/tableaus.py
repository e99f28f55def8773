"""Butcher tableaus for the shipped explicit Runge-Kutta methods.

Coefficients are written as integer ratios and checked at construction
time: every node must equal its row sum and the weights must sum to
one.  Order is certified behaviorally by the test suite (quadrature
exactness and observed convergence slopes) rather than by trusting the
transcription.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CONSISTENCY_TOL = 1e-14


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an explicit Runge-Kutta scheme.

    Parameters
    ----------
    name : str
        Identifier used in messages.
    a : tuple of tuples
        Strictly lower triangular stage coefficients; row ``i`` (counted
        from the second stage) holds ``i`` entries.
    b : tuple
        Solution weights.
    c : tuple
        Stage nodes; ``c[0]`` must be 0.
    order : int
        Order of the propagated solution.
    b_embedded : tuple, optional
        Weights of the embedded comparison solution.
    error_order : int, optional
        Order of the embedded solution; must be below ``order``.
    """

    name: str
    a: tuple
    b: tuple
    c: tuple
    order: int
    b_embedded: tuple = None
    error_order: int = None

    def __post_init__(self):
        s = len(self.b)
        if len(self.c) != s or len(self.a) != s - 1:
            raise ValueError(f"{self.name}: inconsistent tableau dimensions")
        if self.c[0] != 0.0:
            raise ValueError(f"{self.name}: first node must be 0")
        for i, row in enumerate(self.a, start=1):
            if len(row) != i:
                raise ValueError(f"{self.name}: row {i} must hold {i} entries")
            if not math.isclose(sum(row), self.c[i], rel_tol=0.0, abs_tol=CONSISTENCY_TOL):
                raise ValueError(
                    f"{self.name}: node c[{i}]={self.c[i]} does not match row sum {sum(row)}"
                )
        if abs(sum(self.b) - 1.0) > CONSISTENCY_TOL:
            raise ValueError(f"{self.name}: solution weights sum to {sum(self.b)}, not 1")
        if self.b_embedded is not None:
            if len(self.b_embedded) != s:
                raise ValueError(f"{self.name}: embedded weights length mismatch")
            if abs(sum(self.b_embedded) - 1.0) > CONSISTENCY_TOL:
                raise ValueError(f"{self.name}: embedded weights do not sum to 1")
            if self.error_order is None or not self.error_order < self.order:
                raise ValueError(f"{self.name}: embedded order must be below {self.order}")
        elif self.error_order is not None:
            raise ValueError(f"{self.name}: error_order given without embedded weights")

    @property
    def stage_count(self):
        return len(self.b)

    @property
    def error_weights(self):
        """Difference of solution and embedded weights, or None."""
        if self.b_embedded is None:
            return None
        return tuple(bj - ej for bj, ej in zip(self.b, self.b_embedded))

    @property
    def is_fsal(self):
        """Last stage has zero weight and evaluates the derivative at the
        accepted new state."""
        if self.stage_count < 2 or self.c[-1] != 1.0:
            return False
        return self.a[-1] == self.b[: self.stage_count - 1] and self.b[-1] == 0.0


EULER = ButcherTableau(
    name="euler",
    a=(),
    b=(1.0,),
    c=(0.0,),
    order=1,
)

RK4_CLASSIC = ButcherTableau(
    name="rk4",
    a=(
        (1 / 2,),
        (0.0, 1 / 2),
        (0.0, 0.0, 1.0),
    ),
    b=(1 / 6, 1 / 3, 1 / 3, 1 / 6),
    c=(0.0, 1 / 2, 1 / 2, 1.0),
    order=4,
)

# Cash, J. R. and Karp, A. H. (1990), ACM TOMS 16(3), 201-222.
CASH_KARP_54 = ButcherTableau(
    name="cash_karp_54",
    a=(
        (1 / 5,),
        (3 / 40, 9 / 40),
        (3 / 10, -9 / 10, 6 / 5),
        (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
        (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
    ),
    b=(37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771),
    c=(0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8),
    order=5,
    b_embedded=(2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4),
    error_order=4,
)

# Dormand, J. R. and Prince, P. J. (1980), J. Comp. Appl. Math. 6(1), 19-26.
# The seventh row repeats the solution weights, so the last stage
# derivative belongs to the new state (first-same-as-last).
DORMAND_PRINCE_54 = ButcherTableau(
    name="dormand_prince_54",
    a=(
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    ),
    b=(35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
    c=(0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
    order=5,
    b_embedded=(
        5179 / 57600,
        0.0,
        7571 / 16695,
        393 / 640,
        -92097 / 339200,
        187 / 2100,
        1 / 40,
    ),
    error_order=4,
)
