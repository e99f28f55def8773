"""Butcher tableaus for the shipped explicit Runge-Kutta methods.

Coefficients are written as integer ratios and checked at construction
time: every node must equal its row sum and the weights must sum to
one.  Order is certified behaviorally by the test suite (quadrature
exactness and observed convergence slopes) rather than by trusting the
transcription.
"""

from __future__ import annotations

import math
from collections import namedtuple

CONSISTENCY_TOL = 1e-14


class ButcherTableau(namedtuple("ButcherTableau", "name a b c order b_embedded error_order dense_weights")):
    """Coefficients of an explicit Runge-Kutta scheme: a frozen record,
    stored as tuples, so a tableau is hashable and keys its step code.

    Parameters
    ----------
    name : str
        Identifier used in messages.
    a : sequence of sequences
        Strictly lower triangular stage coefficients; row ``i`` (counted
        from the second stage) holds ``i`` entries.
    b : sequence
        Solution weights.
    c : sequence
        Stage nodes; ``c[0]`` must be 0.
    order : int
        Order of the propagated solution.
    b_embedded : sequence, optional
        Weights of the embedded comparison solution, other than ``b``.
    error_order : int, optional
        Order of the embedded solution; must be below ``order``.
    dense_weights : sequence, optional
        Weights of the quartic term of a first-same-as-last pair's
        continuous extension, one per stage (see ``dense``).
    """

    __slots__ = ()

    def __new__(cls, name, a, b, c, order, b_embedded=None, error_order=None, dense_weights=None):
        a, b, c = tuple(map(tuple, a)), tuple(b), tuple(c)
        b_embedded, dense_weights = (w if w is None else tuple(w) for w in (b_embedded, dense_weights))
        s = len(b)
        if len(c) != s or len(a) != s - 1:
            raise ValueError(f"{name}: inconsistent tableau dimensions")
        if c[0] != 0.0:
            raise ValueError(f"{name}: first node must be 0")
        for i, row in enumerate(a, start=1):
            if len(row) != i:
                raise ValueError(f"{name}: row {i} must hold {i} entries")
            # A finite node also rules out infinite entries in the row.
            if not (math.isfinite(c[i]) and math.isclose(sum(row), c[i], rel_tol=0.0, abs_tol=CONSISTENCY_TOL)):
                raise ValueError(f"{name}: node c[{i}]={c[i]} does not match row sum {sum(row)}")
        if not abs(sum(b) - 1.0) <= CONSISTENCY_TOL:  # NaN fails too
            raise ValueError(f"{name}: solution weights sum to {sum(b)}, not 1")
        if b_embedded is not None:
            if len(b_embedded) != s:
                raise ValueError(f"{name}: embedded weights length mismatch")
            if not abs(sum(b_embedded) - 1.0) <= CONSISTENCY_TOL:
                raise ValueError(f"{name}: embedded weights do not sum to 1")
            if b_embedded == b:
                raise ValueError(f"{name}: embedded weights equal the solution weights, so no error is estimated")
            if error_order is None or not error_order < order:
                raise ValueError(f"{name}: embedded order must be below {order}")
        elif error_order is not None:
            raise ValueError(f"{name}: error_order given without embedded weights")
        if dense_weights is not None and (len(dense_weights) != s or not all(map(math.isfinite, dense_weights))):
            raise ValueError(f"{name}: dense weights must be {s} finite numbers")
        return super().__new__(cls, name, a, b, c, order, b_embedded, error_order, dense_weights)

    # _replace builds through _make: both check and store tuples, as the constructor does.
    _make = classmethod(lambda cls, fields: cls(*super(ButcherTableau, cls)._make(fields)))

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
# The seventh row repeats the solution weights, so the last stage derivative belongs to the
# new state (first-same-as-last); the dense weights are the published continuous extension's.
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
    dense_weights=(-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
                   701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423),
)
