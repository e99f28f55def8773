"""Butcher tableau validation and the shipped coefficient sets."""

import math

import pytest

from odekit import (
    CASH_KARP_54,
    DORMAND_PRINCE_54,
    EULER,
    RK4_CLASSIC,
    ButcherTableau,
)

ALL_TABLEAUS = [EULER, RK4_CLASSIC, CASH_KARP_54, DORMAND_PRINCE_54]


@pytest.mark.parametrize("tab", ALL_TABLEAUS, ids=lambda t: t.name)
def test_row_sum_consistency(tab):
    # a holds the strictly lower rows: a[i-1] feeds stage i at node c[i]
    assert len(tab.a) == tab.stage_count - 1
    for i, row in enumerate(tab.a, start=1):
        assert math.isclose(sum(row), tab.c[i], abs_tol=1e-14)


@pytest.mark.parametrize("tab", ALL_TABLEAUS, ids=lambda t: t.name)
def test_weights_sum_to_one(tab):
    assert math.isclose(sum(tab.b), 1.0, abs_tol=1e-14)
    if tab.b_embedded is not None:
        assert math.isclose(sum(tab.b_embedded), 1.0, abs_tol=1e-14)


@pytest.mark.parametrize("tab", ALL_TABLEAUS, ids=lambda t: t.name)
def test_first_node_zero(tab):
    assert tab.c[0] == 0.0


def quadrature_defect(b, c, order):
    # necessary order conditions sum b_j c_j^k = 1/(k+1) for k < order
    worst = 0.0
    for k in range(order):
        s = sum(bj * cj**k for bj, cj in zip(b, c))
        worst = max(worst, abs(s - 1.0 / (k + 1)))
    return worst


def test_rk4_quadrature_conditions():
    assert quadrature_defect(RK4_CLASSIC.b, RK4_CLASSIC.c, 4) < 1e-15


def test_cash_karp_quadrature_conditions():
    assert quadrature_defect(CASH_KARP_54.b, CASH_KARP_54.c, 5) < 1e-14
    assert quadrature_defect(CASH_KARP_54.b_embedded, CASH_KARP_54.c, 4) < 1e-14


def test_dormand_prince_quadrature_conditions():
    assert quadrature_defect(DORMAND_PRINCE_54.b, DORMAND_PRINCE_54.c, 5) < 1e-14
    assert quadrature_defect(DORMAND_PRINCE_54.b_embedded, DORMAND_PRINCE_54.c, 4) < 1e-14


def test_stage_counts_and_orders():
    assert EULER.stage_count == 1 and EULER.order == 1
    assert RK4_CLASSIC.stage_count == 4 and RK4_CLASSIC.order == 4
    assert CASH_KARP_54.stage_count == 6
    assert CASH_KARP_54.order == 5 and CASH_KARP_54.error_order == 4
    assert DORMAND_PRINCE_54.stage_count == 7
    assert DORMAND_PRINCE_54.order == 5 and DORMAND_PRINCE_54.error_order == 4


def test_fsal_detection():
    assert DORMAND_PRINCE_54.is_fsal
    assert not CASH_KARP_54.is_fsal
    assert not RK4_CLASSIC.is_fsal
    assert not EULER.is_fsal


def test_fsal_needs_a_zero_last_weight():
    # The last row repeats the weights and the node is 1, but the last
    # weight is not exactly zero (within the consistency tolerance), so
    # the last stage must still be evaluated.
    nearly = ButcherTableau(name="nearly-fsal", a=((1.0,),), b=(1.0, 1e-15), c=(0.0, 1.0), order=1)
    assert not nearly.is_fsal


def test_error_weights():
    ew = DORMAND_PRINCE_54.error_weights
    assert len(ew) == 7
    for w, bj, ej in zip(ew, DORMAND_PRINCE_54.b, DORMAND_PRINCE_54.b_embedded):
        assert w == bj - ej
    assert EULER.error_weights is None


def test_constructor_rejects_nonzero_first_node():
    with pytest.raises(ValueError):
        ButcherTableau(name="bad", a=(), b=(1.0,), c=(0.5,), order=1)


def test_constructor_rejects_row_sum_mismatch():
    with pytest.raises(ValueError):
        ButcherTableau(
            name="bad",
            a=((0.25,),),
            b=(0.5, 0.5),
            c=(0.0, 0.5),
            order=2,
        )


def test_constructor_rejects_weight_sum():
    with pytest.raises(ValueError):
        ButcherTableau(name="bad", a=(), b=(0.9,), c=(0.0,), order=1)


def test_constructor_rejects_embedded_mismatch():
    with pytest.raises(ValueError):
        ButcherTableau(
            name="bad",
            a=((1.0,),),
            b=(0.5, 0.5),
            c=(0.0, 1.0),
            order=2,
            b_embedded=(1.0,),
            error_order=1,
        )
    with pytest.raises(ValueError):
        ButcherTableau(
            name="bad",
            a=((1.0,),),
            b=(0.5, 0.5),
            c=(0.0, 1.0),
            order=2,
            b_embedded=(1.0, 0.0),
            error_order=2,  # must be strictly below order
        )
