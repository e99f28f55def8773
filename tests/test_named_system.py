"""``NamedSystem``: a ``functools.partial`` of its rhs that keeps its
metadata, its keywords and its copies."""

import copy
import functools
import pickle

import numpy as np
import pytest

from odekit import EXPDECAY, HARMONIC, LORENZ, STIFF2, ImplicitEuler, NamedSystem
from odekit.systems import SYSTEMS, _harmonic_exact, _harmonic_jacobian, _harmonic_rhs

FIELDS = ("name", "dimension", "rhs", "jacobian", "exact", "default_state")


def test_keywords_and_attributes():
    system = NamedSystem(name="osc", dimension=2, rhs=_harmonic_rhs, jacobian=_harmonic_jacobian,
                         exact=_harmonic_exact, default_state=(1.0, 0.0))
    assert [getattr(system, f) for f in FIELDS] == [
        "osc", 2, _harmonic_rhs, _harmonic_jacobian, _harmonic_exact, (1.0, 0.0)]
    positional = NamedSystem("osc", 2, _harmonic_rhs)
    assert (positional.jacobian, positional.exact, positional.default_state) == (None, None, ())
    assert isinstance(system, functools.partial)
    dxdt = [0.0, 0.0]
    assert system([1.0, 2.0], dxdt, 0.0) is None and dxdt == [2.0, -1.0]
    assert system(x=[3.0, 4.0], dxdt=dxdt, t=0.0) is None and dxdt == [4.0, -3.0]


def test_rhs_is_what_was_given():
    # A partial handed in as the rhs stays the rhs, though the call
    # unwraps it.
    scaled = functools.partial(lambda k, x, dxdt, t: dxdt.__setitem__(0, k * x[0]), 3.0)
    system = NamedSystem(name="scaled", dimension=1, rhs=scaled)
    assert system.rhs is scaled
    dxdt = [0.0]
    system([2.0], dxdt, 0.0)
    assert dxdt == [6.0]


def test_repr_names_the_system():
    for system in SYSTEMS.values():
        assert repr(system) == f"NamedSystem(name={system.name!r}, dimension={system.dimension})"


@pytest.mark.parametrize("system", [HARMONIC, EXPDECAY, STIFF2])
def test_pickle_round_trip(system):
    back = pickle.loads(pickle.dumps(system))
    assert type(back) is NamedSystem
    assert [getattr(back, f) for f in FIELDS] == [getattr(system, f) for f in FIELDS]
    x, a, b = list(system.default_state), [0.0] * system.dimension, [0.0] * system.dimension
    back(x, a, 0.5)
    system(x, b, 0.5)
    assert a == b


@pytest.mark.parametrize("system", list(SYSTEMS.values()))
def test_deepcopy_keeps_every_field(system):
    twin = copy.deepcopy(system)
    assert type(twin) is NamedSystem and twin is not system
    assert [getattr(twin, f) for f in FIELDS] == [getattr(system, f) for f in FIELDS]
    assert copy.copy(system).rhs is system.rhs
    x = list(LORENZ.default_state)[: system.dimension]
    a, b = [0.0] * system.dimension, [0.0] * system.dimension
    twin(x, a, 0.0)
    system(x, b, 0.0)
    assert a == b


def test_implicit_euler_refuses_a_partial_without_jacobian():
    calls = []
    bare = NamedSystem("bare", 1, lambda x, d, t: calls.append(t))
    assert bare.jacobian is None
    with pytest.raises(ValueError, match="jacobian"):
        ImplicitEuler().do_step(bare, np.array([1.0]), 0.0, 0.1)
    with pytest.raises(ValueError, match="jacobian"):
        ImplicitEuler().do_step(pickle.loads(pickle.dumps(NamedSystem("bare", 1, _harmonic_rhs))), [1.0], 0.0, 0.1)
    assert calls == []
