"""The five benchmark workloads.

Each workload draws all of its inputs from one seeded generator, builds
its systems from them, and hands odekit only generated states and
callables.  ``build`` is the set-up the user pays once; ``solve`` is
one closed-loop solve, which creates fresh steppers because a
``ControlledStepper`` carries state from one run into the next.

Every workload has a reference computed without odekit: SciPy DOP853
at tight tolerance for the Lorenz flows, closed forms via
``numpy.linalg`` for the linear systems.  ``gate`` is the reference a
result must match to count as correct; ``exact`` is the true flow that
``max_err`` is measured against.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

import yardstick
from tracing import Proxy, controlled_proxy, implicit_proxy, tracing_algebra

SIGMA, BETA = 10.0, 8.0 / 3.0


class Plain:
    """Hooks of an untraced run: everything passes through unchanged."""

    def rhs(self, fn):
        return fn

    jac = observer = driver = rhs

    def algebra(self, ok, state):
        return None

    def stepper(self, obj, layer):
        return obj

    def dense(self, ok, dense):
        return dense


class Traced(Plain):
    """Hooks of the traced run: spans around every call into odekit."""

    def __init__(self, tracer):
        self.tracer = tracer

    def rhs(self, fn):
        return self.tracer.wrap("systems.rhs", fn)

    def jac(self, fn):
        return self.tracer.wrap("systems.jac", fn)

    def observer(self, fn):
        return self.tracer.wrap("harness.observer", fn)

    def driver(self, fn):
        return self.tracer.wrap("integrate.driver", fn)

    def algebra(self, ok, state):
        return tracing_algebra(ok, ok.algebra_for(state), self.tracer)

    def stepper(self, obj, layer):
        if layer == "controlled":
            return controlled_proxy(obj, self.tracer)
        if layer == "implicit":
            return implicit_proxy(obj, self.tracer)
        return Proxy(obj, self.tracer, layer)

    def dense(self, ok, dense):
        # DenseOutputDopri5 exposes the controller it steps with; time
        # that controller and its stepper too when they are there.
        controller = getattr(dense, "controller", None)
        if isinstance(controller, ok.ControlledStepper):
            controller.stepper = self.stepper(controller.stepper, "explicit")
            dense.controller = self.stepper(controller, "controlled")
        return Proxy(dense, self.tracer, "dense")


def counted(fn, cell):
    """``fn`` with every call counted in ``cell[0]``."""

    def rhs(x, dxdt, t):
        cell[0] += 1
        fn(x, dxdt, t)

    return rhs


def counted_half(fn, cell):
    def half(v, out):
        cell[0] += 1
        fn(v, out)

    return half


def no_op_observer(x, t):
    pass


def lorenz_rhs(rho):
    """Lorenz right-hand side; ``rho`` may be a per-trajectory array."""

    def rhs(x, dxdt, t):
        dxdt[0] = SIGMA * (x[1] - x[0])
        dxdt[1] = rho * x[0] - x[1] - x[0] * x[2]
        dxdt[2] = -BETA * x[2] + x[0] * x[1]

    return rhs


def _lorenz_f(x, rho):
    return np.stack(
        [SIGMA * (x[1] - x[0]), rho * x[0] - x[1] - x[0] * x[2], -BETA * x[2] + x[0] * x[1]]
    )


def attractor_points(rng, count, rho):
    """``count`` points on the Lorenz attractor as a (3, count) array:
    random starts in a box, carried 10 time units by classical RK4."""
    x = np.stack(
        [rng.uniform(-15.0, 15.0, count), rng.uniform(-20.0, 20.0, count), rng.uniform(5.0, 40.0, count)]
    )
    dt = 0.02
    for _ in range(500):
        k1 = _lorenz_f(x, rho)
        k2 = _lorenz_f(x + 0.5 * dt * k1, rho)
        k3 = _lorenz_f(x + 0.5 * dt * k2, rho)
        k4 = _lorenz_f(x + dt * k3, rho)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def dop853_lorenz(x0, rho, t1):
    """Reference flow of a (3, m) block of Lorenz trajectories, integrated
    as one stacked system by SciPy's DOP853 at tight tolerance."""
    from scipy.integrate import solve_ivp

    m = x0.shape[1]

    def f(t, y):
        return _lorenz_f(y.reshape(3, m), rho).ravel()

    sol = solve_ivp(f, (0.0, t1), x0.ravel(), method="DOP853", rtol=1e-13, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(3, m)


def lorenz_reference(x0, rho, t1, tol, gate):
    """Reference final states and per-trajectory gate tolerances.

    A trajectory's global error is its local errors, each at most about
    ``tol * (1 + |x|)``, carried forward by the flow.  The flow's growth
    factor is measured from a perturbed reference run, so trajectories
    that pass close to the origin's saddle, where it reaches 1e5 within
    two time units, are held to the same standard as the rest.
    """
    ref = dop853_lorenz(x0, rho, t1)
    delta = 1e-7
    growth = np.linalg.norm(dop853_lorenz(x0 + delta / np.sqrt(3.0), rho, t1) - ref, axis=0) / delta
    tols = gate * tol * (1.0 + np.max(np.abs(ref), axis=0)) * np.maximum(1.0, growth)
    return ref, tols


def max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


class Workload:
    name = ""
    why = ""
    trajectories = 1
    pool = 1  # distinct inputs; a run cycles through them
    traced = 1  # solves in the traced run
    twins = 0  # pool members re-run on numpy states for the bit-identity check

    def assess(self, final, ref):
        """(passes the gate, max-abs error against the true flow)."""
        err = max_abs(final, ref.exact)
        return max_abs(final, ref.gate) <= ref.tol, err


class LorenzListAdaptive(Workload):
    name = "lorenz-list-adaptive"
    why = (
        "Per-call Python overhead dominates: many short adaptive DP5 solves on a 3-element list, "
        "so stage kernels, the controller and monitor=None costs show here"
    )
    pool, traced, twins = 1024, 16, 4
    t1, dt0, tol = 2.0, 0.01, 1e-8
    yardstick_steps = 200
    # A final state passes within gate * tol * (1 + |x_ref|) * growth of
    # the reference (see lorenz_reference); over 4096 trajectories the
    # largest error used 1% of this.
    gate = 1e4

    def inputs(self, rng):
        return attractor_points(rng, self.pool, 28.0).T.tolist()

    def build(self, ok, inputs, hooks, cell):
        return SimpleNamespace(
            rhs=hooks.rhs(counted(lorenz_rhs(28.0), cell)),
            raw_rhs=lorenz_rhs(28.0),
            observer=hooks.observer(no_op_observer),
            params=ok.ControllerParams(atol=self.tol, rtol=self.tol),
            states=inputs,
            algebra=hooks.algebra(ok, inputs[0]),
            hooks=hooks,
        )

    def solve(self, ok, p, i, box=list):
        """``box`` builds the state container from the input's floats."""
        h = p.hooks
        x0 = box(p.states[i])
        stepper = h.stepper(ok.DormandPrince5(algebra=p.algebra), "explicit")
        controller = h.stepper(ok.ControlledStepper(stepper, p.params, algebra=p.algebra), "controlled")
        r = h.driver(ok.integrate_adaptive)(controller, p.rhs, x0, 0.0, self.t1, self.dt0, p.observer)
        return r.final_state, r.final_time == self.t1, r.steps_accepted

    def probe(self, p):
        return p.raw_rhs, list(p.states[0]), [0.0, 0.0, 0.0]

    def yardstick(self, inputs):
        return yardstick.python_rk4(self.yardstick_steps)

    def reference(self, inputs):
        ref, tols = lorenz_reference(np.array(inputs).T, 28.0, self.t1, self.tol, self.gate)
        return [SimpleNamespace(gate=r, exact=r, tol=t) for r, t in zip(ref.T, tols)]


class LorenzListDense(LorenzListAdaptive):
    name = "lorenz-list-dense"
    why = (
        "Same DP5 stages and controller as lorenz-list-adaptive, observed 20x finer than the native "
        "step, so interpolation and snapshots dominate; cost moved there shows"
    )
    pool, traced, twins = 512, 8, 4
    t1, observe_dt = 0.5, 5e-4
    yardstick_steps = 150

    def solve(self, ok, p, i, box=list):
        h = p.hooks
        x0 = box(p.states[i])
        dense = h.dense(ok, ok.DenseOutputDopri5(p.params, algebra=p.algebra))
        r = h.driver(ok.integrate_const)(dense, p.rhs, x0, 0.0, self.t1, self.observe_dt, p.observer)
        return r.final_state, r.final_time == self.t1, r.steps_accepted


class LorenzEnsembleNumpy(Workload):
    name = "lorenz-ensemble-numpy"
    why = (
        "10 000 Lorenz trajectories in one (3, 10000) array: numpy arithmetic and algebra temporaries "
        "dominate and per-call overhead is amortised"
    )
    trajectories = 10_000
    checked = 2_000  # trajectories compared with the reference
    pool, traced = 1, 2
    t1, grid, tol = 1.0, 0.1, 1e-6
    gate = 1e4

    def inputs(self, rng):
        rho = rng.uniform(25.0, 35.0, self.trajectories)
        x0 = attractor_points(rng, self.trajectories, rho)
        cols = np.sort(rng.choice(self.trajectories, self.checked, replace=False))
        return SimpleNamespace(x0=x0, rho=rho, cols=cols)

    def build(self, ok, inputs, hooks, cell):
        return SimpleNamespace(
            rhs=hooks.rhs(counted(lorenz_rhs(inputs.rho), cell)),
            raw_rhs=lorenz_rhs(inputs.rho),
            observer=hooks.observer(no_op_observer),
            params=ok.ControllerParams(atol=self.tol, rtol=self.tol),
            x0=inputs.x0,
            algebra=hooks.algebra(ok, inputs.x0),
            hooks=hooks,
        )

    def solve(self, ok, p, i):
        h = p.hooks
        stepper = h.stepper(ok.DormandPrince5(algebra=p.algebra), "explicit")
        controller = h.stepper(ok.ControlledStepper(stepper, p.params, algebra=p.algebra), "controlled")
        r = h.driver(ok.integrate_const)(controller, p.rhs, p.x0, 0.0, self.t1, self.grid, p.observer)
        return r.final_state, r.final_time == self.t1, r.steps_accepted

    def probe(self, p):
        return p.raw_rhs, p.x0.copy(), np.empty_like(p.x0)

    def yardstick(self, inputs):
        return yardstick.numpy_ensemble(20, inputs.x0, inputs.rho)

    def reference(self, inputs):
        cols = inputs.cols
        ref, tols = lorenz_reference(inputs.x0[:, cols], inputs.rho[cols], self.t1, self.tol, self.gate)
        return [SimpleNamespace(gate=ref, exact=ref, tol=tols, cols=cols)]

    def assess(self, final, ref):
        # Median over the checked trajectories of each one's max-abs error.
        dev = np.max(np.abs(np.asarray(final)[:, ref.cols] - ref.gate), axis=0)
        return bool(np.all(dev <= ref.tol)), float(np.median(dev))


class StiffImplicitNumpy(Workload):
    name = "stiff-implicit-numpy"
    why = (
        "Implicit Euler on 32-dimensional stiff linear systems with eigenvalues -1..-1e6: Newton matrix "
        "assembly and the LU dominate, no explicit or controlled code runs"
    )
    dim, t1, dt = 32, 1.0, 0.01
    pool, traced = 32, 4
    # Implicit Euler against its own discrete map: rounding only.
    rel_gate = 1e-9

    def inputs(self, rng):
        lam = -np.logspace(0.0, 6.0, self.dim)
        systems = []
        for _ in range(self.pool):
            q, r = np.linalg.qr(rng.standard_normal((self.dim, self.dim)))
            q = q * np.sign(np.diag(r))
            c = rng.choice([-1.0, 1.0], self.dim)
            systems.append(SimpleNamespace(q=q, c=c, a=(q * lam) @ q.T, x0=q @ c))
        return SimpleNamespace(lam=lam, systems=systems)

    def build(self, ok, inputs, hooks, cell):
        def linear(a):
            def rhs(x, dxdt, t):
                np.matmul(a, x, out=dxdt)

            def jac(x, j, t):
                np.copyto(j, a)

            return rhs, jac

        systems = []
        for s in inputs.systems:
            rhs, jac = linear(s.a)
            systems.append(ok.JacobianSystem(hooks.rhs(counted(rhs, cell)), hooks.jac(jac)))
        return SimpleNamespace(
            systems=systems,
            raw_rhs=linear(inputs.systems[0].a)[0],
            states=[s.x0 for s in inputs.systems],
            algebra=hooks.algebra(ok, inputs.systems[0].x0),
            hooks=hooks,
        )

    def solve(self, ok, p, i):
        h = p.hooks
        stepper = h.stepper(ok.ImplicitEuler(algebra=p.algebra), "implicit")
        r = h.driver(ok.integrate_const)(stepper, p.systems[i], p.states[i], 0.0, self.t1, self.dt)
        return r.final_state, r.final_time == self.t1, r.steps_accepted

    def probe(self, p):
        return p.raw_rhs, p.states[0].copy(), np.empty(self.dim)

    def yardstick(self, inputs):
        return yardstick.numpy_small(1000)

    def reference(self, inputs):
        steps = round(self.t1 / self.dt)
        lam = inputs.lam
        refs = []
        for s in inputs.systems:
            gate = s.q @ (s.c * (1.0 / (1.0 - self.dt * lam)) ** steps)
            exact = s.q @ (s.c * np.exp(lam * self.t1))
            tol = self.rel_gate * (1.0 + np.max(np.abs(s.x0)))
            refs.append(SimpleNamespace(gate=gate, exact=exact, tol=tol))
        return refs


class MarathonListFixed(Workload):
    name = "marathon-list-fixed"
    why = (
        "Acceptance criterion 6 in small: a SymplecticEuler.do_step loop and ExplicitEuler via "
        "integrate_const on harmonic lists; fixed steps, no controller, no numpy"
    )
    pool, traced, twins = 32, 1, 2
    steps, dt = 10_000, 0.01
    rel_gate = 1e-9

    def inputs(self, rng):
        phase = rng.uniform(0.0, 2.0 * np.pi, self.pool)
        return [[float(np.cos(f)), float(np.sin(f))] for f in phase]

    def build(self, ok, inputs, hooks, cell):
        def dqdt(p, out):
            for i in range(len(p)):
                out[i] = p[i]

        def dpdt(q, out):
            for i in range(len(q)):
                out[i] = -q[i]

        def oscillator(x, dxdt, t):
            dxdt[0] = x[1]
            dxdt[1] = -x[0]

        ham = ok.SeparableHamiltonian(
            dqdt=hooks.rhs(counted_half(dqdt, cell)), dpdt=hooks.rhs(counted_half(dpdt, cell))
        )
        return SimpleNamespace(
            ham=ham,
            rhs=hooks.rhs(counted(oscillator, cell)),
            raw_rhs=oscillator,
            states=inputs,
            algebra=hooks.algebra(ok, inputs[0]),
            hooks=hooks,
        )

    def solve(self, ok, p, i, box=list):
        h = p.hooks
        q0, p0 = p.states[i]
        pair = ok.PairState(box([q0]), box([p0]))
        symplectic = h.stepper(ok.SymplecticEuler(algebra=p.algebra), "symplectic")
        dt, t = self.dt, 0.0
        for _ in range(self.steps):
            pair = symplectic.do_step(p.ham, pair, t, dt, out=pair)
            t += dt
        euler = h.stepper(ok.ExplicitEuler(algebra=p.algebra), "explicit")
        r = h.driver(ok.integrate_const)(euler, p.rhs, box([q0, p0]), 0.0, self.steps * dt, dt)
        final = [pair.q[0], pair.p[0], r.final_state[0], r.final_state[1]]
        return final, r.steps_accepted == self.steps, 2 * r.steps_accepted

    def probe(self, p):
        return p.raw_rhs, list(p.states[0]), [0.0, 0.0]

    def yardstick(self, inputs):
        return yardstick.python_rk4(2000)

    def reference(self, inputs):
        dt, n = self.dt, self.steps
        kick_drift = np.linalg.matrix_power(np.array([[1.0 - dt * dt, dt], [-dt, 1.0]]), n)
        euler = np.linalg.matrix_power(np.array([[1.0, dt], [-dt, 1.0]]), n)
        tau = n * dt
        rotation = np.array([[np.cos(tau), np.sin(tau)], [-np.sin(tau), np.cos(tau)]])
        refs = []
        for x0 in inputs:
            x0 = np.array(x0)
            gate = np.concatenate([kick_drift @ x0, euler @ x0])
            exact = np.concatenate([rotation @ x0, rotation @ x0])
            refs.append(SimpleNamespace(gate=gate, exact=exact, tol=self.rel_gate * (1.0 + np.max(np.abs(gate)))))
        return refs


WORKLOADS = {
    w.name: w
    for w in (
        LorenzListAdaptive(),
        LorenzEnsembleNumpy(),
        StiffImplicitNumpy(),
        LorenzListDense(),
        MarathonListFixed(),
    )
}
