def make(kernel, k):
    K2, K3, = map(kernel, (2, 3))
    u, f, g, copy, floor, eye, square, (absolute, zeros, linalg, LinAlgError, isfinite, ConvergenceError, SingularMatrixError) = k
    def step(stepper, system, x, t, dt, target):
        jac_f = getattr(system, 'jacobian', None)
        if jac_f is None:
            raise ValueError('implicit Euler needs a system that carries a jacobian')
        t_new = t + dt
        s = (a := absolute(x)).item(a.argmax())
        tol = floor * (s if s > 1.0 else 1.0)
        copy(u, x)
        applied = 0
        while True:
            system(u, f, t_new)
            K3(g, (1.0, -1.0, -dt), (u, x, f))
            if applied and (a := absolute(g)).item(a.argmax()) <= tol:
                break
            if applied >= 50:
                raise ConvergenceError(applied, f'Newton stalled after {applied} updates at t={t_new!r}')
            jac = zeros(square)  # a jacobian may write only its nonzero entries
            jac_f(u, jac, t_new)
            try:
                if applied:  # u has moved, and with it a nonlinear system's Jacobian
                    stepper._factorizations += 1
                    delta = linalg.solve(eye - dt * jac, g)
                else:
                    key, held = (dt, jac.tobytes()), stepper._newton
                    if held is None or held[0] != key:
                        stepper._factorizations += 1
                        m = eye - dt * jac
                        held = stepper._newton = key, linalg.inv(m), m
                    _, inv, m = held
                    delta = inv.dot(g)
                    delta += inv.dot(g - m.dot(delta))  # recovers what inv @ g loses to cancellation
            except LinAlgError:
                raise SingularMatrixError(f'singular Newton matrix at t={t_new!r}') from None
            delta = delta.tolist()  # a sequence state keeps Python floats
            K2(u, (1.0, -1.0), (u, delta))
            applied += 1
            size = (a := absolute(delta)).item(a.argmax())
            if size <= tol:
                break
            if not isfinite(size):
                raise ConvergenceError(applied, f'Newton update {applied} is not finite at t={t_new!r}')
        stepper.last_iteration_count = applied
        copy(target, u)
        return target
    return step
