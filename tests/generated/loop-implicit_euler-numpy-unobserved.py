def make(kernel, k):
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        u, f, g, (copy, subtract, add, multiply), floor, eye, square, (absolute, zeros, linalg, LinAlgError, isfinite, ConvergenceError, SingularMatrixError) = k
        jac_f = getattr(system, 'jacobian', None)
        if jac_f is None:
            raise ValueError('implicit Euler needs a system that carries a jacobian')
        target = x
        t0, dt = t, width
        try:
            for j in range(1, steps + 1):
                if j == steps:
                    t_next, dt = t_last, dt_last
                else:
                    t_next = t0 + j * width
                if t_next <= t:  # a width too small to move t
                    t_next = None
                    raise StepSizeUnderflowError(width, t)
                t_new = t + dt
                s = (a := absolute(x)).item(a.argmax())
                tol = floor * (s if s > 1.0 else 1.0)
                copy(u, x)
                applied = 0
                while True:
                    evaluations += 1
                    system(u, f, t_new)
                    subtract(u, x, out=g)
                    add(g, multiply(f, -dt), out=g)
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
                    subtract(u, delta, out=u)
                    applied += 1
                    size = (a := absolute(delta)).item(a.argmax())
                    if size <= tol:
                        break
                    if not isfinite(size):
                        raise ConvergenceError(applied, f'Newton update {applied} is not finite at t={t_new!r}')
                stepper.last_iteration_count = applied
                copy(target, u)
                t = t_next
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j if t == t_next else j - 1, 0, evaluations + counted.count)
            raise
        if not finite(x):
            exc = SolverError(f'the state is not finite at t={t!r}')
            exc.partial_report = IntegrationReport(x, t, j, 0, evaluations + counted.count)
            raise exc
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
