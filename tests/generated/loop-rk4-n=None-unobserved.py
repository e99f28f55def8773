def make(kernel, k):
    K2, K5, = map(kernel, (2, 5))
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, k1, k2, k3, u = k
        target = x
        t0, dt = t, width
        w0, w1, w2, w3, w4, w5, = dt * 0.5, 0.5 * dt, dt * 1.0, 1.0 * dt, dt * 0.16666666666666666, dt * 0.3333333333333333,
        try:
            for j in range(1, steps + 1):
                if j == steps:
                    t_next, dt = t_last, dt_last
                    w0, w1, w2, w3, w4, w5, = dt * 0.5, 0.5 * dt, dt * 1.0, 1.0 * dt, dt * 0.16666666666666666, dt * 0.3333333333333333,
                else:
                    t_next = t0 + j * width
                if t_next <= t:  # a width too small to move t
                    raise StepSizeUnderflowError(width, t)
                evaluations += 1
                system(x, k0, t)
                K2(u, (1.0, w0,), (x, k0,))
                evaluations += 1
                system(u, k1, t + w1)
                K2(u, (1.0, w0,), (x, k1,))
                evaluations += 1
                system(u, k2, t + w1)
                K2(u, (1.0, w2,), (x, k2,))
                evaluations += 1
                system(u, k3, t + w3)
                K5(target, (1.0, w4, w5, w5, w4,), (x, k0, k1, k2, k3,))
                t = t_next
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j - 1, 0, evaluations + counted.count)
            raise
        if not finite(x):
            exc = SolverError(f'the state is not finite at t={t!r}')
            exc.partial_report = IntegrationReport(x, t, j, 0, evaluations + counted.count)
            raise exc
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
