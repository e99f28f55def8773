def make(kernel, k):
    K2, K5, = map(kernel, (2, 5))
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        j = 0
        t_next = t
        try:
            k0, k1, k2, k3, u = k
            target = x
            t0, dt = t, width
            w0 = dt * 0.5
            w1 = 0.5 * dt
            w2 = dt * 1.0
            w3 = 1.0 * dt
            w4 = dt * 0.16666666666666666
            w5 = dt * 0.3333333333333333
            for j in range(1, steps + 1):
                if j == steps:
                    t_next, dt = t_last, dt_last
                    w0 = dt * 0.5
                    w1 = 0.5 * dt
                    w2 = dt * 1.0
                    w3 = 1.0 * dt
                    w4 = dt * 0.16666666666666666
                    w5 = dt * 0.3333333333333333
                else:
                    t_next = t0 + j * width
                if t_next <= t:  # a width too small to move t
                    t_next = None
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
            if not finite(x):
                raise SolverError(f'the state is not finite at t={t!r}')
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j if t == t_next else j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
