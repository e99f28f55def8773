def make(kernel, k):
    K2, K5, = map(kernel, (2, 5))
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, k1, k2, k3, u = k
        target = x
        t0, dt = t, width
        try:
            for j in range(1, steps + 1):
                if j == steps:
                    t_next, dt = t_last, dt_last
                else:
                    t_next = t0 + j * width
                if t_next <= t:  # a width too small to move t
                    raise StepSizeUnderflowError(width, t)
                evaluations += 1
                system(x, k0, t)
                K2(u, (1.0, dt * 0.5,), (x, k0,))
                evaluations += 1
                system(u, k1, t + 0.5 * dt)
                K2(u, (1.0, dt * 0.5,), (x, k1,))
                evaluations += 1
                system(u, k2, t + 0.5 * dt)
                K2(u, (1.0, dt * 1.0,), (x, k2,))
                evaluations += 1
                system(u, k3, t + 1.0 * dt)
                K5(target, (1.0, dt * 0.16666666666666666, dt * 0.3333333333333333, dt * 0.3333333333333333, dt * 0.16666666666666666,), (x, k0, k1, k2, k3,))
                t = t_next
                observer(snap(x), t)
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
