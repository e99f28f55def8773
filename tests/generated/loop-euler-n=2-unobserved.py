def make(kernel, k):
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        j = 0
        t_next = t
        try:
            k0, u = k
            target = x
            t0, dt = t, width
            w0 = dt * 1.0
            for j in range(1, steps + 1):
                if j == steps:
                    t_next, dt = t_last, dt_last
                    w0 = dt * 1.0
                else:
                    t_next = t0 + j * width
                if t_next <= t:  # a width too small to move t
                    t_next = None
                    raise StepSizeUnderflowError(width, t)
                evaluations += 1
                system(x, k0, t)
                x_0, x_1, = x
                k0_0, k0_1, = k0
                target[0] = x_0 + w0 * k0_0
                target[1] = x_1 + w0 * k0_1
                t = t_next
            if not finite(x):
                raise SolverError(f'the state is not finite at t={t!r}')
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j if t == t_next else j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
