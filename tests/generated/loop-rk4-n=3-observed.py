def make(kernel, k):
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        j = 0
        t_next = t
        try:
            observer(snap(x), t)
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
                x_0, x_1, x_2, = x
                k0_0, k0_1, k0_2, = k0
                u[0] = x_0 + w0 * k0_0
                u[1] = x_1 + w0 * k0_1
                u[2] = x_2 + w0 * k0_2
                evaluations += 1
                system(u, k1, t + w1)
                k1_0, k1_1, k1_2, = k1
                u[0] = x_0 + w0 * k1_0
                u[1] = x_1 + w0 * k1_1
                u[2] = x_2 + w0 * k1_2
                evaluations += 1
                system(u, k2, t + w1)
                k2_0, k2_1, k2_2, = k2
                u[0] = x_0 + w2 * k2_0
                u[1] = x_1 + w2 * k2_1
                u[2] = x_2 + w2 * k2_2
                evaluations += 1
                system(u, k3, t + w3)
                k3_0, k3_1, k3_2, = k3
                target[0] = x_0 + w4 * k0_0 + w5 * k1_0 + w5 * k2_0 + w4 * k3_0
                target[1] = x_1 + w4 * k0_1 + w5 * k1_1 + w5 * k2_1 + w4 * k3_1
                target[2] = x_2 + w4 * k0_2 + w5 * k1_2 + w5 * k2_2 + w4 * k3_2
                t = t_next
                if not finite(x):
                    break
                observer(snap(x), t)
            if not finite(x):
                raise SolverError(f'the state is not finite at t={t!r}')
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j if t == t_next else j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
