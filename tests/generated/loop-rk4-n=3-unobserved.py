def make(kernel, k):
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
                x_0, x_1, x_2, = x
                k0_0, k0_1, k0_2, = k0
                c1, = dt * 0.5,
                u[0] = x_0 + c1 * k0_0
                u[1] = x_1 + c1 * k0_1
                u[2] = x_2 + c1 * k0_2
                evaluations += 1
                system(u, k1, t + 0.5 * dt)
                k1_0, k1_1, k1_2, = k1
                c1, = dt * 0.5,
                u[0] = x_0 + c1 * k1_0
                u[1] = x_1 + c1 * k1_1
                u[2] = x_2 + c1 * k1_2
                evaluations += 1
                system(u, k2, t + 0.5 * dt)
                k2_0, k2_1, k2_2, = k2
                c1, = dt * 1.0,
                u[0] = x_0 + c1 * k2_0
                u[1] = x_1 + c1 * k2_1
                u[2] = x_2 + c1 * k2_2
                evaluations += 1
                system(u, k3, t + 1.0 * dt)
                c1, c2, c3, c4, = dt * 0.16666666666666666, dt * 0.3333333333333333, dt * 0.3333333333333333, dt * 0.16666666666666666,
                target[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3[0]
                target[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3[1]
                target[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3[2]
                t = t_next
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
