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
                c1, = dt * 0.5,
                for i in range(len(u)):
                    u[i] = x[i] + c1 * k0[i]
                evaluations += 1
                system(u, k1, t + 0.5 * dt)
                c1, = dt * 0.5,
                for i in range(len(u)):
                    u[i] = x[i] + c1 * k1[i]
                evaluations += 1
                system(u, k2, t + 0.5 * dt)
                c1, = dt * 1.0,
                for i in range(len(u)):
                    u[i] = x[i] + c1 * k2[i]
                evaluations += 1
                system(u, k3, t + 1.0 * dt)
                c1, c2, c3, c4, = dt * 0.16666666666666666, dt * 0.3333333333333333, dt * 0.3333333333333333, dt * 0.16666666666666666,
                for i in range(len(target)):
                    target[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i]
                t = t_next
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
