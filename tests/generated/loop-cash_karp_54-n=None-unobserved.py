def make(kernel, k):
    K2, K3, K4, K5, K6, = map(kernel, (2, 3, 4, 5, 6))
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, k1, k2, k3, k4, k5, u = k
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
                K2(u, (1.0, dt * 0.2,), (x, k0,))
                evaluations += 1
                system(u, k1, t + 0.2 * dt)
                K3(u, (1.0, dt * 0.075, dt * 0.225,), (x, k0, k1,))
                evaluations += 1
                system(u, k2, t + 0.3 * dt)
                K4(u, (1.0, dt * 0.3, dt * -0.9, dt * 1.2,), (x, k0, k1, k2,))
                evaluations += 1
                system(u, k3, t + 0.6 * dt)
                K5(u, (1.0, dt * -0.2037037037037037, dt * 2.5, dt * -2.5925925925925926, dt * 1.2962962962962963,), (x, k0, k1, k2, k3,))
                evaluations += 1
                system(u, k4, t + 1.0 * dt)
                K6(u, (1.0, dt * 0.029495804398148147, dt * 0.341796875, dt * 0.041594328703703706, dt * 0.40034541377314814, dt * 0.061767578125,), (x, k0, k1, k2, k3, k4,))
                evaluations += 1
                system(u, k5, t + 0.875 * dt)
                K5(target, (1.0, dt * 0.09788359788359788, dt * 0.4025764895330113, dt * 0.21043771043771045, dt * 0.2891022021456804,), (x, k0, k2, k3, k5,))
                t = t_next
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
