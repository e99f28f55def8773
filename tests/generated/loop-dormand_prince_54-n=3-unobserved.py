def make(kernel, k):
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, k1, k2, k3, k4, k5, k6, u = k
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
                c1, = dt * 0.2,
                u[0] = x_0 + c1 * k0_0
                u[1] = x_1 + c1 * k0_1
                u[2] = x_2 + c1 * k0_2
                evaluations += 1
                system(u, k1, t + 0.2 * dt)
                k1_0, k1_1, k1_2, = k1
                c1, c2, = dt * 0.075, dt * 0.225,
                u[0] = x_0 + c1 * k0_0 + c2 * k1_0
                u[1] = x_1 + c1 * k0_1 + c2 * k1_1
                u[2] = x_2 + c1 * k0_2 + c2 * k1_2
                evaluations += 1
                system(u, k2, t + 0.3 * dt)
                k2_0, k2_1, k2_2, = k2
                c1, c2, c3, = dt * 0.9777777777777777, dt * -3.7333333333333334, dt * 3.5555555555555554,
                u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0
                u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1
                u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2
                evaluations += 1
                system(u, k3, t + 0.8 * dt)
                k3_0, k3_1, k3_2, = k3
                c1, c2, c3, c4, = dt * 2.9525986892242035, dt * -11.595793324188385, dt * 9.822892851699436, dt * -0.2908093278463649,
                u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3_0
                u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3_1
                u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3_2
                evaluations += 1
                system(u, k4, t + 0.8888888888888888 * dt)
                k4_0, k4_1, k4_2, = k4
                c1, c2, c3, c4, c5, = dt * 2.8462752525252526, dt * -10.757575757575758, dt * 8.906422717743473, dt * 0.2784090909090909, dt * -0.2735313036020583,
                u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3_0 + c5 * k4_0
                u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3_1 + c5 * k4_1
                u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3_2 + c5 * k4_2
                evaluations += 1
                system(u, k5, t + 1.0 * dt)
                c1, c2, c3, c4, c5, = dt * 0.09114583333333333, dt * 0.44923629829290207, dt * 0.6510416666666666, dt * -0.322376179245283, dt * 0.13095238095238096,
                target[0] = x_0 + c1 * k0_0 + c2 * k2_0 + c3 * k3_0 + c4 * k4_0 + c5 * k5[0]
                target[1] = x_1 + c1 * k0_1 + c2 * k2_1 + c3 * k3_1 + c4 * k4_1 + c5 * k5[1]
                target[2] = x_2 + c1 * k0_2 + c2 * k2_2 + c3 * k3_2 + c4 * k4_2 + c5 * k5[2]
                t = t_next
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
