def make(kernel, k):
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        j = 0
        t_next = t
        try:
            observer(snap(x), t)
            k0, k1, k2, k3, k4, k5, k6, u = k
            target = x
            t0, dt = t, width
            w0 = dt * 0.2
            w1 = 0.2 * dt
            w2 = dt * 0.075
            w3 = dt * 0.225
            w4 = 0.3 * dt
            w5 = dt * 0.9777777777777777
            w6 = dt * -3.7333333333333334
            w7 = dt * 3.5555555555555554
            w8 = 0.8 * dt
            w9 = dt * 2.9525986892242035
            w10 = dt * -11.595793324188385
            w11 = dt * 9.822892851699436
            w12 = dt * -0.2908093278463649
            w13 = 0.8888888888888888 * dt
            w14 = dt * 2.8462752525252526
            w15 = dt * -10.757575757575758
            w16 = dt * 8.906422717743473
            w17 = dt * 0.2784090909090909
            w18 = dt * -0.2735313036020583
            w19 = 1.0 * dt
            w20 = dt * 0.09114583333333333
            w21 = dt * 0.44923629829290207
            w22 = dt * 0.6510416666666666
            w23 = dt * -0.322376179245283
            w24 = dt * 0.13095238095238096
            for j in range(1, steps + 1):
                if j == steps:
                    t_next, dt = t_last, dt_last
                    w0 = dt * 0.2
                    w1 = 0.2 * dt
                    w2 = dt * 0.075
                    w3 = dt * 0.225
                    w4 = 0.3 * dt
                    w5 = dt * 0.9777777777777777
                    w6 = dt * -3.7333333333333334
                    w7 = dt * 3.5555555555555554
                    w8 = 0.8 * dt
                    w9 = dt * 2.9525986892242035
                    w10 = dt * -11.595793324188385
                    w11 = dt * 9.822892851699436
                    w12 = dt * -0.2908093278463649
                    w13 = 0.8888888888888888 * dt
                    w14 = dt * 2.8462752525252526
                    w15 = dt * -10.757575757575758
                    w16 = dt * 8.906422717743473
                    w17 = dt * 0.2784090909090909
                    w18 = dt * -0.2735313036020583
                    w19 = 1.0 * dt
                    w20 = dt * 0.09114583333333333
                    w21 = dt * 0.44923629829290207
                    w22 = dt * 0.6510416666666666
                    w23 = dt * -0.322376179245283
                    w24 = dt * 0.13095238095238096
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
                u[0] = x_0 + w2 * k0_0 + w3 * k1_0
                u[1] = x_1 + w2 * k0_1 + w3 * k1_1
                u[2] = x_2 + w2 * k0_2 + w3 * k1_2
                evaluations += 1
                system(u, k2, t + w4)
                k2_0, k2_1, k2_2, = k2
                u[0] = x_0 + w5 * k0_0 + w6 * k1_0 + w7 * k2_0
                u[1] = x_1 + w5 * k0_1 + w6 * k1_1 + w7 * k2_1
                u[2] = x_2 + w5 * k0_2 + w6 * k1_2 + w7 * k2_2
                evaluations += 1
                system(u, k3, t + w8)
                k3_0, k3_1, k3_2, = k3
                u[0] = x_0 + w9 * k0_0 + w10 * k1_0 + w11 * k2_0 + w12 * k3_0
                u[1] = x_1 + w9 * k0_1 + w10 * k1_1 + w11 * k2_1 + w12 * k3_1
                u[2] = x_2 + w9 * k0_2 + w10 * k1_2 + w11 * k2_2 + w12 * k3_2
                evaluations += 1
                system(u, k4, t + w13)
                k4_0, k4_1, k4_2, = k4
                u[0] = x_0 + w14 * k0_0 + w15 * k1_0 + w16 * k2_0 + w17 * k3_0 + w18 * k4_0
                u[1] = x_1 + w14 * k0_1 + w15 * k1_1 + w16 * k2_1 + w17 * k3_1 + w18 * k4_1
                u[2] = x_2 + w14 * k0_2 + w15 * k1_2 + w16 * k2_2 + w17 * k3_2 + w18 * k4_2
                evaluations += 1
                system(u, k5, t + w19)
                k5_0, k5_1, k5_2, = k5
                target[0] = x_0 + w20 * k0_0 + w21 * k2_0 + w22 * k3_0 + w23 * k4_0 + w24 * k5_0
                target[1] = x_1 + w20 * k0_1 + w21 * k2_1 + w22 * k3_1 + w23 * k4_1 + w24 * k5_1
                target[2] = x_2 + w20 * k0_2 + w21 * k2_2 + w22 * k3_2 + w23 * k4_2 + w24 * k5_2
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
