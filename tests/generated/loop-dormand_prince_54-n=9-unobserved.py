def make(kernel, k):
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        j = 0
        t_next = t
        try:
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
                for i in range(len(u)):
                    u[i] = x[i] + w0 * k0[i]
                evaluations += 1
                system(u, k1, t + w1)
                for i in range(len(u)):
                    u[i] = x[i] + w2 * k0[i] + w3 * k1[i]
                evaluations += 1
                system(u, k2, t + w4)
                for i in range(len(u)):
                    u[i] = x[i] + w5 * k0[i] + w6 * k1[i] + w7 * k2[i]
                evaluations += 1
                system(u, k3, t + w8)
                for i in range(len(u)):
                    u[i] = x[i] + w9 * k0[i] + w10 * k1[i] + w11 * k2[i] + w12 * k3[i]
                evaluations += 1
                system(u, k4, t + w13)
                for i in range(len(u)):
                    u[i] = x[i] + w14 * k0[i] + w15 * k1[i] + w16 * k2[i] + w17 * k3[i] + w18 * k4[i]
                evaluations += 1
                system(u, k5, t + w19)
                for i in range(len(target)):
                    target[i] = x[i] + w20 * k0[i] + w21 * k2[i] + w22 * k3[i] + w23 * k4[i] + w24 * k5[i]
                t = t_next
            if not finite(x):
                raise SolverError(f'the state is not finite at t={t!r}')
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j if t == t_next else j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
