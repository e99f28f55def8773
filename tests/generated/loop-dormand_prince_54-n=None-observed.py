def make(kernel, k):
    K2, K3, K4, K5, K6, = map(kernel, (2, 3, 4, 5, 6))
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
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
        try:
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
                K2(u, (1.0, w0,), (x, k0,))
                evaluations += 1
                system(u, k1, t + w1)
                K3(u, (1.0, w2, w3,), (x, k0, k1,))
                evaluations += 1
                system(u, k2, t + w4)
                K4(u, (1.0, w5, w6, w7,), (x, k0, k1, k2,))
                evaluations += 1
                system(u, k3, t + w8)
                K5(u, (1.0, w9, w10, w11, w12,), (x, k0, k1, k2, k3,))
                evaluations += 1
                system(u, k4, t + w13)
                K6(u, (1.0, w14, w15, w16, w17, w18,), (x, k0, k1, k2, k3, k4,))
                evaluations += 1
                system(u, k5, t + w19)
                K6(target, (1.0, w20, w21, w22, w23, w24,), (x, k0, k2, k3, k4, k5,))
                t = t_next
                if not finite(x):
                    break
                observer(snap(x), t)
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j if t == t_next else j - 1, 0, evaluations + counted.count)
            raise
        if not finite(x):
            exc = SolverError(f'the state is not finite at t={t!r}')
            exc.partial_report = IntegrationReport(x, t, j, 0, evaluations + counted.count)
            raise exc
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
