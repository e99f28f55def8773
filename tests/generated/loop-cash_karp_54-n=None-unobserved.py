def make(kernel, k):
    K2, K3, K4, K5, K6, = map(kernel, (2, 3, 4, 5, 6))
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        j = 0
        t_next = t
        try:
            k0, k1, k2, k3, k4, k5, u = k
            target = x
            t0, dt = t, width
            w0 = dt * 0.2
            w1 = 0.2 * dt
            w2 = dt * 0.075
            w3 = dt * 0.225
            w4 = 0.3 * dt
            w5 = dt * 0.3
            w6 = dt * -0.9
            w7 = dt * 1.2
            w8 = 0.6 * dt
            w9 = dt * -0.2037037037037037
            w10 = dt * 2.5
            w11 = dt * -2.5925925925925926
            w12 = dt * 1.2962962962962963
            w13 = 1.0 * dt
            w14 = dt * 0.029495804398148147
            w15 = dt * 0.341796875
            w16 = dt * 0.041594328703703706
            w17 = dt * 0.40034541377314814
            w18 = dt * 0.061767578125
            w19 = 0.875 * dt
            w20 = dt * 0.09788359788359788
            w21 = dt * 0.4025764895330113
            w22 = dt * 0.21043771043771045
            w23 = dt * 0.2891022021456804
            for j in range(1, steps + 1):
                if j == steps:
                    t_next, dt = t_last, dt_last
                    w0 = dt * 0.2
                    w1 = 0.2 * dt
                    w2 = dt * 0.075
                    w3 = dt * 0.225
                    w4 = 0.3 * dt
                    w5 = dt * 0.3
                    w6 = dt * -0.9
                    w7 = dt * 1.2
                    w8 = 0.6 * dt
                    w9 = dt * -0.2037037037037037
                    w10 = dt * 2.5
                    w11 = dt * -2.5925925925925926
                    w12 = dt * 1.2962962962962963
                    w13 = 1.0 * dt
                    w14 = dt * 0.029495804398148147
                    w15 = dt * 0.341796875
                    w16 = dt * 0.041594328703703706
                    w17 = dt * 0.40034541377314814
                    w18 = dt * 0.061767578125
                    w19 = 0.875 * dt
                    w20 = dt * 0.09788359788359788
                    w21 = dt * 0.4025764895330113
                    w22 = dt * 0.21043771043771045
                    w23 = dt * 0.2891022021456804
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
                K5(target, (1.0, w20, w21, w22, w23,), (x, k0, k2, k3, k5,))
                t = t_next
            if not finite(x):
                raise SolverError(f'the state is not finite at t={t!r}')
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j if t == t_next else j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
