def make(kernel, k):
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        j = 0
        t_next = t
        try:
            observer(snap(x), t)
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
                u[0] = x_0 + w14 * k0_0 + w15 * k1_0 + w16 * k2_0 + w17 * k3_0 + w18 * k4[0]
                u[1] = x_1 + w14 * k0_1 + w15 * k1_1 + w16 * k2_1 + w17 * k3_1 + w18 * k4[1]
                u[2] = x_2 + w14 * k0_2 + w15 * k1_2 + w16 * k2_2 + w17 * k3_2 + w18 * k4[2]
                evaluations += 1
                system(u, k5, t + w19)
                target[0] = x_0 + w20 * k0_0 + w21 * k2_0 + w22 * k3_0 + w23 * k5[0]
                target[1] = x_1 + w20 * k0_1 + w21 * k2_1 + w22 * k3_1 + w23 * k5[1]
                target[2] = x_2 + w20 * k0_2 + w21 * k2_2 + w22 * k3_2 + w23 * k5[2]
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
