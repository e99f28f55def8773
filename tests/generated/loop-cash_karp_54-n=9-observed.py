def make(kernel, k):
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, k1, k2, k3, k4, k5, u = k
        target = x
        t0, dt = t, width
        w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15, w16, w17, w18, w19, w20, w21, w22, w23, = dt * 0.2, 0.2 * dt, dt * 0.075, dt * 0.225, 0.3 * dt, dt * 0.3, dt * -0.9, dt * 1.2, 0.6 * dt, dt * -0.2037037037037037, dt * 2.5, dt * -2.5925925925925926, dt * 1.2962962962962963, 1.0 * dt, dt * 0.029495804398148147, dt * 0.341796875, dt * 0.041594328703703706, dt * 0.40034541377314814, dt * 0.061767578125, 0.875 * dt, dt * 0.09788359788359788, dt * 0.4025764895330113, dt * 0.21043771043771045, dt * 0.2891022021456804,
        try:
            for j in range(1, steps + 1):
                if j == steps:
                    t_next, dt = t_last, dt_last
                    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15, w16, w17, w18, w19, w20, w21, w22, w23, = dt * 0.2, 0.2 * dt, dt * 0.075, dt * 0.225, 0.3 * dt, dt * 0.3, dt * -0.9, dt * 1.2, 0.6 * dt, dt * -0.2037037037037037, dt * 2.5, dt * -2.5925925925925926, dt * 1.2962962962962963, 1.0 * dt, dt * 0.029495804398148147, dt * 0.341796875, dt * 0.041594328703703706, dt * 0.40034541377314814, dt * 0.061767578125, 0.875 * dt, dt * 0.09788359788359788, dt * 0.4025764895330113, dt * 0.21043771043771045, dt * 0.2891022021456804,
                else:
                    t_next = t0 + j * width
                if t_next <= t:  # a width too small to move t
                    raise StepSizeUnderflowError(width, t)
                evaluations += 1
                system(x, k0, t)
                c1, = w0,
                for i in range(len(u)):
                    u[i] = x[i] + c1 * k0[i]
                evaluations += 1
                system(u, k1, t + w1)
                c1, c2, = w2, w3,
                for i in range(len(u)):
                    u[i] = x[i] + c1 * k0[i] + c2 * k1[i]
                evaluations += 1
                system(u, k2, t + w4)
                c1, c2, c3, = w5, w6, w7,
                for i in range(len(u)):
                    u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i]
                evaluations += 1
                system(u, k3, t + w8)
                c1, c2, c3, c4, = w9, w10, w11, w12,
                for i in range(len(u)):
                    u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i]
                evaluations += 1
                system(u, k4, t + w13)
                c1, c2, c3, c4, c5, = w14, w15, w16, w17, w18,
                for i in range(len(u)):
                    u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i] + c5 * k4[i]
                evaluations += 1
                system(u, k5, t + w19)
                c1, c2, c3, c4, = w20, w21, w22, w23,
                for i in range(len(target)):
                    target[i] = x[i] + c1 * k0[i] + c2 * k2[i] + c3 * k3[i] + c4 * k5[i]
                t = t_next
                if not finite(x):
                    break
                observer(snap(x), t)
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j - 1, 0, evaluations + counted.count)
            raise
        if not finite(x):
            exc = SolverError(f'the state is not finite at t={t!r}')
            exc.partial_report = IntegrationReport(x, t, j, 0, evaluations + counted.count)
            raise exc
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
