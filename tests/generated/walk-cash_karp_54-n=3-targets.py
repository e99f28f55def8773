def make(kernel, ratio, copy, k):
    def walk(stepper, system, x, t, targets, dt_next, observer, sample, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, k1, k2, k3, k4, k5, u = k
        params = stepper.params
        atol, rtol, dt_min = params.atol, params.rtol, params.dt_min
        dxdt, again = stepper._dxdt, stepper._rejected
        accepted = rejected = 0
        try:
            observer(snap(x), t)
            for target in targets:
                if target <= t:  # a grid point that rounds onto the time reached
                    raise StepSizeUnderflowError(dt_next, t)
                while t < target:
                    clamped = dt_next >= target - t
                    dt = target - t if clamped else dt_next
                    if clamped and t + dt > target:  # the largest width that ends on or before target
                        dt = nextafter(dt, 0.0)
                    if t + dt == t:
                        raise StepSizeUnderflowError(dt, t)
                    if dxdt is not k0:
                        if dxdt is k5:
                            k0, k5 = k5, k0
                        else:
                            evaluations += 1
                            system(x, k0, t)
                        dxdt = k0
                    x_0, x_1, x_2, = x
                    k0_0, k0_1, k0_2, = k0
                    c1 = dt * 0.2
                    u[0] = x_0 + c1 * k0_0
                    u[1] = x_1 + c1 * k0_1
                    u[2] = x_2 + c1 * k0_2
                    evaluations += 1
                    system(u, k1, t + 0.2 * dt)
                    k1_0, k1_1, k1_2, = k1
                    c1 = dt * 0.075
                    c2 = dt * 0.225
                    u[0] = x_0 + c1 * k0_0 + c2 * k1_0
                    u[1] = x_1 + c1 * k0_1 + c2 * k1_1
                    u[2] = x_2 + c1 * k0_2 + c2 * k1_2
                    evaluations += 1
                    system(u, k2, t + 0.3 * dt)
                    k2_0, k2_1, k2_2, = k2
                    c1 = dt * 0.3
                    c2 = dt * -0.9
                    c3 = dt * 1.2
                    u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0
                    u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1
                    u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2
                    evaluations += 1
                    system(u, k3, t + 0.6 * dt)
                    k3_0, k3_1, k3_2, = k3
                    c1 = dt * -0.2037037037037037
                    c2 = dt * 2.5
                    c3 = dt * -2.5925925925925926
                    c4 = dt * 1.2962962962962963
                    u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3_0
                    u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3_1
                    u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3_2
                    evaluations += 1
                    system(u, k4, t + 1.0 * dt)
                    k4_0, k4_1, k4_2, = k4
                    c1 = dt * 0.029495804398148147
                    c2 = dt * 0.341796875
                    c3 = dt * 0.041594328703703706
                    c4 = dt * 0.40034541377314814
                    c5 = dt * 0.061767578125
                    u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3_0 + c5 * k4_0
                    u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3_1 + c5 * k4_1
                    u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3_2 + c5 * k4_2
                    evaluations += 1
                    system(u, k5, t + 0.875 * dt)
                    k5_0, k5_1, k5_2, = k5
                    c1 = dt * 0.09788359788359788
                    c2 = dt * 0.4025764895330113
                    c3 = dt * 0.21043771043771045
                    c4 = dt * 0.2891022021456804
                    u[0] = x_0 + c1 * k0_0 + c2 * k2_0 + c3 * k3_0 + c4 * k5_0
                    u[1] = x_1 + c1 * k0_1 + c2 * k2_1 + c3 * k3_1 + c4 * k5_1
                    u[2] = x_2 + c1 * k0_2 + c2 * k2_2 + c3 * k3_2 + c4 * k5_2
                    u_0, u_1, u_2, = u
                    adt, worst = abs(dt), 0.0
                    c0 = dt * -0.004293774801587311
                    c1 = dt * 0.018668586093857853
                    c2 = dt * -0.034155026830808066
                    c3 = dt * -0.019321986607142856
                    c4 = dt * 0.03910220214568039
                    r, s = abs(c0 * k0_0 + c1 * k2_0 + c2 * k3_0 + c3 * k4_0 + c4 * k5_0), (atol + rtol * (abs(x_0) + adt * abs(k0_0))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
                    r, s = abs(c0 * k0_1 + c1 * k2_1 + c2 * k3_1 + c3 * k4_1 + c4 * k5_1), (atol + rtol * (abs(x_1) + adt * abs(k0_1))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
                    r, s = abs(c0 * k0_2 + c1 * k2_2 + c2 * k3_2 + c3 * k4_2 + c4 * k5_2), (atol + rtol * (abs(x_2) + adt * abs(k0_2))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
                    worst = float(worst)
                    if worst <= 1.0:
                        t_new = target if clamped else t + dt
                        x[0] = u_0
                        x[1] = u_1
                        x[2] = u_2
                        factor = 5.0 if worst == 0.0 else 0.9 * worst ** -0.2
                        if factor > 5.0:
                            factor = 5.0
                        if again and factor > 1.0:
                            factor = 1.0
                        dt_next, again, dxdt = dt * factor, False, None
                        accepted += 1
                        t = t_new
                    else:
                        if not isfinite(worst) and not finite(k0):
                            raise SolverError(f'the derivative at t={t!r} is not finite')
                        again, factor = True, 0.9 * worst ** -0.2
                        dt_next = dt * (factor if factor > 0.2 else 0.2)
                        if abs(dt_next) < dt_min:
                            raise StepSizeUnderflowError(dt_next, t, worst)
                        rejected += 1
                t = target
                observer(snap(x), t)
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, accepted, rejected, evaluations + counted.count)
            raise
        finally:
            k[0], k[5] = k0, k5
            stepper._dxdt, stepper._rejected = dxdt, again
        return IntegrationReport(x, t, accepted, rejected, evaluations + counted.count)
    return walk
