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
                    c1 = dt * 0.2
                    for i in range(len(u)):
                        u[i] = x[i] + c1 * k0[i]
                    evaluations += 1
                    system(u, k1, t + 0.2 * dt)
                    c1 = dt * 0.075
                    c2 = dt * 0.225
                    for i in range(len(u)):
                        u[i] = x[i] + c1 * k0[i] + c2 * k1[i]
                    evaluations += 1
                    system(u, k2, t + 0.3 * dt)
                    c1 = dt * 0.3
                    c2 = dt * -0.9
                    c3 = dt * 1.2
                    for i in range(len(u)):
                        u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i]
                    evaluations += 1
                    system(u, k3, t + 0.6 * dt)
                    c1 = dt * -0.2037037037037037
                    c2 = dt * 2.5
                    c3 = dt * -2.5925925925925926
                    c4 = dt * 1.2962962962962963
                    for i in range(len(u)):
                        u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i]
                    evaluations += 1
                    system(u, k4, t + 1.0 * dt)
                    c1 = dt * 0.029495804398148147
                    c2 = dt * 0.341796875
                    c3 = dt * 0.041594328703703706
                    c4 = dt * 0.40034541377314814
                    c5 = dt * 0.061767578125
                    for i in range(len(u)):
                        u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i] + c5 * k4[i]
                    evaluations += 1
                    system(u, k5, t + 0.875 * dt)
                    c1 = dt * 0.09788359788359788
                    c2 = dt * 0.4025764895330113
                    c3 = dt * 0.21043771043771045
                    c4 = dt * 0.2891022021456804
                    for i in range(len(u)):
                        u[i] = x[i] + c1 * k0[i] + c2 * k2[i] + c3 * k3[i] + c4 * k5[i]
                    adt, worst = abs(dt), 0.0
                    c0 = dt * -0.004293774801587311
                    c1 = dt * 0.018668586093857853
                    c2 = dt * -0.034155026830808066
                    c3 = dt * -0.019321986607142856
                    c4 = dt * 0.03910220214568039
                    for i in range(len(k0)):
                        r, s = abs(c0 * k0[i] + c1 * k2[i] + c2 * k3[i] + c3 * k4[i] + c4 * k5[i]), (atol + rtol * (abs(x[i]) + adt * abs(k0[i]))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
                    worst = float(worst)
                    if worst <= 1.0:
                        t_new = target if clamped else t + dt
                        for i in range(len(x)):
                            x[i] = u[i]
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
