def make(kernel, ratio, copy, k):
    def walk(stepper, system, x, t, targets, dt_next, observer, sample, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        (sample, t0, h, t_end, reach), j = sample, 1
        k0, k1, k2, k3, u, p0, p1, p2, p3, p4 = k
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
                    stepper._span = None
                    if t + dt == t:
                        raise StepSizeUnderflowError(dt, t)
                    if dxdt is not k0:
                        if dxdt is k3:
                            k0, k3 = k3, k0
                        else:
                            evaluations += 1
                            system(x, k0, t)
                        dxdt = k0
                    x_0, x_1, x_2, = x
                    k0_0, k0_1, k0_2, = k0
                    c1 = dt * 0.5
                    u[0] = x_0 + c1 * k0_0
                    u[1] = x_1 + c1 * k0_1
                    u[2] = x_2 + c1 * k0_2
                    evaluations += 1
                    system(u, k1, t + 0.5 * dt)
                    k1_0, k1_1, k1_2, = k1
                    c1 = dt * 0.75
                    u[0] = x_0 + c1 * k1_0
                    u[1] = x_1 + c1 * k1_1
                    u[2] = x_2 + c1 * k1_2
                    evaluations += 1
                    system(u, k2, t + 0.75 * dt)
                    k2_0, k2_1, k2_2, = k2
                    c1 = dt * 0.2222222222222222
                    c2 = dt * 0.3333333333333333
                    c3 = dt * 0.4444444444444444
                    u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0
                    u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1
                    u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2
                    u_0, u_1, u_2, = u
                    evaluations += 1
                    system(u, k3, t + dt)
                    k3_0, k3_1, k3_2, = k3
                    adt, worst = abs(dt), 0.0
                    c0 = dt * -0.06944444444444448
                    c1 = dt * 0.08333333333333331
                    c2 = dt * 0.1111111111111111
                    c3 = dt * -0.125
                    r, s = abs(c0 * k0_0 + c1 * k1_0 + c2 * k2_0 + c3 * k3_0), (atol + rtol * (abs(x_0) + adt * abs(k0_0))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
                    r, s = abs(c0 * k0_1 + c1 * k1_1 + c2 * k2_1 + c3 * k3_1), (atol + rtol * (abs(x_1) + adt * abs(k0_1))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
                    r, s = abs(c0 * k0_2 + c1 * k1_2 + c2 * k2_2 + c3 * k3_2), (atol + rtol * (abs(x_2) + adt * abs(k0_2))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
                    worst = float(worst)
                    if worst <= 1.0:
                        t_new = target if clamped else t + dt
                        p0[0] = x_0
                        p0[1] = x_1
                        p0[2] = x_2
                        p1[0] = u_0 - x_0
                        p1[1] = u_1 - x_1
                        p1[2] = u_2 - x_2
                        p2[0] = dt * k0_0 - p1[0]
                        p2[1] = dt * k0_1 - p1[1]
                        p2[2] = dt * k0_2 - p1[2]
                        c1 = -dt
                        p3[0] = p1[0] + c1 * k3_0 - p2[0]
                        p3[1] = p1[1] + c1 * k3_1 - p2[1]
                        p3[2] = p1[2] + c1 * k3_2 - p2[2]
                        x[0] = u_0
                        x[1] = u_1
                        x[2] = u_2
                        stepper._span = t, t_new, dt
                        factor = 5.0 if worst == 0.0 else 0.9 * worst ** -0.3333333333333333
                        if factor > 5.0:
                            factor = 5.0
                        if again and factor > 1.0:
                            factor = 1.0
                        dt_next, again, dxdt = dt * factor, False, k3
                        accepted += 1
                        lo, t = t, t_new
                        j = sample(observer, lo, t, dt, t0, h, j, t_end, t + reach)
                    else:
                        if not isfinite(worst) and not finite(k0):
                            raise SolverError(f'the derivative at t={t!r} is not finite')
                        again, factor = True, 0.9 * worst ** -0.3333333333333333
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
            k[0], k[3] = k0, k3
            stepper._dxdt, stepper._rejected = dxdt, again
        return IntegrationReport(x, t, accepted, rejected, evaluations + counted.count)
    return walk
