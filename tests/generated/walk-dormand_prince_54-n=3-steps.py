def make(kernel, ratio, copy, k):
    def walk(stepper, system, x, t, targets, dt_next, observer, sample, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, k1, k2, k3, k4, k5, k6, u = k
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
                        if dxdt is k6:
                            k0, k6 = k6, k0
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
                    c1 = dt * 0.9777777777777777
                    c2 = dt * -3.7333333333333334
                    c3 = dt * 3.5555555555555554
                    u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0
                    u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1
                    u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2
                    evaluations += 1
                    system(u, k3, t + 0.8 * dt)
                    k3_0, k3_1, k3_2, = k3
                    c1 = dt * 2.9525986892242035
                    c2 = dt * -11.595793324188385
                    c3 = dt * 9.822892851699436
                    c4 = dt * -0.2908093278463649
                    u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3_0
                    u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3_1
                    u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3_2
                    evaluations += 1
                    system(u, k4, t + 0.8888888888888888 * dt)
                    k4_0, k4_1, k4_2, = k4
                    c1 = dt * 2.8462752525252526
                    c2 = dt * -10.757575757575758
                    c3 = dt * 8.906422717743473
                    c4 = dt * 0.2784090909090909
                    c5 = dt * -0.2735313036020583
                    u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3_0 + c5 * k4_0
                    u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3_1 + c5 * k4_1
                    u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3_2 + c5 * k4_2
                    evaluations += 1
                    system(u, k5, t + 1.0 * dt)
                    k5_0, k5_1, k5_2, = k5
                    c1 = dt * 0.09114583333333333
                    c2 = dt * 0.44923629829290207
                    c3 = dt * 0.6510416666666666
                    c4 = dt * -0.322376179245283
                    c5 = dt * 0.13095238095238096
                    u[0] = x_0 + c1 * k0_0 + c2 * k2_0 + c3 * k3_0 + c4 * k4_0 + c5 * k5_0
                    u[1] = x_1 + c1 * k0_1 + c2 * k2_1 + c3 * k3_1 + c4 * k4_1 + c5 * k5_1
                    u[2] = x_2 + c1 * k0_2 + c2 * k2_2 + c3 * k3_2 + c4 * k4_2 + c5 * k5_2
                    u_0, u_1, u_2, = u
                    evaluations += 1
                    system(u, k6, t + dt)
                    k6_0, k6_1, k6_2, = k6
                    adt, worst = abs(dt), 0.0
                    c0 = dt * 0.0012326388888888873
                    c1 = dt * -0.004252770290506136
                    c2 = dt * 0.036979166666666674
                    c3 = dt * -0.05086379716981132
                    c4 = dt * 0.04190476190476192
                    c5 = dt * -0.025
                    r, s = abs(c0 * k0_0 + c1 * k2_0 + c2 * k3_0 + c3 * k4_0 + c4 * k5_0 + c5 * k6_0), (atol + rtol * (abs(x_0) + adt * abs(k0_0))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
                    r, s = abs(c0 * k0_1 + c1 * k2_1 + c2 * k3_1 + c3 * k4_1 + c4 * k5_1 + c5 * k6_1), (atol + rtol * (abs(x_1) + adt * abs(k0_1))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
                    r, s = abs(c0 * k0_2 + c1 * k2_2 + c2 * k3_2 + c3 * k4_2 + c4 * k5_2 + c5 * k6_2), (atol + rtol * (abs(x_2) + adt * abs(k0_2))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
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
                        dt_next, again, dxdt = dt * factor, False, k6
                        accepted += 1
                        t = t_new
                        observer(snap(x), t)
                    else:
                        if not isfinite(worst) and not finite(k0):
                            raise SolverError(f'the derivative at t={t!r} is not finite')
                        again, factor = True, 0.9 * worst ** -0.2
                        dt_next = dt * (factor if factor > 0.2 else 0.2)
                        if abs(dt_next) < dt_min:
                            raise StepSizeUnderflowError(dt_next, t, worst)
                        rejected += 1
                t = target
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, accepted, rejected, evaluations + counted.count)
            raise
        finally:
            k[0], k[6] = k0, k6
            stepper._dxdt, stepper._rejected = dxdt, again
        return IntegrationReport(x, t, accepted, rejected, evaluations + counted.count)
    return walk
