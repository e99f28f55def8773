def make(kernel, ratio, copy, k):
    def walk(stepper, system, x, t, targets, dt_next, observer, sample, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, k1, k2, k3, k4, k5, k6, u, p0, p1, p2, p3, p4 = k
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
                        if dxdt is k6:
                            k0, k6 = k6, k0
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
                    c1 = dt * 0.9777777777777777
                    c2 = dt * -3.7333333333333334
                    c3 = dt * 3.5555555555555554
                    for i in range(len(u)):
                        u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i]
                    evaluations += 1
                    system(u, k3, t + 0.8 * dt)
                    c1 = dt * 2.9525986892242035
                    c2 = dt * -11.595793324188385
                    c3 = dt * 9.822892851699436
                    c4 = dt * -0.2908093278463649
                    for i in range(len(u)):
                        u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i]
                    evaluations += 1
                    system(u, k4, t + 0.8888888888888888 * dt)
                    c1 = dt * 2.8462752525252526
                    c2 = dt * -10.757575757575758
                    c3 = dt * 8.906422717743473
                    c4 = dt * 0.2784090909090909
                    c5 = dt * -0.2735313036020583
                    for i in range(len(u)):
                        u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i] + c5 * k4[i]
                    evaluations += 1
                    system(u, k5, t + 1.0 * dt)
                    c1 = dt * 0.09114583333333333
                    c2 = dt * 0.44923629829290207
                    c3 = dt * 0.6510416666666666
                    c4 = dt * -0.322376179245283
                    c5 = dt * 0.13095238095238096
                    for i in range(len(u)):
                        u[i] = x[i] + c1 * k0[i] + c2 * k2[i] + c3 * k3[i] + c4 * k4[i] + c5 * k5[i]
                    evaluations += 1
                    system(u, k6, t + dt)
                    adt, worst = abs(dt), 0.0
                    c0 = dt * 0.0012326388888888873
                    c1 = dt * -0.004252770290506136
                    c2 = dt * 0.036979166666666674
                    c3 = dt * -0.05086379716981132
                    c4 = dt * 0.04190476190476192
                    c5 = dt * -0.025
                    for i in range(len(k0)):
                        r, s = abs(c0 * k0[i] + c1 * k2[i] + c2 * k3[i] + c3 * k4[i] + c4 * k5[i] + c5 * k6[i]), (atol + rtol * (abs(x[i]) + adt * abs(k0[i]))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
                    worst = float(worst)
                    if worst <= 1.0:
                        t_new = target if clamped else t + dt
                        for i in range(len(x)):
                            p0[i] = x[i]
                        for i in range(len(p1)):
                            p1[i] = u[i] - x[i]
                        for i in range(len(p2)):
                            p2[i] = dt * k0[i] - p1[i]
                        c1 = -dt
                        for i in range(len(p3)):
                            p3[i] = p1[i] + c1 * k6[i] - p2[i]
                        c0 = dt * -1.1270175653862835
                        c1 = dt * 2.675424484351598
                        c2 = dt * -5.685526961588504
                        c3 = dt * 3.5219323679207912
                        c4 = dt * -1.7672812570757455
                        c5 = dt * 2.382468931778144
                        for i in range(len(p4)):
                            p4[i] = c0 * k0[i] + c1 * k2[i] + c2 * k3[i] + c3 * k4[i] + c4 * k5[i] + c5 * k6[i]
                        for i in range(len(x)):
                            x[i] = u[i]
                        stepper._span = t, t_new, dt
                        factor = 5.0 if worst == 0.0 else 0.9 * worst ** -0.2
                        if factor > 5.0:
                            factor = 5.0
                        if again and factor > 1.0:
                            factor = 1.0
                        dt_next, again, dxdt = dt * factor, False, k6
                        accepted += 1
                        lo, t = t, t_new
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
