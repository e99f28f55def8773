def make(kernel, ratio, copy, k):
    K2, K3, K4, K5, K6, = map(kernel, (2, 3, 4, 5, 6))
    def walk(stepper, system, x, t, targets, dt_next, observer, sample, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, k1, k2, k3, k4, k5, k6, u, e, _, _, p0, p1, p2, p3, p4 = k
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
                    K2(u, (1.0, dt * 0.2,), (x, k0,))
                    evaluations += 1
                    system(u, k1, t + 0.2 * dt)
                    K3(u, (1.0, dt * 0.075, dt * 0.225,), (x, k0, k1,))
                    evaluations += 1
                    system(u, k2, t + 0.3 * dt)
                    K4(u, (1.0, dt * 0.9777777777777777, dt * -3.7333333333333334, dt * 3.5555555555555554,), (x, k0, k1, k2,))
                    evaluations += 1
                    system(u, k3, t + 0.8 * dt)
                    K5(u, (1.0, dt * 2.9525986892242035, dt * -11.595793324188385, dt * 9.822892851699436, dt * -0.2908093278463649,), (x, k0, k1, k2, k3,))
                    evaluations += 1
                    system(u, k4, t + 0.8888888888888888 * dt)
                    K6(u, (1.0, dt * 2.8462752525252526, dt * -10.757575757575758, dt * 8.906422717743473, dt * 0.2784090909090909, dt * -0.2735313036020583,), (x, k0, k1, k2, k3, k4,))
                    evaluations += 1
                    system(u, k5, t + 1.0 * dt)
                    K6(u, (1.0, dt * 0.09114583333333333, dt * 0.44923629829290207, dt * 0.6510416666666666, dt * -0.322376179245283, dt * 0.13095238095238096,), (x, k0, k2, k3, k4, k5,))
                    evaluations += 1
                    system(u, k6, t + dt)
                    K6(e, (dt * 0.0012326388888888873, dt * -0.004252770290506136, dt * 0.036979166666666674, dt * -0.05086379716981132, dt * 0.04190476190476192, dt * -0.025,), (k0, k2, k3, k4, k5, k6,))
                    worst = ratio(e, x, k0, atol, rtol, dt)
                    if worst <= 1.0:
                        t_new = target if clamped else t + dt
                        copy(p0, x)
                        K2(p1, (1.0, -1.0,), (u, x,))
                        K2(p2, (dt, -1.0,), (k0, p1,))
                        K3(p3, (1.0, -dt, -1.0,), (p1, k6, p2,))
                        K6(p4, (dt * -1.1270175653862835, dt * 2.675424484351598, dt * -5.685526961588504, dt * 3.5219323679207912, dt * -1.7672812570757455, dt * 2.382468931778144,), (k0, k2, k3, k4, k5, k6,))
                        copy(x, u)
                        stepper._span = t, t_new, dt
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
