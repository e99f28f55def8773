def make(kernel, ratio, copy, k):
    K2, K3, K4, K5, K6, = map(kernel, (2, 3, 4, 5, 6))
    def walk(stepper, system, x, t, targets, dt_next, observer, sample, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, k1, k2, k3, k4, k5, u, e, _, _ = k
        params = stepper.params
        atol, rtol, dt_min = params.atol, params.rtol, params.dt_min
        dxdt, again = stepper._dxdt, stepper._rejected
        accepted = rejected = 0
        try:
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
                    K2(u, (1.0, dt * 0.2,), (x, k0,))
                    evaluations += 1
                    system(u, k1, t + 0.2 * dt)
                    K3(u, (1.0, dt * 0.075, dt * 0.225,), (x, k0, k1,))
                    evaluations += 1
                    system(u, k2, t + 0.3 * dt)
                    K4(u, (1.0, dt * 0.3, dt * -0.9, dt * 1.2,), (x, k0, k1, k2,))
                    evaluations += 1
                    system(u, k3, t + 0.6 * dt)
                    K5(u, (1.0, dt * -0.2037037037037037, dt * 2.5, dt * -2.5925925925925926, dt * 1.2962962962962963,), (x, k0, k1, k2, k3,))
                    evaluations += 1
                    system(u, k4, t + 1.0 * dt)
                    K6(u, (1.0, dt * 0.029495804398148147, dt * 0.341796875, dt * 0.041594328703703706, dt * 0.40034541377314814, dt * 0.061767578125,), (x, k0, k1, k2, k3, k4,))
                    evaluations += 1
                    system(u, k5, t + 0.875 * dt)
                    K5(u, (1.0, dt * 0.09788359788359788, dt * 0.4025764895330113, dt * 0.21043771043771045, dt * 0.2891022021456804,), (x, k0, k2, k3, k5,))
                    K5(e, (dt * -0.004293774801587311, dt * 0.018668586093857853, dt * -0.034155026830808066, dt * -0.019321986607142856, dt * 0.03910220214568039,), (k0, k2, k3, k4, k5,))
                    worst = ratio(e, x, k0, atol, rtol, dt)
                    if worst <= 1.0:
                        t_new = target if clamped else t + dt
                        copy(x, u)
                        factor = 5.0 if worst == 0.0 else 0.9 * worst ** -0.2
                        if factor > 5.0:
                            factor = 5.0
                        if again and factor > 1.0:
                            factor = 1.0
                        dt_next, again, dxdt = dt * factor, False, None
                        accepted += 1
                        lo, t = t, t_new
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
            k[0], k[5] = k0, k5
            stepper._dxdt, stepper._rejected = dxdt, again
        return IntegrationReport(x, t, accepted, rejected, evaluations + counted.count)
    return walk
