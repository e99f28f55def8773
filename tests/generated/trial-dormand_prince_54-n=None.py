def make(kernel, ratio, copy, k):
    K2, K3, K4, K5, K6, = map(kernel, (2, 3, 4, 5, 6))
    def one(stepper, system, x, t, dt):
        counted = system
        k0, k1, k2, k3, k4, k5, k6, u, e, _, _ = k
        params = stepper.params
        atol, rtol, dt_min = params.atol, params.rtol, params.dt_min
        dxdt, again = stepper._dxdt, stepper._rejected
        try:
            if t + dt == t:
                raise StepSizeUnderflowError(dt, t)
            if dxdt is not k0:
                if dxdt is k6:
                    k0, k6 = k6, k0
                else:
                    system(x, k0, t)
                dxdt = k0
            K2(u, (1.0, dt * 0.2,), (x, k0,))
            system(u, k1, t + 0.2 * dt)
            K3(u, (1.0, dt * 0.075, dt * 0.225,), (x, k0, k1,))
            system(u, k2, t + 0.3 * dt)
            K4(u, (1.0, dt * 0.9777777777777777, dt * -3.7333333333333334, dt * 3.5555555555555554,), (x, k0, k1, k2,))
            system(u, k3, t + 0.8 * dt)
            K5(u, (1.0, dt * 2.9525986892242035, dt * -11.595793324188385, dt * 9.822892851699436, dt * -0.2908093278463649,), (x, k0, k1, k2, k3,))
            system(u, k4, t + 0.8888888888888888 * dt)
            K6(u, (1.0, dt * 2.8462752525252526, dt * -10.757575757575758, dt * 8.906422717743473, dt * 0.2784090909090909, dt * -0.2735313036020583,), (x, k0, k1, k2, k3, k4,))
            system(u, k5, t + 1.0 * dt)
            K6(u, (1.0, dt * 0.09114583333333333, dt * 0.44923629829290207, dt * 0.6510416666666666, dt * -0.322376179245283, dt * 0.13095238095238096,), (x, k0, k2, k3, k4, k5,))
            system(u, k6, t + dt)
            K6(e, (dt * 0.0012326388888888873, dt * -0.004252770290506136, dt * 0.036979166666666674, dt * -0.05086379716981132, dt * 0.04190476190476192, dt * -0.025,), (k0, k2, k3, k4, k5, k6,))
            worst = ratio(e, x, k0, atol, rtol, dt)
            if worst <= 1.0:
                t_new = t + dt
                copy(x, u)
                factor = 5.0 if worst == 0.0 else 0.9 * worst ** -0.2
                if factor > 5.0:
                    factor = 5.0
                if again and factor > 1.0:
                    factor = 1.0
                dt_next, again, dxdt = dt * factor, False, k6
                return StepResult(True, t_new, dt_next, worst)
            if not isfinite(worst) and not finite(k0):
                raise SolverError(f'the derivative at t={t!r} is not finite')
            again, factor = True, 0.9 * worst ** -0.2
            dt_next = dt * (factor if factor > 0.2 else 0.2)
            if abs(dt_next) < dt_min:
                raise StepSizeUnderflowError(dt_next, t, worst)
            return StepResult(False, t, dt_next, worst)
        finally:
            k[0], k[6] = k0, k6
            stepper._dxdt, stepper._rejected = dxdt, again
    return one
