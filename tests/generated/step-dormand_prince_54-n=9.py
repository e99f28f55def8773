def make(kernel, k, owner, T, N):
    k0, k1, k2, k3, k4, k5, k6, u = k
    def advance(system, x, t, dt, target):
        c1, = dt * 0.2,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i]
        system(u, k1, t + 0.2 * dt)
        c1, c2, = dt * 0.075, dt * 0.225,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i] + c2 * k1[i]
        system(u, k2, t + 0.3 * dt)
        c1, c2, c3, = dt * 0.9777777777777777, dt * -3.7333333333333334, dt * 3.5555555555555554,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i]
        system(u, k3, t + 0.8 * dt)
        c1, c2, c3, c4, = dt * 2.9525986892242035, dt * -11.595793324188385, dt * 9.822892851699436, dt * -0.2908093278463649,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i]
        system(u, k4, t + 0.8888888888888888 * dt)
        c1, c2, c3, c4, c5, = dt * 2.8462752525252526, dt * -10.757575757575758, dt * 8.906422717743473, dt * 0.2784090909090909, dt * -0.2735313036020583,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i] + c5 * k4[i]
        system(u, k5, t + 1.0 * dt)
        c1, c2, c3, c4, c5, = dt * 0.09114583333333333, dt * 0.44923629829290207, dt * 0.6510416666666666, dt * -0.322376179245283, dt * 0.13095238095238096,
        for i in range(len(target)):
            target[i] = x[i] + c1 * k0[i] + c2 * k2[i] + c3 * k3[i] + c4 * k4[i] + c5 * k5[i]
        return target
    def error(dt, xerr):
        c0, c1, c2, c3, c4, c5, = dt * 0.0012326388888888873, dt * -0.004252770290506136, dt * 0.036979166666666674, dt * -0.05086379716981132, dt * 0.04190476190476192, dt * -0.025,
        for i in range(len(xerr)):
            xerr[i] = c0 * k0[i] + c1 * k2[i] + c2 * k3[i] + c3 * k4[i] + c4 * k5[i] + c5 * k6[i]
        return xerr
    def entry(system, x, t, dt, out=None):
        target = x if out is None else out
        if type(x) is T and len(x) == len(target) == N:
            system(x, k0, t)
            c1, = dt * 0.2,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k0[i]
            system(u, k1, t + 0.2 * dt)
            c1, c2, = dt * 0.075, dt * 0.225,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k0[i] + c2 * k1[i]
            system(u, k2, t + 0.3 * dt)
            c1, c2, c3, = dt * 0.9777777777777777, dt * -3.7333333333333334, dt * 3.5555555555555554,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i]
            system(u, k3, t + 0.8 * dt)
            c1, c2, c3, c4, = dt * 2.9525986892242035, dt * -11.595793324188385, dt * 9.822892851699436, dt * -0.2908093278463649,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i]
            system(u, k4, t + 0.8888888888888888 * dt)
            c1, c2, c3, c4, c5, = dt * 2.8462752525252526, dt * -10.757575757575758, dt * 8.906422717743473, dt * 0.2784090909090909, dt * -0.2735313036020583,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i] + c5 * k4[i]
            system(u, k5, t + 1.0 * dt)
            c1, c2, c3, c4, c5, = dt * 0.09114583333333333, dt * 0.44923629829290207, dt * 0.6510416666666666, dt * -0.322376179245283, dt * 0.13095238095238096,
            for i in range(len(target)):
                target[i] = x[i] + c1 * k0[i] + c2 * k2[i] + c3 * k3[i] + c4 * k4[i] + c5 * k5[i]
            return target
        return fallback(owner, system, x, t, dt, out)
    _enter(owner, entry, fallback)
    return advance, error
