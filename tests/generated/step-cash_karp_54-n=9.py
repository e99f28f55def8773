def make(kernel, k, owner, T, N):
    k0, k1, k2, k3, k4, k5, u = k
    def advance(system, x, t, dt, target):
        c1, = dt * 0.2,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i]
        system(u, k1, t + 0.2 * dt)
        c1, c2, = dt * 0.075, dt * 0.225,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i] + c2 * k1[i]
        system(u, k2, t + 0.3 * dt)
        c1, c2, c3, = dt * 0.3, dt * -0.9, dt * 1.2,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i]
        system(u, k3, t + 0.6 * dt)
        c1, c2, c3, c4, = dt * -0.2037037037037037, dt * 2.5, dt * -2.5925925925925926, dt * 1.2962962962962963,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i]
        system(u, k4, t + 1.0 * dt)
        c1, c2, c3, c4, c5, = dt * 0.029495804398148147, dt * 0.341796875, dt * 0.041594328703703706, dt * 0.40034541377314814, dt * 0.061767578125,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i] + c5 * k4[i]
        system(u, k5, t + 0.875 * dt)
        c1, c2, c3, c4, = dt * 0.09788359788359788, dt * 0.4025764895330113, dt * 0.21043771043771045, dt * 0.2891022021456804,
        for i in range(len(target)):
            target[i] = x[i] + c1 * k0[i] + c2 * k2[i] + c3 * k3[i] + c4 * k5[i]
        return target
    def error(dt, xerr):
        c0, c1, c2, c3, c4, = dt * -0.004293774801587311, dt * 0.018668586093857853, dt * -0.034155026830808066, dt * -0.019321986607142856, dt * 0.03910220214568039,
        for i in range(len(xerr)):
            xerr[i] = c0 * k0[i] + c1 * k2[i] + c2 * k3[i] + c3 * k4[i] + c4 * k5[i]
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
            c1, c2, c3, = dt * 0.3, dt * -0.9, dt * 1.2,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i]
            system(u, k3, t + 0.6 * dt)
            c1, c2, c3, c4, = dt * -0.2037037037037037, dt * 2.5, dt * -2.5925925925925926, dt * 1.2962962962962963,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i]
            system(u, k4, t + 1.0 * dt)
            c1, c2, c3, c4, c5, = dt * 0.029495804398148147, dt * 0.341796875, dt * 0.041594328703703706, dt * 0.40034541377314814, dt * 0.061767578125,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i] + c5 * k4[i]
            system(u, k5, t + 0.875 * dt)
            c1, c2, c3, c4, = dt * 0.09788359788359788, dt * 0.4025764895330113, dt * 0.21043771043771045, dt * 0.2891022021456804,
            for i in range(len(target)):
                target[i] = x[i] + c1 * k0[i] + c2 * k2[i] + c3 * k3[i] + c4 * k5[i]
            return target
        return fallback(owner, system, x, t, dt, out)
    _enter(owner, entry, fallback)
    return advance, error
