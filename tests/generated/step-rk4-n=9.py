def make(kernel, k, owner, T, N):
    k0, k1, k2, k3, u = k
    def advance(system, x, t, dt, target):
        c1, = dt * 0.5,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k0[i]
        system(u, k1, t + 0.5 * dt)
        c1, = dt * 0.5,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k1[i]
        system(u, k2, t + 0.5 * dt)
        c1, = dt * 1.0,
        for i in range(len(u)):
            u[i] = x[i] + c1 * k2[i]
        system(u, k3, t + 1.0 * dt)
        c1, c2, c3, c4, = dt * 0.16666666666666666, dt * 0.3333333333333333, dt * 0.3333333333333333, dt * 0.16666666666666666,
        for i in range(len(target)):
            target[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i]
        return target
    error = None
    def entry(system, x, t, dt, out=None):
        target = x if out is None else out
        if type(x) is T and len(x) == len(target) == N:
            system(x, k0, t)
            c1, = dt * 0.5,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k0[i]
            system(u, k1, t + 0.5 * dt)
            c1, = dt * 0.5,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k1[i]
            system(u, k2, t + 0.5 * dt)
            c1, = dt * 1.0,
            for i in range(len(u)):
                u[i] = x[i] + c1 * k2[i]
            system(u, k3, t + 1.0 * dt)
            c1, c2, c3, c4, = dt * 0.16666666666666666, dt * 0.3333333333333333, dt * 0.3333333333333333, dt * 0.16666666666666666,
            for i in range(len(target)):
                target[i] = x[i] + c1 * k0[i] + c2 * k1[i] + c3 * k2[i] + c4 * k3[i]
            return target
        return fallback(owner, system, x, t, dt, out)
    _enter(owner, entry, fallback)
    return advance, error
