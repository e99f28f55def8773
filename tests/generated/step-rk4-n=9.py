def make(kernel, k, owner, T, N):
    k0, k1, k2, k3, u = k
    def advance(system, x, t, dt, target):
        w0 = dt * 0.5
        w1 = 0.5 * dt
        w2 = dt * 1.0
        w3 = 1.0 * dt
        w4 = dt * 0.16666666666666666
        w5 = dt * 0.3333333333333333
        for i in range(len(u)):
            u[i] = x[i] + w0 * k0[i]
        system(u, k1, t + w1)
        for i in range(len(u)):
            u[i] = x[i] + w0 * k1[i]
        system(u, k2, t + w1)
        for i in range(len(u)):
            u[i] = x[i] + w2 * k2[i]
        system(u, k3, t + w3)
        for i in range(len(target)):
            target[i] = x[i] + w4 * k0[i] + w5 * k1[i] + w5 * k2[i] + w4 * k3[i]
        return target
    error = None
    def entry(system, x, t, dt, out=None):
        target = x if out is None else out
        if type(x) is T and len(x) == len(target) == N:
            w0 = dt * 0.5
            w1 = 0.5 * dt
            w2 = dt * 1.0
            w3 = 1.0 * dt
            w4 = dt * 0.16666666666666666
            w5 = dt * 0.3333333333333333
            system(x, k0, t)
            for i in range(len(u)):
                u[i] = x[i] + w0 * k0[i]
            system(u, k1, t + w1)
            for i in range(len(u)):
                u[i] = x[i] + w0 * k1[i]
            system(u, k2, t + w1)
            for i in range(len(u)):
                u[i] = x[i] + w2 * k2[i]
            system(u, k3, t + w3)
            for i in range(len(target)):
                target[i] = x[i] + w4 * k0[i] + w5 * k1[i] + w5 * k2[i] + w4 * k3[i]
            return target
        return fallback(owner, system, x, t, dt, out)
    _enter(owner, entry, fallback)
    return advance, error
