def make(kernel, k, owner, T, N):
    k0, k1, k2, k3, u = k
    def advance(system, x, t, dt, target):
        x_0, x_1, x_2, = x
        k0_0, k0_1, k0_2, = k0
        c1, = dt * 0.5,
        u[0] = x_0 + c1 * k0_0
        u[1] = x_1 + c1 * k0_1
        u[2] = x_2 + c1 * k0_2
        system(u, k1, t + 0.5 * dt)
        k1_0, k1_1, k1_2, = k1
        c1, = dt * 0.5,
        u[0] = x_0 + c1 * k1_0
        u[1] = x_1 + c1 * k1_1
        u[2] = x_2 + c1 * k1_2
        system(u, k2, t + 0.5 * dt)
        k2_0, k2_1, k2_2, = k2
        c1, = dt * 1.0,
        u[0] = x_0 + c1 * k2_0
        u[1] = x_1 + c1 * k2_1
        u[2] = x_2 + c1 * k2_2
        system(u, k3, t + 1.0 * dt)
        c1, c2, c3, c4, = dt * 0.16666666666666666, dt * 0.3333333333333333, dt * 0.3333333333333333, dt * 0.16666666666666666,
        target[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3[0]
        target[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3[1]
        target[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3[2]
        return target
    error = None
    def entry(system, x, t, dt, out=None):
        target = x if out is None else out
        if type(x) is T and len(x) == len(target) == N:
            system(x, k0, t)
            x_0, x_1, x_2, = x
            k0_0, k0_1, k0_2, = k0
            c1, = dt * 0.5,
            u[0] = x_0 + c1 * k0_0
            u[1] = x_1 + c1 * k0_1
            u[2] = x_2 + c1 * k0_2
            system(u, k1, t + 0.5 * dt)
            k1_0, k1_1, k1_2, = k1
            c1, = dt * 0.5,
            u[0] = x_0 + c1 * k1_0
            u[1] = x_1 + c1 * k1_1
            u[2] = x_2 + c1 * k1_2
            system(u, k2, t + 0.5 * dt)
            k2_0, k2_1, k2_2, = k2
            c1, = dt * 1.0,
            u[0] = x_0 + c1 * k2_0
            u[1] = x_1 + c1 * k2_1
            u[2] = x_2 + c1 * k2_2
            system(u, k3, t + 1.0 * dt)
            c1, c2, c3, c4, = dt * 0.16666666666666666, dt * 0.3333333333333333, dt * 0.3333333333333333, dt * 0.16666666666666666,
            target[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3[0]
            target[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3[1]
            target[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3[2]
            return target
        return fallback(owner, system, x, t, dt, out)
    _enter(owner, entry, fallback)
    return advance, error
