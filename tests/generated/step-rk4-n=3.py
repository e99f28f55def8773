def make(kernel, k, owner, T, N):
    k0, k1, k2, k3, u = k
    def advance(system, x, t, dt, target):
        w0 = dt * 0.5
        w1 = 0.5 * dt
        w2 = dt * 1.0
        w3 = 1.0 * dt
        w4 = dt * 0.16666666666666666
        w5 = dt * 0.3333333333333333
        x_0, x_1, x_2, = x
        k0_0, k0_1, k0_2, = k0
        u[0] = x_0 + w0 * k0_0
        u[1] = x_1 + w0 * k0_1
        u[2] = x_2 + w0 * k0_2
        system(u, k1, t + w1)
        k1_0, k1_1, k1_2, = k1
        u[0] = x_0 + w0 * k1_0
        u[1] = x_1 + w0 * k1_1
        u[2] = x_2 + w0 * k1_2
        system(u, k2, t + w1)
        k2_0, k2_1, k2_2, = k2
        u[0] = x_0 + w2 * k2_0
        u[1] = x_1 + w2 * k2_1
        u[2] = x_2 + w2 * k2_2
        system(u, k3, t + w3)
        k3_0, k3_1, k3_2, = k3
        target[0] = x_0 + w4 * k0_0 + w5 * k1_0 + w5 * k2_0 + w4 * k3_0
        target[1] = x_1 + w4 * k0_1 + w5 * k1_1 + w5 * k2_1 + w4 * k3_1
        target[2] = x_2 + w4 * k0_2 + w5 * k1_2 + w5 * k2_2 + w4 * k3_2
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
            x_0, x_1, x_2, = x
            k0_0, k0_1, k0_2, = k0
            u[0] = x_0 + w0 * k0_0
            u[1] = x_1 + w0 * k0_1
            u[2] = x_2 + w0 * k0_2
            system(u, k1, t + w1)
            k1_0, k1_1, k1_2, = k1
            u[0] = x_0 + w0 * k1_0
            u[1] = x_1 + w0 * k1_1
            u[2] = x_2 + w0 * k1_2
            system(u, k2, t + w1)
            k2_0, k2_1, k2_2, = k2
            u[0] = x_0 + w2 * k2_0
            u[1] = x_1 + w2 * k2_1
            u[2] = x_2 + w2 * k2_2
            system(u, k3, t + w3)
            k3_0, k3_1, k3_2, = k3
            target[0] = x_0 + w4 * k0_0 + w5 * k1_0 + w5 * k2_0 + w4 * k3_0
            target[1] = x_1 + w4 * k0_1 + w5 * k1_1 + w5 * k2_1 + w4 * k3_1
            target[2] = x_2 + w4 * k0_2 + w5 * k1_2 + w5 * k2_2 + w4 * k3_2
            return target
        return fallback(owner, system, x, t, dt, out)
    _enter(owner, entry, fallback)
    return advance, error
