def make(kernel, k, owner, T, N):
    K2, K5, = map(kernel, (2, 5))
    k0, k1, k2, k3, u = k
    def advance(system, x, t, dt, target):
        w0 = dt * 0.5
        w1 = 0.5 * dt
        w2 = dt * 1.0
        w3 = 1.0 * dt
        w4 = dt * 0.16666666666666666
        w5 = dt * 0.3333333333333333
        K2(u, (1.0, w0,), (x, k0,))
        system(u, k1, t + w1)
        K2(u, (1.0, w0,), (x, k1,))
        system(u, k2, t + w1)
        K2(u, (1.0, w2,), (x, k2,))
        system(u, k3, t + w3)
        K5(target, (1.0, w4, w5, w5, w4,), (x, k0, k1, k2, k3,))
        return target
    error = None
    return advance, error
