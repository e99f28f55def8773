def make(kernel, k, owner, T, N):
    K2, K5, = map(kernel, (2, 5))
    k0, k1, k2, k3, u = k
    def advance(system, x, t, dt, target):
        K2(u, (1.0, dt * 0.5,), (x, k0,))
        system(u, k1, t + 0.5 * dt)
        K2(u, (1.0, dt * 0.5,), (x, k1,))
        system(u, k2, t + 0.5 * dt)
        K2(u, (1.0, dt * 1.0,), (x, k2,))
        system(u, k3, t + 1.0 * dt)
        K5(target, (1.0, dt * 0.16666666666666666, dt * 0.3333333333333333, dt * 0.3333333333333333, dt * 0.16666666666666666,), (x, k0, k1, k2, k3,))
        return target
    error = None
    return advance, error
