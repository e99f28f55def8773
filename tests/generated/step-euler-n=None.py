def make(kernel, k, owner, T, N):
    K1, K2, K3, K4, K5, K6, K7 = map(kernel, range(1, 8))
    k0, u = k
    def advance(system, x, t, dt, target):
        K2(target, (1.0, dt * 1.0,), (x, k0,))
        return target
    error = None
    return advance, error
