def make(kernel, k, owner, T, N):
    K2, = map(kernel, (2,))
    k0, u = k
    def advance(system, x, t, dt, target):
        w0 = dt * 1.0
        K2(target, (1.0, w0,), (x, k0,))
        return target
    error = None
    return advance, error
