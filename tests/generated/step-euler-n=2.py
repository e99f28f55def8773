def make(kernel, k, owner, T, N):
    k0, u = k
    def advance(system, x, t, dt, target):
        w0 = dt * 1.0
        x_0, x_1, = x
        k0_0, k0_1, = k0
        target[0] = x_0 + w0 * k0_0
        target[1] = x_1 + w0 * k0_1
        return target
    error = None
    def entry(system, x, t, dt, out=None):
        target = x if out is None else out
        if type(x) is T and len(x) == len(target) == N:
            w0 = dt * 1.0
            system(x, k0, t)
            x_0, x_1, = x
            k0_0, k0_1, = k0
            target[0] = x_0 + w0 * k0_0
            target[1] = x_1 + w0 * k0_1
            return target
        return fallback(owner, system, x, t, dt, out)
    _enter(owner, entry, fallback)
    return advance, error
