def make(kernel, k, owner, T, N):
    k0, u = k
    def advance(system, x, t, dt, target):
        w0 = dt * 1.0
        for i in range(len(target)):
            target[i] = x[i] + w0 * k0[i]
        return target
    error = None
    def entry(system, x, t, dt, out=None):
        target = x if out is None else out
        if type(x) is T and len(x) == len(target) == N:
            w0 = dt * 1.0
            system(x, k0, t)
            for i in range(len(target)):
                target[i] = x[i] + w0 * k0[i]
            return target
        return fallback(owner, system, x, t, dt, out)
    _enter(owner, entry, fallback)
    return advance, error
