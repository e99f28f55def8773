def make(kernel, buf, owner, T, N):
    def step(system, state, dt, target):
        q, p, qn, pn = state.q, state.p, target.q, target.p
        system.dpdt(q, buf)
        c1, = dt,
        for i in range(len(pn)):
            pn[i] = p[i] + c1 * buf[i]
        system.dqdt(pn, buf)
        c1, = dt,
        for i in range(len(qn)):
            qn[i] = q[i] + c1 * buf[i]
        return target
    def entry(system, state, t, dt, out=None):
        target = state if out is None else out
        q, p, qn, pn = state.q, state.p, target.q, target.p
        if type(q) is T and len(q) == len(p) == len(qn) == len(pn) == N:
            system.dpdt(q, buf)
            c1, = dt,
            for i in range(len(pn)):
                pn[i] = p[i] + c1 * buf[i]
            system.dqdt(pn, buf)
            c1, = dt,
            for i in range(len(qn)):
                qn[i] = q[i] + c1 * buf[i]
            return target
        return fallback(owner, system, state, t, dt, out)
    _enter(owner, entry, fallback)
    return step
