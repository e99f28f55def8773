def make(kernel, buf, owner, T, N):
    def step(system, state, dt, target):
        q, p, qn, pn = state.q, state.p, target.q, target.p
        system.dpdt(q, buf)
        c1, = dt,
        pn[0] = p[0] + c1 * buf[0]
        pn[1] = p[1] + c1 * buf[1]
        pn[2] = p[2] + c1 * buf[2]
        system.dqdt(pn, buf)
        c1, = dt,
        qn[0] = q[0] + c1 * buf[0]
        qn[1] = q[1] + c1 * buf[1]
        qn[2] = q[2] + c1 * buf[2]
        return target
    def entry(system, state, t, dt, out=None):
        target = state if out is None else out
        q, p, qn, pn = state.q, state.p, target.q, target.p
        if type(q) is T and len(q) == len(p) == len(qn) == len(pn) == N:
            system.dpdt(q, buf)
            c1, = dt,
            pn[0] = p[0] + c1 * buf[0]
            pn[1] = p[1] + c1 * buf[1]
            pn[2] = p[2] + c1 * buf[2]
            system.dqdt(pn, buf)
            c1, = dt,
            qn[0] = q[0] + c1 * buf[0]
            qn[1] = q[1] + c1 * buf[1]
            qn[2] = q[2] + c1 * buf[2]
            return target
        return fallback(owner, system, state, t, dt, out)
    _enter(owner, entry, fallback)
    return step
