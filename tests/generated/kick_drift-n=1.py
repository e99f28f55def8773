def make(kernel, buf, owner, T, N):
    def step(system, state, dt, target):
        q, p, qn, pn = state.q, state.p, target.q, target.p
        system.dpdt(q, buf)
        pn[0] = p[0] + dt * buf[0]
        system.dqdt(pn, buf)
        qn[0] = q[0] + dt * buf[0]
        return target
    def entry(system, state, t, dt, out=None):
        target, q, p = state if out is None else out, state.q, state.p
        if target is state:
            qn, pn = q, p
        else:
            qn, pn = target.q, target.p
        if type(q) is T and len(q) == len(p) == N and (target is state or len(qn) == len(pn) == N):
            system.dpdt(q, buf)
            pn[0] = p[0] + dt * buf[0]
            system.dqdt(pn, buf)
            qn[0] = q[0] + dt * buf[0]
            return target
        return fallback(owner, system, state, t, dt, out)
    _enter(owner, entry, fallback)
    return step
