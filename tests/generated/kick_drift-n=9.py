def make(kernel, buf, owner, T, N):
    def step(system, state, dt, target):
        q, p, qn, pn = state.q, state.p, target.q, target.p
        system.dpdt(q, buf)
        for i in range(len(pn)):
            pn[i] = p[i] + dt * buf[i]
        system.dqdt(pn, buf)
        for i in range(len(qn)):
            qn[i] = q[i] + dt * buf[i]
        return target
    def entry(system, state, t, dt, out=None):
        target, q, p = state if out is None else out, state.q, state.p
        if target is state:
            qn, pn = q, p
        else:
            qn, pn = target.q, target.p
        if type(q) is T and len(q) == len(p) == N and (target is state or len(qn) == len(pn) == N):
            system.dpdt(q, buf)
            for i in range(len(pn)):
                pn[i] = p[i] + dt * buf[i]
            system.dqdt(pn, buf)
            for i in range(len(qn)):
                qn[i] = q[i] + dt * buf[i]
            return target
        return fallback(owner, system, state, t, dt, out)
    _enter(owner, entry, fallback)
    return step
