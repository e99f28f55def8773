def make(kernel, buf, owner, T, N):
    K2, = map(kernel, (2,))
    def step(system, state, dt, target):
        q = state.q
        p = state.p
        qn = target.q
        pn = target.p
        system.dpdt(q, buf)
        K2(pn, (1.0, dt,), (p, buf,))
        system.dqdt(pn, buf)
        K2(qn, (1.0, dt,), (q, buf,))
        return target
    return step
