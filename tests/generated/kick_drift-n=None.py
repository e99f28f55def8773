def make(kernel, buf, owner, T, N):
    K1, K2, K3, K4, K5, K6, K7 = map(kernel, range(1, 8))
    def step(system, state, dt, target):
        q, p, qn, pn = state.q, state.p, target.q, target.p
        system.dpdt(q, buf)
        K2(pn, (1.0, dt,), (p, buf,))
        system.dqdt(pn, buf)
        K2(qn, (1.0, dt,), (q, buf,))
        return target
    return step
