def make(kernel, k, owner, T, N):
    K2, K3, K4, K5, K6, = map(kernel, (2, 3, 4, 5, 6))
    k0, k1, k2, k3, k4, k5, u = k
    def advance(system, x, t, dt, target):
        K2(u, (1.0, dt * 0.2,), (x, k0,))
        system(u, k1, t + 0.2 * dt)
        K3(u, (1.0, dt * 0.075, dt * 0.225,), (x, k0, k1,))
        system(u, k2, t + 0.3 * dt)
        K4(u, (1.0, dt * 0.3, dt * -0.9, dt * 1.2,), (x, k0, k1, k2,))
        system(u, k3, t + 0.6 * dt)
        K5(u, (1.0, dt * -0.2037037037037037, dt * 2.5, dt * -2.5925925925925926, dt * 1.2962962962962963,), (x, k0, k1, k2, k3,))
        system(u, k4, t + 1.0 * dt)
        K6(u, (1.0, dt * 0.029495804398148147, dt * 0.341796875, dt * 0.041594328703703706, dt * 0.40034541377314814, dt * 0.061767578125,), (x, k0, k1, k2, k3, k4,))
        system(u, k5, t + 0.875 * dt)
        K5(target, (1.0, dt * 0.09788359788359788, dt * 0.4025764895330113, dt * 0.21043771043771045, dt * 0.2891022021456804,), (x, k0, k2, k3, k5,))
        return target
    def error(dt, xerr):
        K5(xerr, (dt * -0.004293774801587311, dt * 0.018668586093857853, dt * -0.034155026830808066, dt * -0.019321986607142856, dt * 0.03910220214568039,), (k0, k2, k3, k4, k5,))
        return xerr
    return advance, error
