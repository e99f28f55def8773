def make(kernel, k, owner, T, N):
    k0, k1, k2, k3, k4, k5, u = k
    def advance(system, x, t, dt, target):
        x_0, x_1, x_2, = x
        k0_0, k0_1, k0_2, = k0
        c1, = dt * 0.2,
        u[0] = x_0 + c1 * k0_0
        u[1] = x_1 + c1 * k0_1
        u[2] = x_2 + c1 * k0_2
        system(u, k1, t + 0.2 * dt)
        k1_0, k1_1, k1_2, = k1
        c1, c2, = dt * 0.075, dt * 0.225,
        u[0] = x_0 + c1 * k0_0 + c2 * k1_0
        u[1] = x_1 + c1 * k0_1 + c2 * k1_1
        u[2] = x_2 + c1 * k0_2 + c2 * k1_2
        system(u, k2, t + 0.3 * dt)
        k2_0, k2_1, k2_2, = k2
        c1, c2, c3, = dt * 0.3, dt * -0.9, dt * 1.2,
        u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0
        u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1
        u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2
        system(u, k3, t + 0.6 * dt)
        k3_0, k3_1, k3_2, = k3
        c1, c2, c3, c4, = dt * -0.2037037037037037, dt * 2.5, dt * -2.5925925925925926, dt * 1.2962962962962963,
        u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3_0
        u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3_1
        u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3_2
        system(u, k4, t + 1.0 * dt)
        c1, c2, c3, c4, c5, = dt * 0.029495804398148147, dt * 0.341796875, dt * 0.041594328703703706, dt * 0.40034541377314814, dt * 0.061767578125,
        u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3_0 + c5 * k4[0]
        u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3_1 + c5 * k4[1]
        u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3_2 + c5 * k4[2]
        system(u, k5, t + 0.875 * dt)
        c1, c2, c3, c4, = dt * 0.09788359788359788, dt * 0.4025764895330113, dt * 0.21043771043771045, dt * 0.2891022021456804,
        target[0] = x_0 + c1 * k0_0 + c2 * k2_0 + c3 * k3_0 + c4 * k5[0]
        target[1] = x_1 + c1 * k0_1 + c2 * k2_1 + c3 * k3_1 + c4 * k5[1]
        target[2] = x_2 + c1 * k0_2 + c2 * k2_2 + c3 * k3_2 + c4 * k5[2]
        return target
    def error(dt, xerr):
        c0, c1, c2, c3, c4, = dt * -0.004293774801587311, dt * 0.018668586093857853, dt * -0.034155026830808066, dt * -0.019321986607142856, dt * 0.03910220214568039,
        xerr[0] = c0 * k0[0] + c1 * k2[0] + c2 * k3[0] + c3 * k4[0] + c4 * k5[0]
        xerr[1] = c0 * k0[1] + c1 * k2[1] + c2 * k3[1] + c3 * k4[1] + c4 * k5[1]
        xerr[2] = c0 * k0[2] + c1 * k2[2] + c2 * k3[2] + c3 * k4[2] + c4 * k5[2]
        return xerr
    def entry(system, x, t, dt, out=None):
        target = x if out is None else out
        if type(x) is T and len(x) == len(target) == N:
            system(x, k0, t)
            x_0, x_1, x_2, = x
            k0_0, k0_1, k0_2, = k0
            c1, = dt * 0.2,
            u[0] = x_0 + c1 * k0_0
            u[1] = x_1 + c1 * k0_1
            u[2] = x_2 + c1 * k0_2
            system(u, k1, t + 0.2 * dt)
            k1_0, k1_1, k1_2, = k1
            c1, c2, = dt * 0.075, dt * 0.225,
            u[0] = x_0 + c1 * k0_0 + c2 * k1_0
            u[1] = x_1 + c1 * k0_1 + c2 * k1_1
            u[2] = x_2 + c1 * k0_2 + c2 * k1_2
            system(u, k2, t + 0.3 * dt)
            k2_0, k2_1, k2_2, = k2
            c1, c2, c3, = dt * 0.3, dt * -0.9, dt * 1.2,
            u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0
            u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1
            u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2
            system(u, k3, t + 0.6 * dt)
            k3_0, k3_1, k3_2, = k3
            c1, c2, c3, c4, = dt * -0.2037037037037037, dt * 2.5, dt * -2.5925925925925926, dt * 1.2962962962962963,
            u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3_0
            u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3_1
            u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3_2
            system(u, k4, t + 1.0 * dt)
            c1, c2, c3, c4, c5, = dt * 0.029495804398148147, dt * 0.341796875, dt * 0.041594328703703706, dt * 0.40034541377314814, dt * 0.061767578125,
            u[0] = x_0 + c1 * k0_0 + c2 * k1_0 + c3 * k2_0 + c4 * k3_0 + c5 * k4[0]
            u[1] = x_1 + c1 * k0_1 + c2 * k1_1 + c3 * k2_1 + c4 * k3_1 + c5 * k4[1]
            u[2] = x_2 + c1 * k0_2 + c2 * k1_2 + c3 * k2_2 + c4 * k3_2 + c5 * k4[2]
            system(u, k5, t + 0.875 * dt)
            c1, c2, c3, c4, = dt * 0.09788359788359788, dt * 0.4025764895330113, dt * 0.21043771043771045, dt * 0.2891022021456804,
            target[0] = x_0 + c1 * k0_0 + c2 * k2_0 + c3 * k3_0 + c4 * k5[0]
            target[1] = x_1 + c1 * k0_1 + c2 * k2_1 + c3 * k3_1 + c4 * k5[1]
            target[2] = x_2 + c1 * k0_2 + c2 * k2_2 + c3 * k3_2 + c4 * k5[2]
            return target
        return fallback(owner, system, x, t, dt, out)
    _enter(owner, entry, fallback)
    return advance, error
