def make(kernel, k, owner, T, N):
    k0, k1, k2, k3, k4, k5, k6, u = k
    def advance(system, x, t, dt, target):
        w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15, w16, w17, w18, w19, w20, w21, w22, w23, w24, = dt * 0.2, 0.2 * dt, dt * 0.075, dt * 0.225, 0.3 * dt, dt * 0.9777777777777777, dt * -3.7333333333333334, dt * 3.5555555555555554, 0.8 * dt, dt * 2.9525986892242035, dt * -11.595793324188385, dt * 9.822892851699436, dt * -0.2908093278463649, 0.8888888888888888 * dt, dt * 2.8462752525252526, dt * -10.757575757575758, dt * 8.906422717743473, dt * 0.2784090909090909, dt * -0.2735313036020583, 1.0 * dt, dt * 0.09114583333333333, dt * 0.44923629829290207, dt * 0.6510416666666666, dt * -0.322376179245283, dt * 0.13095238095238096,
        for i in range(len(u)):
            u[i] = x[i] + w0 * k0[i]
        system(u, k1, t + w1)
        for i in range(len(u)):
            u[i] = x[i] + w2 * k0[i] + w3 * k1[i]
        system(u, k2, t + w4)
        for i in range(len(u)):
            u[i] = x[i] + w5 * k0[i] + w6 * k1[i] + w7 * k2[i]
        system(u, k3, t + w8)
        for i in range(len(u)):
            u[i] = x[i] + w9 * k0[i] + w10 * k1[i] + w11 * k2[i] + w12 * k3[i]
        system(u, k4, t + w13)
        for i in range(len(u)):
            u[i] = x[i] + w14 * k0[i] + w15 * k1[i] + w16 * k2[i] + w17 * k3[i] + w18 * k4[i]
        system(u, k5, t + w19)
        for i in range(len(target)):
            target[i] = x[i] + w20 * k0[i] + w21 * k2[i] + w22 * k3[i] + w23 * k4[i] + w24 * k5[i]
        return target
    def error(dt, xerr):
        w0, w1, w2, w3, w4, w5, = dt * 0.0012326388888888873, dt * -0.004252770290506136, dt * 0.036979166666666674, dt * -0.05086379716981132, dt * 0.04190476190476192, dt * -0.025,
        for i in range(len(xerr)):
            xerr[i] = w0 * k0[i] + w1 * k2[i] + w2 * k3[i] + w3 * k4[i] + w4 * k5[i] + w5 * k6[i]
        return xerr
    def entry(system, x, t, dt, out=None):
        target = x if out is None else out
        if type(x) is T and len(x) == len(target) == N:
            w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15, w16, w17, w18, w19, w20, w21, w22, w23, w24, = dt * 0.2, 0.2 * dt, dt * 0.075, dt * 0.225, 0.3 * dt, dt * 0.9777777777777777, dt * -3.7333333333333334, dt * 3.5555555555555554, 0.8 * dt, dt * 2.9525986892242035, dt * -11.595793324188385, dt * 9.822892851699436, dt * -0.2908093278463649, 0.8888888888888888 * dt, dt * 2.8462752525252526, dt * -10.757575757575758, dt * 8.906422717743473, dt * 0.2784090909090909, dt * -0.2735313036020583, 1.0 * dt, dt * 0.09114583333333333, dt * 0.44923629829290207, dt * 0.6510416666666666, dt * -0.322376179245283, dt * 0.13095238095238096,
            system(x, k0, t)
            for i in range(len(u)):
                u[i] = x[i] + w0 * k0[i]
            system(u, k1, t + w1)
            for i in range(len(u)):
                u[i] = x[i] + w2 * k0[i] + w3 * k1[i]
            system(u, k2, t + w4)
            for i in range(len(u)):
                u[i] = x[i] + w5 * k0[i] + w6 * k1[i] + w7 * k2[i]
            system(u, k3, t + w8)
            for i in range(len(u)):
                u[i] = x[i] + w9 * k0[i] + w10 * k1[i] + w11 * k2[i] + w12 * k3[i]
            system(u, k4, t + w13)
            for i in range(len(u)):
                u[i] = x[i] + w14 * k0[i] + w15 * k1[i] + w16 * k2[i] + w17 * k3[i] + w18 * k4[i]
            system(u, k5, t + w19)
            for i in range(len(target)):
                target[i] = x[i] + w20 * k0[i] + w21 * k2[i] + w22 * k3[i] + w23 * k4[i] + w24 * k5[i]
            return target
        return fallback(owner, system, x, t, dt, out)
    _enter(owner, entry, fallback)
    return advance, error
