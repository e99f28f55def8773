def make(kernel, clone, readonly, p):
    p0, p1, p2, p3, p4 = p
    def at(theta, out):
        omt = 1.0 - theta
        c2 = theta * omt
        c3 = theta * theta * omt
        c4 = c3 * omt
        out[0] = p0[0] + theta * p1[0] + c2 * p2[0] + c3 * p3[0] + c4 * p4[0]
        out[1] = p0[1] + theta * p1[1] + c2 * p2[1] + c3 * p3[1] + c4 * p4[1]
        out[2] = p0[2] + theta * p1[2] + c2 * p2[2] + c3 * p3[2] + c4 * p4[2]
        return out
    def sample(observer, lo, hi, h, t0, dt, j, t_end, limit):
        p0_0, p0_1, p0_2, = p0
        p1_0, p1_1, p1_2, = p1
        p2_0, p2_1, p2_2, = p2
        p3_0, p3_1, p3_2, = p3
        p4_0, p4_1, p4_2, = p4
        t = t0 + j * dt
        while t < t_end and t <= limit:
            theta = ((hi if hi < t else t) - lo) / h
            omt = 1.0 - theta
            c2 = theta * omt
            c3 = theta * theta * omt
            c4 = c3 * omt
            s = (
                p0_0 + theta * p1_0 + c2 * p2_0 + c3 * p3_0 + c4 * p4_0,
                p0_1 + theta * p1_1 + c2 * p2_1 + c3 * p3_1 + c4 * p4_1,
                p0_2 + theta * p1_2 + c2 * p2_2 + c3 * p3_2 + c4 * p4_2,
            )
            observer(s, t)
            j += 1
            t = t0 + j * dt
        return j
    return at, sample
