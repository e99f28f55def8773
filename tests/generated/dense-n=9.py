def make(kernel, clone, readonly, p):
    p0, p1, p2, p3, p4 = p
    def at(theta, out):
        omt = 1.0 - theta
        c2 = theta * omt
        c3 = theta * theta * omt
        c4 = c3 * omt
        for i in range(len(out)):
            out[i] = p0[i] + theta * p1[i] + c2 * p2[i] + c3 * p3[i] + c4 * p4[i]
        return out
    def sample(observer, lo, hi, h, t0, dt, j, t_end, limit):
        t = t0 + j * dt
        while t < t_end and t <= limit:
            theta = ((hi if hi < t else t) - lo) / h
            s = readonly(at(theta, clone(p0)), True)
            observer(s, t)
            j += 1
            t = t0 + j * dt
        return j
    return at, sample
