def make(kernel, clone, readonly, p):
    K5, = map(kernel, (5,))
    p0, p1, p2, p3, p4 = p
    def at(theta, out):
        omt = 1.0 - theta
        c2 = theta * omt
        c3 = theta * theta * omt
        c4 = c3 * omt
        K5(out, (1.0, theta, c2, c3, c4,), (p0, p1, p2, p3, p4,))
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
