def scale_sum(out, coeffs, terms):
    t0, t1, = terms
    c0 = coeffs[0]
    c1 = coeffs[1]
    for i in range(len(out)):
        out[i] = c0 * t0[i] + c1 * t1[i]
    return out
