def scale_sum(out, coeffs, terms):
    t0, t1, t2, t3, t4, = terms
    c0 = coeffs[0]
    c1 = coeffs[1]
    c2 = coeffs[2]
    c3 = coeffs[3]
    c4 = coeffs[4]
    for i in range(len(out)):
        out[i] = c0 * t0[i] + c1 * t1[i] + c2 * t2[i] + c3 * t3[i] + c4 * t4[i]
    return out
