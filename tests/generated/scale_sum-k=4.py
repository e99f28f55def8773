def scale_sum(out, coeffs, terms):
    t0, t1, t2, t3, = terms
    c0, c1, c2, c3, = coeffs[0], coeffs[1], coeffs[2], coeffs[3],
    for i in range(len(out)):
        out[i] = c0 * t0[i] + c1 * t1[i] + c2 * t2[i] + c3 * t3[i]
    return out
