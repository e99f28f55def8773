def scale_sum(out, coeffs, terms):
    t0, = terms
    c0 = coeffs[0]
    for i in range(len(out)):
        out[i] = c0 * t0[i]
    return out
