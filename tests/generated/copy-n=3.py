def copy(out, src):
    c0 = 1.0
    out[0] = c0 * src[0]
    out[1] = c0 * src[1]
    out[2] = c0 * src[2]
    return out
