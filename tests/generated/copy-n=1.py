def copy(out, src):
    c0, = 1.0,
    out[0] = c0 * src[0]
    return out
