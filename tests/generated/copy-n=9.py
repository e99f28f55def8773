def copy(out, src):
    c0 = 1.0
    for i in range(len(out)):
        out[i] = c0 * src[i]
    return out
