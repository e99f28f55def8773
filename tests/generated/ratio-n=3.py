def ratio(xerr, x, dxdt, atol, rtol, dt):
    adt, worst = abs(dt), 0.0
    r, s = abs(xerr[0]), (atol + rtol * (abs(x[0]) + adt * abs(dxdt[0]))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
    r, s = abs(xerr[1]), (atol + rtol * (abs(x[1]) + adt * abs(dxdt[1]))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
    r, s = abs(xerr[2]), (atol + rtol * (abs(x[2]) + adt * abs(dxdt[2]))); r = r / s if s else r * float('inf'); worst = r if r > worst or r != r else worst
    worst = float(worst)
    return worst
