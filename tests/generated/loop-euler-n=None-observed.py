def make(kernel, k):
    K2, = map(kernel, (2,))
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, u = k
        target = x
        t0, dt = t, width
        try:
            for j in range(1, steps + 1):
                if j == steps:
                    t_next, dt = t_last, dt_last
                else:
                    t_next = t0 + j * width
                if t_next <= t:  # a width too small to move t
                    raise StepSizeUnderflowError(width, t)
                evaluations += 1
                system(x, k0, t)
                K2(target, (1.0, dt * 1.0,), (x, k0,))
                t = t_next
                observer(snap(x), t)
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j - 1, 0, evaluations + counted.count)
            raise
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
