def make(kernel, k):
    def loop(stepper, system, x, t, steps, width, t_last, dt_last, observer, snap):
        evaluations, counted = 0, EvaluationCounter(system)
        k0, u = k
        target = x
        t0, dt = t, width
        w0 = dt * 1.0
        try:
            for j in range(1, steps + 1):
                if j == steps:
                    t_next, dt = t_last, dt_last
                    w0 = dt * 1.0
                else:
                    t_next = t0 + j * width
                if t_next <= t:  # a width too small to move t
                    t_next = None
                    raise StepSizeUnderflowError(width, t)
                evaluations += 1
                system(x, k0, t)
                for i in range(len(target)):
                    target[i] = x[i] + w0 * k0[i]
                t = t_next
                if not finite(x):
                    break
                observer(snap(x), t)
        except SolverError as exc:
            exc.partial_report = IntegrationReport(x, t, j if t == t_next else j - 1, 0, evaluations + counted.count)
            raise
        if not finite(x):
            exc = SolverError(f'the state is not finite at t={t!r}')
            exc.partial_report = IntegrationReport(x, t, j, 0, evaluations + counted.count)
            raise exc
        return IntegrationReport(x, t_last, steps, 0, evaluations + counted.count)
    return loop
