"""odekit benchmark: one seeded workload per invocation.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Run from the root of a source checkout; odekit is imported from its
``src/`` directory.  One process, one Python thread, closed loop: each
solve starts when the previous one returns, cycling through the
workload's seeded inputs for at least one full pass and until ``S``
seconds have elapsed; the slowest inputs are then solved again until
each has three solves.  End-to-end metrics come from these untraced
solves, in reference seconds (see yardstick.py).  With ``--trace 1`` a separate traced pass over a fixed
subset of the inputs follows and the per-layer metrics are printed
instead.  Every result is checked against an independent reference.

The last line of standard output is one JSON object; a human-readable
table precedes it and the full record, with its environment stamp, is
written to ``benchmarks/results/``.  The exit code is 1 when any check
failed, 2 when the checkout holds no odekit source.  ``--smoke`` runs
every workload once, traced, and checks the benchmark itself.
"""

import os

# One BLAS thread per process: the machine has two cores and the
# workload already keeps one busy.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from catalogue import DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, LAYERS, PER_LAYER  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Plain, Traced  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 7
TAIL_INPUTS = 10


class NoSource(Exception):
    pass


def import_odekit():
    """A fresh import of odekit from this checkout's source tree."""
    for name in [m for m in sys.modules if m == "odekit" or m.startswith("odekit.")]:
        del sys.modules[name]
    ok = importlib.import_module("odekit")
    if SRC not in Path(ok.__file__).resolve().parents:
        raise NoSource(f"odekit was imported from {ok.__file__}, not from {SRC}")
    return ok


def same(a, b):
    """Bit-for-bit equality of two states of any container."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def per_call_us(fn, x, dxdt):
    """Median per-call time of ``fn`` in a bare loop on the given state."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(x, dxdt, 0.0)
        if time.perf_counter() - t0 > 0.01:
            break
        n *= 4
    batches = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(x, dxdt, 0.0)
        batches.append((time.perf_counter() - t0) / n)
    return statistics.median(batches) * 1e6


def copy_gbps(trajectories):
    """np.copyto rate on arrays of the ensemble's size, counting the
    bytes read and written (computed, cache-resident)."""
    src = np.random.default_rng(0).standard_normal((3, trajectories))
    dst = np.empty_like(src)
    reps = 200
    rates = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(reps):
            np.copyto(dst, src)
        rates.append(2 * src.nbytes * reps / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def per_input(times, inputs):
    """Each input's median solve time."""
    by_input = {}
    for t, i in zip(times, inputs):
        by_input.setdefault(i, []).append(t)
    return {i: statistics.median(ts) for i, ts in by_input.items()}


def tail(times, inputs):
    """Highest whole percentile of the per-input solve times with at
    least TAIL_INPUTS inputs beyond it (the median with fewer inputs).

    Host stalls hit single solves at random, so a tail over single
    solves measures the host more than the program.
    """
    typical = list(per_input(times, inputs).values())
    n = len(typical)
    pct = max(50, math.floor(100 * (n - TAIL_INPUTS) / n)) if n > TAIL_INPUTS else 50
    return float(np.percentile(typical, pct)), pct, n


def measure(w, seed, seconds, trace, log):
    """Run workload ``w`` once; return the record of the run."""
    rng = np.random.default_rng(seed)
    inputs = w.inputs(rng)
    cell = [0]
    ruler, nominal = w.yardstick(inputs)
    rulings = []

    def reference_seconds(elapsed):
        """``elapsed`` rescaled by the yardstick timed right after it."""
        t0 = time.perf_counter()
        ruler()
        rulings.append(time.perf_counter() - t0)
        return elapsed * nominal / rulings[-1]

    setups, setups_wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ok = import_odekit()
        problem = w.build(ok, inputs, Plain(), cell)
        w.solve(ok, problem, 0)
        setups_wall.append(time.perf_counter() - t0)
        setups.append(reference_seconds(setups_wall[-1]))

    call_us = per_call_us(*w.probe(problem))

    bad = set()  # ordinals of solves that raised or failed a check
    notes = []

    def fail(ordinals, what):
        bad.update(ordinals)
        notes.append(what)
        if len(notes) <= 3:
            log(f"FAIL {w.name}: {what}")

    times, walls, solved = [], [], []
    first, solve_evals = [None] * w.pool, [0] * w.pool
    by_member = [[] for _ in range(w.pool)]  # (ordinal, wall seconds) per input
    accepted = attempted = 0
    evals_before = cell[0]

    def timed_solve(i):
        nonlocal accepted, attempted
        j = attempted
        attempted += 1
        before = cell[0]
        t0 = time.perf_counter()
        try:
            final, landed, steps = w.solve(ok, problem, i)
        except Exception:  # a failing solve is counted, the run goes on
            fail([j], f"solve of input {i} raised\n{traceback.format_exc()}")
            return
        elapsed = time.perf_counter() - t0
        walls.append(elapsed)
        times.append(reference_seconds(elapsed))
        solved.append(i)
        by_member[i].append((j, elapsed))
        accepted += steps
        if not landed:
            fail([j], f"solve of input {i} did not end on t1")
        if j < w.pool:
            first[i] = final
            solve_evals[i] = cell[0] - before
        elif not same(final, first[i]):
            fail([j], f"repeated solve of input {i} differs from its first result")

    t_begin = time.perf_counter()
    while attempted < w.pool or time.perf_counter() - t_begin < seconds:
        timed_solve(attempted % w.pool)
    # Confirm the tail: the slowest inputs get three solves each, so a
    # host stall during a single solve does not decide solve_s_tail.
    typical = per_input(times, solved)
    for i in sorted(typical, key=typical.get)[-3 * TAIL_INPUTS :]:
        while len(by_member[i]) < 3:
            timed_solve(i)
    solving = sum(walls)
    timed_evals = cell[0] - evals_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def recheck(i, what, run):
        """One more solve of input ``i`` that must reproduce its first result."""
        nonlocal attempted
        attempted += 1
        try:
            final = run()
        except Exception:  # counted like a failing timed solve
            fail([-attempted], f"{what} of input {i} raised\n{traceback.format_exc()}")
            return
        if first[i] is None or not same(final, first[i]):
            fail([-attempted], f"{what} of input {i} differs from the timed solve")

    layers = None
    if trace:
        tracer = Tracer()
        traced = w.build(ok, inputs, Traced(tracer), [0])
        solve = tracer.wrap("harness.solve", w.solve)
        wall = traced_s = 0.0
        for k in range(w.traced):
            i = k % w.pool
            t0 = time.perf_counter()
            recheck(i, "traced solve", lambda: solve(ok, traced, i)[0])
            elapsed = time.perf_counter() - t0
            wall += elapsed
            traced_s += reference_seconds(elapsed)
        typical = per_input(times, solved)
        untraced_s = sum(typical[k % w.pool] for k in range(w.traced))
        overhead = solving / (timed_evals * call_us * 1e-6)
        layers = per_layer(tracer, wall, traced_s / untraced_s, call_us, overhead)
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"{w.name}-seed{seed}-spans.npz")

    for i in range(w.twins):
        recheck(i, "numpy run", lambda: w.solve(ok, problem, i, box=lambda v: np.array(v, dtype=float))[0])

    errors = []
    for i, ref in enumerate(w.reference(inputs)):
        if first[i] is None:
            continue
        passed, err = w.assess(first[i], ref)
        errors.append(err)
        if not passed:
            # Every timed solve of this input returned the same state.
            fail([j for j, _ in by_member[i]], f"input {i} misses its reference")

    p_tail, pct, n_inputs = tail(times, solved)
    wall_tail, _, _ = tail(walls, solved)
    e2e = {
        "setup_s": (statistics.median(setups), len(setups), "median"),
        "solve_s_p50": (statistics.median(times), len(times), "median"),
        "solve_s_tail": (p_tail, n_inputs, f"p{pct} of per-input medians"),
        "traj_steps_per_s": (accepted * w.trajectories / sum(times), len(times), "total"),
        "rhs_evals": (sum(solve_evals), w.pool, "one pass over the inputs"),
        "max_err": (statistics.median(errors) if errors else float("nan"), len(errors), "median"),
        "fail_frac": (len(bad) / attempted, attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, 1, "high-water"),
    }
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": len(bad),
        "failures": notes[:3],
        "end_to_end": {
            name: {"value": v, "unit": END_TO_END[name][0], "samples": n, "statistic": s}
            for name, (v, n, s) in e2e.items()
        },
        "per_layer": layers,
        "samples": {"input": solved, "solve_s": times},
        # The same timings in raw wall seconds, and the yardstick itself.
        "wall": {
            "setup_s": statistics.median(setups_wall),
            "solve_s_p50": statistics.median(walls),
            "solve_s_tail": wall_tail,
            "traj_steps_per_s": accepted * w.trajectories / solving,
            "yardstick_s": statistics.median(rulings),
            "yardstick_nominal_s": nominal,
        },
    }


def per_layer(tracer, wall, trace_overhead, call_us, overhead):
    a = tracer.analyse()
    kinds = a["kinds"]

    def calls(*names):
        return sum(kinds.get(n, {"calls": 0})["calls"] for n in names)

    def self_s(layer):
        return sum(k["self_s"] for n, k in kinds.items() if n.split(".")[0] == layer)

    def own(name):
        return kinds.get(name, {"self_s": 0.0})["self_s"]

    c = tracer.counters
    trials = calls("controlled.try_step")
    rejected = c.get("controlled.rejected", 0)
    ss_bytes = c.get("algebra.scale_sum.bytes", 0)
    ss_s = own("algebra.scale_sum")
    m = {
        "systems.rhs.calls": calls("systems.rhs"),
        "systems.rhs.s": own("systems.rhs"),
        "systems.rhs.call_us": call_us,
        "systems.jac.calls": calls("systems.jac"),
        "systems.jac.s": own("systems.jac"),
        "algebra.scale_sum.calls": calls("algebra.scale_sum"),
        "algebra.scale_sum.s": ss_s,
        "algebra.scale_sum.bytes": ss_bytes,
        "algebra.scale_sum.gbps": ss_bytes / ss_s / 1e9 if ss_s > 0 else 0.0,
        "algebra.error_norm.calls": calls("algebra.error_norm"),
        "algebra.error_norm.s": own("algebra.error_norm"),
        "algebra.other.s": own("algebra.other"),
        "explicit.steps": calls("explicit.do_step", "explicit.do_step_with_error"),
        "explicit.self_s": self_s("explicit"),
        "controlled.trials": trials,
        "controlled.rejected": rejected,
        "controlled.accept_ratio": (trials - rejected) / trials if trials else 0.0,
        "controlled.self_s": self_s("controlled"),
        "dense.steps": calls("dense.do_step"),
        "dense.self_s": self_s("dense"),
        "dense.calc_state.calls": calls("dense.calc_state"),
        "dense.calc_state.s": kinds.get("dense.calc_state", {"s": 0.0})["s"],
        "implicit.steps": calls("implicit.do_step"),
        "implicit.newton_iters": c.get("implicit.newton_iters", 0),
        "implicit.self_s": self_s("implicit"),
        "symplectic.steps": calls("symplectic.do_step"),
        "symplectic.self_s": self_s("symplectic"),
        "integrate.self_s": self_s("integrate"),
        "integrate.observer.calls": calls("harness.observer"),
        "harness.self_s": self_s("harness"),
        "trace.solve_s": a["root_s"],
        "trace.overhead_x": trace_overhead,
        "overhead_x": overhead,
        "machine.copy_gbps": copy_gbps(10_000),
    }
    layer_sum = sum(self_s(layer) for layer in LAYERS)
    return {
        "metrics": m,
        "spans": a["spans"],
        "nested": a["nested"],
        "self_sum_s": layer_sum,
        "traced_wall_s": wall,
        "unknown_kinds": sorted(n for n in kinds if n.split(".")[0] not in LAYERS),
    }


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "odekit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def read_text(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(seed):
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = out.stdout.strip() or None
    cpu = None
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read_text(index / "level"), read_text(index / "type")
        caches[f"L{level}-{kind}"] = read_text(index / "size")
    import scipy

    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def result_line(record, trace):
    """The JSON object the benchmark prints last."""
    if trace:
        chosen, values = PER_LAYER, record["per_layer"]["metrics"]
    else:
        chosen = {n: v for n, v in END_TO_END.items() if v[2] is not None}
        values = {n: m["value"] for n, m in record["end_to_end"].items()}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": chosen[name][0]} for name in chosen},
    }


def print_table(record):
    name = record["workload"]
    for metric, m in record["end_to_end"].items():
        print(f"{name:24s} {metric:28s} {m['value']:<14.6g} {m['unit']:8s} [{m['statistic']}, n={m['samples']}]")
    for metric, value in record["wall"].items():
        print(f"{name:24s} wall.{metric:23s} {value:<14.6g}")
    if record["per_layer"]:
        for metric, value in record["per_layer"]["metrics"].items():
            print(f"{name:24s} {metric:28s} {value:<14.6g} {PER_LAYER[metric][0]}")


def smoke(log):
    """Run every workload once, traced, and check the benchmark itself."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared_e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    declared_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared_e2e != {n: v for n, v in END_TO_END.items() if v[2] is not None}:
        problems.append("BENCHMARK.json end_to_end differs from catalogue.py")
    if declared_layer != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from catalogue.py")
    if spec["workloads"] != [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for w in WORKLOADS.values():
        record = measure(w, DEFAULT_SEED, 0.0, True, log)
        layers = record["per_layer"]
        print_table(record)
        out0 = result_line(record, False)
        out1 = result_line(record, True)
        for declared, out in ((declared_e2e, out0), (declared_layer, out1)):
            for name, (unit, *_) in declared.items():
                got = out["metrics"].get(name)
                if got is None or got["unit"] != unit or not math.isfinite(got["value"]):
                    problems.append(f"{w.name}: metric {name} missing, non-finite or not in {unit}")
        if record["failed"]:
            problems.append(f"{w.name}: {record['failed']} failed checks: {record['failures']}")
        if not layers["nested"]:
            problems.append(f"{w.name}: spans do not nest")
        if layers["unknown_kinds"]:
            problems.append(f"{w.name}: spans outside the layers: {layers['unknown_kinds']}")
        solve_s = layers["metrics"]["trace.solve_s"]
        if abs(layers["self_sum_s"] - solve_s) > 1e-9 * max(1.0, solve_s):
            problems.append(f"{w.name}: layer self times sum to {layers['self_sum_s']} not {solve_s}")
        if abs(layers["traced_wall_s"] - solve_s) > 0.02 * layers["traced_wall_s"]:
            problems.append(f"{w.name}: traced spans cover {solve_s} s of {layers['traced_wall_s']} s")
    for p in problems:
        log(f"SMOKE: {p}")
    log("SMOKE " + ("FAILED" if problems else "PASSED"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once and check the harness")
    args = parser.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if not (SRC / "odekit" / "__init__.py").is_file():
        log(f"no odekit source under {SRC}; run from the root of a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.smoke:
            return smoke(log)
        if args.workload is None:
            parser.error("--workload is required")
        w = WORKLOADS[args.workload]
        record = measure(w, args.seed, args.seconds, bool(args.trace), log)
    except NoSource as exc:
        log(str(exc))
        return 2
    record["environment"] = environment(args.seed)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_table(record)
    line = result_line(record, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
