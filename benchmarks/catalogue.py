"""Names, units and meaning of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; ``run.py --smoke`` checks
that the two agree.  README.md says which end-to-end metric each layer
should move, and on which workloads.
"""

# Seeds: DEFAULT_SEED while a change is written, HELD_OUT_SEED only to
# confirm a claim afterwards.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# name: (unit, better, bound).  A bound of None marks a metric that is
# printed and recorded but not gated in BENCHMARK.json: fail_frac is 0
# on every accepted run, and the result line carries it as
# failed / attempted.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "solve_s_p50": ("s", "lower", 0.2),
    "solve_s_tail": ("s", "lower", 0.25),
    "traj_steps_per_s": ("1/s", "higher", 0.2),
    "rhs_evals": ("count", "lower", 0.1),
    "max_err": ("state", "lower", 0.25),
    "fail_frac": ("ratio", "lower", None),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# The modules a traced solve is split across; ``harness`` is the
# benchmark's own code (the solve loop and the no-op observer).
LAYERS = (
    "systems",
    "algebra",
    "explicit",
    "controlled",
    "dense",
    "implicit",
    "symplectic",
    "integrate",
    "harness",
)

# name: (unit, better)
PER_LAYER = {
    "systems.rhs.calls": ("count", "lower"),
    "systems.rhs.s": ("s", "lower"),
    "systems.rhs.call_us": ("us", "lower"),
    "systems.jac.calls": ("count", "lower"),
    "systems.jac.s": ("s", "lower"),
    "algebra.scale_sum.calls": ("count", "lower"),
    "algebra.scale_sum.s": ("s", "lower"),
    "algebra.scale_sum.bytes": ("B", "lower"),
    "algebra.scale_sum.gbps": ("GB/s", "higher"),
    "algebra.error_norm.calls": ("count", "lower"),
    "algebra.error_norm.s": ("s", "lower"),
    "algebra.other.s": ("s", "lower"),
    "explicit.steps": ("count", "lower"),
    "explicit.self_s": ("s", "lower"),
    "controlled.trials": ("count", "lower"),
    "controlled.rejected": ("count", "lower"),
    "controlled.accept_ratio": ("ratio", "higher"),
    "controlled.self_s": ("s", "lower"),
    "dense.steps": ("count", "lower"),
    "dense.self_s": ("s", "lower"),
    "dense.calc_state.calls": ("count", "lower"),
    "dense.calc_state.s": ("s", "lower"),
    "implicit.steps": ("count", "lower"),
    "implicit.newton_iters": ("count", "lower"),
    "implicit.self_s": ("s", "lower"),
    "symplectic.steps": ("count", "lower"),
    "symplectic.self_s": ("s", "lower"),
    "integrate.self_s": ("s", "lower"),
    "integrate.observer.calls": ("count", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.solve_s": ("s", "lower"),
    "trace.overhead_x": ("x", "lower"),
    "overhead_x": ("x", "lower"),
    "machine.copy_gbps": ("GB/s", "higher"),
}
