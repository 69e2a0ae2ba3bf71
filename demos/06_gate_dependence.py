"""Is the infidelity slope really gate independent?

The first-order slope d(d-1)/12 carries no reference to the gate being
applied.  Here random CUE targets are compiled into ladder-control pulse
schedules with GRAPE, propagated under dephasing, and their fitted slopes
compared with the closed form.  Deviations stay at the per-mille level and
shrink as the dimension grows.

Both runs go through the experiment registry: an ``ExperimentSpec`` with
``gates="cue"`` samples CUE targets, the default identity gates give the
H = 0 control case.  Desk-sized run (well under a minute); raise N_GATES for
tighter statistics, or use the CLI at full scale:
quditbench gate-dependence --scale paper
"""

from quditbench.experiments import ExperimentSpec, run_experiment

N_GATES = 40

spec = ExperimentSpec("gate-dependence", (2, 3, 4), (1e-5, 1e-3, 9), gates="cue", n_gates=N_GATES, seed=11)
summary = run_experiment(spec).summary
print(f"{N_GATES} random CUE gates per dimension, gamma*t in [1e-5, 1e-3]\n")
print(f"{'d':>3} {'mean dev':>12} {'std':>10} {'min':>12} {'max':>12}")
for d, s in summary["stats"].items():
    print(f"{d:>3} {s['mean']:>+12.2e} {s['std']:>10.2e} {s['min']:>+12.2e} {s['max']:>+12.2e}")

if summary["n_failures"]:
    print(f"\n{summary['n_failures']} pulse optimizations failed to converge (flagged, not dropped)")

print("\ncontrol case, H = 0 (no pulses), fitted over gamma*t in [0, 1e-4]:")
control = run_experiment(ExperimentSpec("gate-dependence", (2, 3, 4), (0.0, 1e-4, 11)))
for row in control.rows:
    print(f"  d={row['d']}: slope deviation {row['slope_deviation']:+.2e}")
