"""The binding-instance ladder: pdsg at its certified steps on desk seed 13.

    PYTHONPATH=src python notes/binding_study.py [--instance-seed 13] [--from-z-star]

Runs pdsg on ``random_qcqp(20, 15, 200, 200, seed)`` with the fixed-horizon
schedule at ``max_equal_steps(m, G)`` (alpha = rho), through the library's
run loop, at 12, 50, 200 and 800 epochs with run seeds 0-4.  For each
horizon it prints the final ergodic mean's objective error and
infeasibility (means over the run seeds) and the median final dual norm.
Then it prints the reference's ||z*||, the horizon at which ||z|| would
reach it if it kept growing like sqrt(K), and the fitted log-log slope of
the objective error against the horizon.  ``--from-z-star`` starts every
run's dual at the reference's z* instead of 0.

Desk seed 13 has active constraints; seed 0 is interior (z* = 0) and shows
the ladder converging.  The dual-travel estimate that explains the seed-13
ladder is in ``notes/decisions.md`` ("Why the dual does not reach z*").
The default ladder takes about a second on one core (about eight where
the compiled run kernel is unavailable).
"""

from __future__ import annotations

import argparse

import numpy as np

from pdsg import bench, metrics, problems, solver

EPOCHS = (12, 50, 200, 800)
SEEDS = (0, 1, 2, 3, 4)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instance-seed", type=int, default=13)
    parser.add_argument("--from-z-star", action="store_true")
    args = parser.parse_args(argv)

    inst = problems.random_qcqp(20, 15, 200, 200, seed=args.instance_seed)
    ref = bench.reference_for(inst)
    step = solver.max_equal_steps(inst.m, problems.certify_constants(inst, samples=0).G)
    print(f"desk seed {args.instance_seed}: n={inst.n} m={inst.m}, "
          f"fixed_horizon alpha = rho = {step:.4g}, run seeds {list(SEEDS)}, "
          f"dual started at {'z*' if args.from_z_star else '0'}")
    print(f"{'epochs':>7} {'obj_err':>10} {'infeas':>10} {'|z| median':>11}")
    errors, norms = [], []
    for epochs in EPOCHS:
        K = epochs * inst.m
        steps = solver.fixed_horizon(step, step, K).sequences(K)
        states = [solver.init_state(inst, seed) for seed in SEEDS]
        if args.from_z_star:
            for state in states:
                state.z[:] = ref.z
        failed = [exc for exc in solver._iterate([(s, *steps, None) for s in states], inst, K)
                  if exc is not None]
        if failed:
            raise failed[0]
        means = [state.ergodic_plain() for state in states]
        errors.append(np.mean([metrics.objective_error(inst, x, ref.f0) for x in means]))
        norms.append(np.median([np.linalg.norm(state.z) for state in states]))
        infeas = np.mean([metrics.infeasibility(inst, x) for x in means])
        print(f"{epochs:>7} {errors[-1]:>10.3g} {infeas:>10.3g} {norms[-1]:>11.3g}")
    z_star = np.linalg.norm(ref.z)
    print(f"||z*|| = {z_star:.3g}, {int(np.sum(ref.z > 0))} of {inst.m} duals positive")
    if not args.from_z_star and 0 < norms[-1] < z_star:
        # at sqrt(K) growth, ||z|| reaches ||z*|| after K (||z*||/||z||)^2 iterations
        travel = EPOCHS[-1] * inst.m * (z_star / norms[-1]) ** 2
        print(f"at sqrt(K) growth ||z|| reaches ||z*|| after about {travel:.1g} iterations "
              f"({travel / inst.m:.1g} epochs)")
    slope = np.polyfit(np.log(EPOCHS), np.log(errors), 1)[0]
    print(f"obj_err slope against the horizon (log-log): {slope:+.2f}")


if __name__ == "__main__":
    main()
