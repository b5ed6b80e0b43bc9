"""Assert the pathwise inequalities on live trajectories.

Four deterministic inequalities relate consecutive iterates of the tracked
method, given the realized noise: the per-step descent of the averaged model
(general and PL-contraction forms), the horizon-summed consensus-gap bound,
and the one-step tracker-gap recursion. Each holds pathwise whenever its
step-size cap is respected; worst slacks below -1e-9 would mean a build bug.
Each report names the run and iteration where its inequality is tightest.
"""

import numpy as np

from gtsim import algorithms as alg, costs, noise, theorycheck as tc, topology as tp

w = tp.metropolis_hastings(tp.generate_graph("path", 3))
e = costs.make_synthetic_quadratics(3, 4, "a", seed=1)
L = e.smoothness()
x0 = np.random.default_rng(0).standard_normal((3, 4))

print(f"path-3 topology, lam = {w.lam:.4f}; quadratics with L = {L:.3f}, mu = {e.pl_constant():.3f}")
caps = {
    "descent (alpha <= 1/4L)": tc.descent_step_cap(L),
    "descent_pl (alpha <= 1/2L)": tc.descent_pl_step_cap(L),
    "consensus bound": tc.consensus_step_cap(w.lam, L),
    "tracker recursion": tc.tracker_step_cap(w.lam, L),
}
for name, cap in caps.items():
    print(f"  cap for {name}: {cap:.5f}")


def traced(alpha, T, first_seed, runs=10):
    """One block record of `runs` runs; run r has seed first_seed + r."""
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=noise.GaussianOracle(0.5),
                        schedule=alg.ConstantStep(alpha), T=T, x0=x0, record_trace=True)
    return alg.run("gt_dsgd", cfg, range(first_seed, first_seed + runs), range(runs))


print("\nchecking 10 noisy seeded runs per inequality, each set stepped as one block ...")
reports = [
    tc.check_descent(traced(0.9 / (4 * L), 200, 0), e),
    tc.check_descent_pl(traced(0.9 / (2 * L), 200, 10), e),
    tc.check_consensus_bound(traced(0.9 * tc.consensus_step_cap(w.lam, L), 200, 20), w, e),
    tc.check_tracker_recursion(traced(0.9 * tc.tracker_step_cap(w.lam, L), 200, 30), w, e),
]
for rep in reports:
    print(f"  {rep.summary()}")

print("\nnoise side: tail, even-moment, and averaged-MGF bounds at 3 standard errors")
e16 = costs.QuadraticEnsemble(np.stack([np.eye(2)] * 16), np.zeros((16, 2)))
rep = tc.check_noise_properties(noise.GaussianOracle(1.0), e16, samples=100_000, seed=0)
print(f"  {rep.summary()}")
worst = min(rep.details, key=lambda k: rep.details[k]["bound"] - rep.details[k]["estimate"])
d = rep.details[worst]
print(f"  tightest sub-check {worst}: estimate {d['estimate']:.4f} vs bound {d['bound']:.4f}")
