"""The constant-step bias floor, and how gradient tracking removes it.

Three agents on a path graph hold deliberately conflicting quadratics. With a
fixed step-size and no noise, vanilla decentralized SGD stalls at a biased
fixed point because neighbor averaging cannot undo the pull of heterogeneous
local gradients; the tracked variant converges to the exact optimum.
"""

import numpy as np

from gtsim import algorithms as alg, costs, noise, topology as tp

w = tp.metropolis_hastings(tp.generate_graph("path", 3))
a = np.stack([np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), np.diag([1.5, 1.5])])
b = np.array([[2.0, 0.0], [0.0, -2.0], [-2.0, 2.0]])
ensemble = costs.QuadraticEnsemble(a, b)
x_star, f_star = ensemble.optimum()
L = ensemble.smoothness()
print(f"optimum x* = {x_star}, f* = {f_star:.4f}, smoothness L = {L:.2f}")

cfg = alg.RunConfig(
    w=w, ensemble=ensemble, oracle=noise.GaussianOracle(0.0),
    schedule=alg.ConstantStep(1.0 / (8.0 * L)), T=10_000, x0=np.zeros((3, 2)),
    record_stride=1000,
)

print(f"\n{'iteration':>10} {'vanilla |xbar - x*|':>22} {'tracked |xbar - x*|':>22}")
recs = {name: alg.run(name, cfg, [0], [0]) for name in ("dsgd", "gt_dsgd")}
for t in sorted(recs["dsgd"].snapshots):
    errs = [np.linalg.norm(recs[n].snapshots[t][0].mean(axis=0) - x_star) for n in ("dsgd", "gt_dsgd")]
    print(f"{t:>10} {errs[0]:>22.3e} {errs[1]:>22.3e}")

final = {n: np.linalg.norm(r.final_x[0].mean(axis=0) - x_star) for n, r in recs.items()}
print(f"\nafter 10^4 steps: vanilla error {final['dsgd']:.3e} (bias floor), "
      f"tracked error {final['gt_dsgd']:.3e} (exact convergence)")
