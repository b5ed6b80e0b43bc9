"""Mini-batch logistic regression over a parsed LIBSVM corpus.

Parses the bundled toy corpus, splits it uniformly across agents, builds the
logistic cost with the bounded non-convex penalty, and runs both methods with
a single-sample mini-batch oracle. With no closed-form optimum the tails are
computed from the running average of the squared global-gradient norm.

Swap the path for a real corpus (a9a, ijcnn1, mushroom) to reproduce the
full-size study; see configs/fig3_real_tails.toml.
"""

import os

import numpy as np

from gtsim import algorithms as alg, datasets, metrics, noise, topology as tp

path = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "toy.libsvm")
ds = datasets.load_libsvm(path)
print(f"parsed {ds.m} samples with {ds.d} features")

n_agents = 4
parts = datasets.split_uniform(ds, n_agents, seed=0)
print(f"split across {n_agents} agents: sizes {[p.m for p in parts]}")
ensemble = datasets.to_logistic_ensemble(parts, eta=0.1)
print(f"logistic ensemble: smoothness L = {ensemble.smoothness():.3f} (penalty adds 2*eta)")

w = tp.metropolis_hastings(tp.generate_graph("ring", n_agents))
cfg = alg.RunConfig(
    w=w, ensemble=ensemble, oracle=noise.MinibatchOracle(batch_size=1),
    schedule=alg.ConstantStep(0.1), T=400, x0=np.zeros((n_agents, ensemble.d)),
)

R = 20
print(f"\nrunning {R} repetitions of each method (T = {cfg.T}, batch size 1) ...")
series = {}
for name in ("gt_dsgd", "dsgd"):
    # one block record of the R runs; run r has seed 500 + r
    rec = alg.run(name, cfg, range(500, 500 + R), range(R))
    tail = metrics.empirical_tail_probability(metrics.RunSet(records=[rec]),
                                              "running_stationarity", 0.01)
    series[name] = tail
    grad_avg = np.mean(rec.stationarity_sum[:, -1]) / n_agents
    print(f"  {name}: final mean ||grad f||^2 across agents = {grad_avg:.4f}, "
          f"tail(0.01) at T = {tail.values[-1]:.2f}")

for name, tail in series.items():
    below = np.nonzero(tail.values < 0.5)[0]
    t_half = int(below[0]) + 1 if len(below) else None
    print(f"{name}: running-stationarity tail first below 0.5 at t = {t_half}")
