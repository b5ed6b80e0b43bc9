"""Build communication graphs and inspect their mixing matrices.

Walks through the four topology kinds, shows the Metropolis-Hastings weights
and the connectivity parameter lam = ||W - J||, then tunes an Erdos-Renyi
edge probability until the average gap hits a target.
"""

import os
import tempfile

import numpy as np

from gtsim import topology as tp

np.set_printoptions(precision=4, suppress=True)

for kind, n in [("ring", 3), ("path", 3), ("complete", 4)]:
    g = tp.generate_graph(kind, n)
    m = tp.metropolis_hastings(g)
    print(f"{kind} graph on {n} agents: {len(g.edges)} edges, lam = {m.lam:.6f}")
    print(m.w)
    print()

# ring of 3 is the complete triangle: W collapses to uniform averaging (lam = 0)
# path of 3 keeps lam = 2/3, the slowest-mixing 3-agent topology here

g = tp.generate_graph("erdos_renyi", 20, seed=1, p=0.3)
m = tp.metropolis_hastings(g)
print(f"erdos_renyi(20, p=0.3): {len(g.edges)} edges, lam = {m.lam:.4f}")

print("\ntuning the edge probability toward lam = 0.9 ...")
res = tp.tune_er_probability(30, target_lambda=0.9, tol=0.05, seed=0)
print(f"p = {res.p:.4f}, achieved lam = {res.lam:.4f}, converged = {res.converged}")
print(f"probe means covered [{res.lambda_range[0]:.3f}, {res.lambda_range[1]:.3f}]")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "tuned_matrix.csv")
    tp.save_matrix_csv(res.matrix, path)
    again = tp.load_matrix_csv(path)
print(f"saved and reloaded bit-identically: {np.array_equal(again.w, res.matrix.w)}")
