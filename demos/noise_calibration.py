"""Certify sub-Gaussian noise parameters by Monte Carlo.

For Gaussian noise N(0, s^2 I_d) the smallest parameter sigma^2 with
E[exp(||z||^2/sigma^2)] <= e has the closed form 2 s^2 / (1 - exp(-2/d)),
which grows like d s^2 for large d. The estimate below cross-checks the
closed form, and the gradient-amplified flavor is certified on a grid of
points with growing gradient norm rather than proved.
"""

import math

import numpy as np

from gtsim import costs, noise

for d in (1, 2, 10, 100):
    sigma_sq = noise.calibrate_sigma(1.0, d)
    print(f"d = {d:>3}: calibrated sigma^2 = {sigma_sq:.4f} (about d + 1 for large d)")

d = 5
e = costs.QuadraticEnsemble(np.stack([np.eye(d)] * 4), np.zeros((4, d)))
sigma_sq = noise.calibrate_sigma(1.0, d)
est = noise.estimate_mgf(noise.GaussianOracle(1.0), e, 0, np.zeros(d), sigma_sq, 100_000)
target = (1.0 - 2.0 / sigma_sq) ** (-d / 2.0)
print(f"\nMonte-Carlo MGF at the calibrated parameter (d = {d}):")
print(f"  estimate {est.value:.4f} +/- {est.stderr:.4f}, closed form {target:.4f}, e = {math.e:.4f}")
print(f"  capped exponents: {est.capped} of {est.samples}")

print("\ngradient-amplified flavor on a grid of points (amplitude grows with ||grad f||):")
o = noise.GaussianOracle(s=1.0, rho=0.5, eps_exponent=1.0)
alpha = 0.1
for scale in (0.0, 1.0, 5.0, 25.0):
    x = np.full(d, scale)
    gnorm = float(np.linalg.norm(e.grad_global(x)))
    # certify against the gradient-dependent budget exp(1 + rho alpha^(2+eps) ||grad f||)
    budget = math.exp(1.0 + o.rho * alpha ** (2.0 + o.eps_exponent) * gnorm)
    est = noise.estimate_mgf(o, e, 0, x, sigma_sq, 50_000, seed=int(scale), alpha=alpha)
    status = "ok" if est.value <= budget * (1 + 3 * est.stderr) else "VIOLATION"
    print(f"  ||grad f|| = {gnorm:7.2f}: MGF {est.value:.4f} vs budget {budget:.4f}  [{status}]")
