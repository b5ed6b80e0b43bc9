import math
import os
from unittest import mock

import numpy as np
import pytest

from gtsim import costs, datasets, noise
from util import reference_estimate_mgf, reference_noise

TOY = os.path.join(os.path.dirname(__file__), "fixtures", "toy.libsvm")


def small_quadratic(n=3, d=2):
    a = np.stack([np.eye(d)] * n)
    b = np.zeros((n, d))
    return costs.QuadraticEnsemble(a, b)


def draw(o, e, x, seed, run, t, *extra):
    """One run's (n, d) oracle output at iteration t, from a fresh sampler."""
    g, _, _ = noise.prepare_sampler(o, e, [seed], [run], t)(x[None], t, *extra)
    return g[0]


def test_zero_noise_returns_exact_gradient():
    e = small_quadratic()
    x = np.array([[1.0, -2.0], [0.5, 0.0], [-3.0, 2.5]])
    g = draw(noise.GaussianOracle(0.0), e, x, 0, 0, 1)
    for i in range(3):
        assert np.array_equal(g[i], e.grad_local(i, x[i]))


def test_fixed_key_is_deterministic():
    e = small_quadratic()
    o = noise.GaussianOracle(1.5)
    x = np.full((3, 2), 0.5)
    g1 = draw(o, e, x, 11, 3, 7)
    g2 = draw(o, e, x, 11, 3, 7)
    assert np.array_equal(g1, g2)
    g3 = draw(o, e, x, 11, 3, 8)
    assert not np.array_equal(g1, g3)


def test_block_matches_per_agent_calls():
    # a sampler over a block of two runs, across a chunk boundary
    e = small_quadratic()
    o = noise.GaussianOracle(0.8)
    x = np.random.default_rng(0).standard_normal((2, 3, 2))
    keys = [(5, 2), (2**63 + 7, 4)]
    sampler = noise.prepare_sampler(o, e, [k[0] for k in keys], [k[1] for k in keys], 70)
    for t in (9, noise.CHUNK, noise.CHUNK + 1, 70, 1):
        block, exact, grad_global = sampler(x, t)
        assert grad_global is None
        assert np.array_equal(exact, e.grad_all(x))
        for b, (seed, run) in enumerate(keys):
            z = reference_noise(seed, run, t, 3, 2)
            for i in range(3):
                assert np.array_equal(block[b, i], e.grad_local(i, x[b, i]) + 0.8 * z[i])


def test_grad_batch_over_every_sample_is_the_local_gradient():
    rng = np.random.default_rng(1)
    e = costs.LogisticEnsemble(
        [rng.standard_normal((6, 3))], [rng.choice([-1.0, 1.0], size=6)], eta=0.0
    )
    x = rng.standard_normal(3)
    assert np.allclose(e.grad_batch(0, x, np.arange(6)), e.grad_local(0, x), atol=1e-12)


def test_minibatch_requires_dataset():
    o = noise.MinibatchOracle(batch_size=1)
    with pytest.raises(noise.OracleError, match="no dataset"):
        noise.prepare_sampler(o, small_quadratic(), [0], [0], 1)


def test_minibatch_full_batch_disallowed_by_default():
    rng = np.random.default_rng(2)
    e = costs.LogisticEnsemble(
        [rng.standard_normal((4, 2))], [rng.choice([-1.0, 1.0], size=4)], eta=0.0
    )
    with pytest.raises(noise.OracleError, match="batch_size"):
        draw(noise.MinibatchOracle(batch_size=4), e, np.zeros((1, 2)), 0, 0, 1)


def test_relaxed_reduces_to_gaussian_at_zero_gradient():
    # at a stationary point of f the amplitude multiplier is exactly 1
    e = small_quadratic()
    o_rel = noise.RelaxedSubgaussianOracle(s=1.0, rho=2.0, eps_exponent=0.5)
    o_gau = noise.GaussianOracle(1.0)
    x = np.zeros((3, 2))  # grad f(0) = 0 for this ensemble
    g_rel = draw(o_rel, e, x, 3, 0, 4, 0.3)
    g_gau = draw(o_gau, e, x, 3, 0, 4)
    assert np.allclose(g_rel, g_gau, atol=1e-12)


def test_calibrate_sigma_closed_form():
    assert noise.calibrate_sigma(1.0, 1) == pytest.approx(2.0 / (1.0 - math.exp(-2.0)), rel=1e-12)
    assert abs(noise.calibrate_sigma(1.0, 1) - 2.3130) < 1e-4
    assert noise.calibrate_sigma(0.0, 5) == 0.0
    # large-d expansion: 2/(1 - exp(-2/d)) = d + 1 + O(1/d)
    assert 100.0 <= noise.calibrate_sigma(1.0, 100) <= 102.0


def test_calibrated_sigma_mgf_at_most_e():
    # Monte-Carlo cross-check of the closed form
    s, d = 1.0, 2
    sigma_sq = noise.calibrate_sigma(s, d)
    e = small_quadratic(n=2, d=d)
    est = noise.estimate_mgf(noise.GaussianOracle(s), e, 0, np.zeros(d), sigma_sq, 100_000, seed=0)
    target = (1.0 - 2.0 * s * s / sigma_sq) ** (-d / 2.0)
    assert target <= math.e + 1e-12
    assert est.value <= math.e * (1.0 + 3.0 * est.stderr)
    assert abs(est.value - target) <= 4.0 * est.stderr
    assert est.capped == 0


def test_mgf_estimate_huge_sigma_tends_to_one():
    e = small_quadratic()
    est = noise.estimate_mgf(noise.GaussianOracle(1.0), e, 0, np.zeros(2), 1e12, 10_000, seed=1)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_mgf_relaxed_at_stationary_point_matches_gaussian_bound():
    d = 2
    e = small_quadratic(n=2, d=d)
    o = noise.RelaxedSubgaussianOracle(s=1.0, rho=1.0, eps_exponent=1.0)
    sigma_sq = noise.calibrate_sigma(1.0, d)
    est = noise.estimate_mgf(o, e, 0, np.zeros(d), sigma_sq, 50_000, seed=2, alpha=0.1)
    assert est.value <= math.e * (1.0 + 3.0 * est.stderr)


def test_mgf_requires_enough_samples():
    e = small_quadratic()
    with pytest.raises(noise.OracleError):
        noise.estimate_mgf(noise.GaussianOracle(1.0), e, 0, np.zeros(2), 1.0, 100)


@pytest.mark.parametrize("oracle, sigma_sq, samples, alpha, cap", [
    (noise.GaussianOracle((0.5, 2.0, 1.0)), 3.0, 100_000, None, None),
    (noise.RelaxedSubgaussianOracle(s=1.0, rho=0.5, eps_exponent=1.0), 4.0, 50_000, 0.1, None),
    (noise.GaussianOracle(1.0), 1.0, 20_000, None, 0.5),
], ids=["per_agent_gaussian", "relaxed", "capped"])
def test_mgf_estimate_matches_the_reference_bitwise(oracle, sigma_sq, samples, alpha, cap):
    e = small_quadratic(d=3)
    x = np.full(3, 2.0)
    args = (oracle, e, 1, x, sigma_sq, samples)
    with mock.patch.object(noise, "_EXP_CAP", cap or noise._EXP_CAP):
        got = noise.estimate_mgf(*args, seed=6, alpha=alpha)
        ref = reference_estimate_mgf(*args, seed=6, alpha=alpha)
    assert repr(got) == repr(ref)
    assert got.capped == ref.capped


def test_mgf_estimate_matches_the_reference_bitwise_for_minibatches():
    e = datasets.to_logistic_ensemble(datasets.split_uniform(datasets.load_libsvm(TOY), 2))
    args = (noise.MinibatchOracle(1), e, 0, np.full(e.d, 0.1), 0.5, 10_000)
    assert repr(noise.estimate_mgf(*args, seed=3)) == repr(reference_estimate_mgf(*args, seed=3))


def test_zero_mean_invariant():
    # empirical mean norm <= 4 s sqrt(d / N)
    e = small_quadratic(n=2, d=3)
    s, n_samples = 1.0, 100_000
    z = noise.noise_samples(noise.GaussianOracle(s), e, 0, np.zeros(3), n_samples, seed=3)
    assert np.linalg.norm(z.mean(axis=0)) <= 4.0 * s * math.sqrt(3.0 / n_samples)


def test_independence_across_agents_and_iterations():
    # distinct keys: empirical cross-correlation of 1e4 paired draws <= 0.05
    n_samples = 10_000
    d = 1
    draws = {}
    for (agent, t) in [(0, 1), (1, 1), (0, 2)]:
        vals = np.empty(n_samples)
        for k in range(n_samples // 500):
            block = noise.noise_block(7, 0, t * 1000 + k, 2, 500)
            vals[k * 500:(k + 1) * 500] = block[agent]
        draws[(agent, t)] = vals
    pairs = [((0, 1), (1, 1)), ((0, 1), (0, 2))]
    for a, b in pairs:
        corr = np.corrcoef(draws[a], draws[b])[0, 1]
        assert abs(corr) <= 0.05


def test_tail_bound_invariant():
    # P(||Z|| > eps) <= 2 exp(-eps^2 / (2 sigma^2)) within 3 MC stderr
    d, s, n_samples = 2, 1.0, 100_000
    e = small_quadratic(n=2, d=d)
    sigma_sq = noise.calibrate_sigma(s, d)
    sigma = math.sqrt(sigma_sq)
    z = noise.noise_samples(noise.GaussianOracle(s), e, 0, np.zeros(d), n_samples, seed=4)
    norms = np.linalg.norm(z, axis=1)
    for mult in (1.0, 2.0, 3.0):
        eps = mult * sigma
        p_hat = float(np.mean(norms > eps))
        stderr = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / n_samples) / n_samples)
        bound = 2.0 * math.exp(-eps * eps / (2.0 * sigma_sq))
        assert p_hat <= bound + 3.0 * stderr


def test_moment_bound_invariant():
    # E||Z||^(2p) <= (2p)^(p+1) sigma^(2p) within 3 MC stderr
    d, s, n_samples = 2, 1.0, 100_000
    e = small_quadratic(n=2, d=d)
    sigma_sq = noise.calibrate_sigma(s, d)
    z = noise.noise_samples(noise.GaussianOracle(s), e, 0, np.zeros(d), n_samples, seed=5)
    norms_sq = np.sum(z * z, axis=1)
    for p in (1, 2, 3):
        vals = norms_sq ** p
        est = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(n_samples))
        assert est <= (2 * p) ** (p + 1) * sigma_sq ** p + 3.0 * stderr


def test_averaged_noise_mgf_invariant():
    # E exp(m ||zbar||^2 / (96 sigma^2)) <= 2 d e for m agents averaged
    d, s, n_samples = 2, 1.0, 50_000
    e = small_quadratic(n=2, d=d)
    sigma_sq = noise.calibrate_sigma(s, d)
    for m in (4, 16):
        acc = np.zeros((n_samples, d))
        for j in range(m):
            acc += noise.noise_samples(noise.GaussianOracle(s), e, 0, np.zeros(d), n_samples, seed=100 + j)
        zbar = acc / m
        w = m * np.sum(zbar * zbar, axis=1) / (96.0 * sigma_sq)
        vals = np.exp(np.minimum(w, 700.0))
        est = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(n_samples))
        assert est <= 2.0 * d * math.e + 3.0 * stderr


def test_noise_block_matches_a_fresh_philox_per_cell():
    for seed, run, t in ((0, 0, 1), (11, 3, 7), (2**40 + 9, 2**24 - 1, 2**36 - 1),
                         (2**63 + 12345, 5, 9), (2**64 - 1, 0, 1)):
        key = np.array([seed, (run << 36) | t], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key)).standard_normal((3, 4))
        assert np.array_equal(noise.noise_block(seed, run, t, 3, 4), fresh)


def test_adjacent_large_seeds_give_distinct_streams():
    for seed in (2**63, 2**63 + 12345, 2**64 - 2):
        assert not np.array_equal(noise.noise_block(seed, 0, 1, 2, 3),
                                  noise.noise_block(seed + 1, 0, 1, 2, 3))


def test_minibatch_indices_of_a_large_seed_change_every_iteration():
    draws = {tuple(noise._batch_generator(2**63 + 12345, 0, t).choice(1000, size=4, replace=False))
             for t in range(1, 9)}
    assert len(draws) == 8


def test_small_seed_draws_are_pinned():
    # values drawn before the key became two exact uint64 words; seeds
    # below 2**63 must keep them
    assert noise.noise_block(7, 3, 11, 2, 2).tolist() == [
        [0.5452422520957791, 0.508535795086205], [0.427567094841119, 0.9204125645704675]]
    assert noise._batch_generator(12345, 2, 9).choice(1000, size=4, replace=False).tolist() == [
        290, 484, 261, 244]
    assert noise._generator(99, 2, 1, 0).standard_normal(3).tolist() == [
        -0.2856021542266684, -0.7739198400193883, 0.748342616845727]


def test_interleaved_draws_do_not_disturb_noise_blocks():
    e = small_quadratic(n=2, d=3)
    first = noise.noise_block(5, 1, 2, 2, 3)
    second = noise.noise_block(5, 1, 3, 2, 3)
    assert np.array_equal(noise.noise_block(5, 1, 2, 2, 3), first)
    noise.noise_samples(noise.GaussianOracle(1.0), e, 0, np.zeros(3), 50, seed=9)
    assert np.array_equal(noise.noise_block(5, 1, 3, 2, 3), second)
    noise.noise_samples(noise.GaussianOracle(1.0), e, 1, np.zeros(3), 50, seed=9)
    assert np.array_equal(noise.noise_block(5, 1, 2, 2, 3), first)


def test_invalid_specs_rejected():
    with pytest.raises(noise.OracleError):
        noise.GaussianOracle(-1.0)
    with pytest.raises(noise.OracleError):
        noise.MinibatchOracle(0)
    with pytest.raises(noise.OracleError):
        noise.RelaxedSubgaussianOracle(1.0, -0.1, 1.0)
    with pytest.raises(noise.OracleError):
        noise.RelaxedSubgaussianOracle(1.0, 0.0, 0.0)
