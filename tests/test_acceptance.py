"""Acceptance suite: one test per headline claim, at the stated tolerances.

Every exact comparison runs through independently constructed oracles
(closed-form spectral values, enumeration kernels, frozen regression
constants); the stochastic checks use fixed seeds and Monte Carlo error
bars.
"""

import math
import time

import numpy as np
import pytest

from varorder import exactify, toys
from varorder.toys import gaussian_rmcmc_model, gmtm_toy as _gmtm_toy
from varorder.ergodicity import drift_check, fit_certificate, summability_certificate
from varorder.kernels import (FiniteKernel, FunctionVector, compose,
                              constant_kernel, detailed_balance_check,
                              identity_kernel, off_diagonal_order_check)
from varorder.samplers import RngStream
from varorder.special_cases import (gmtm_embedding_model, gmtm_exact_kernel,
                                    gmtm_log_ratio, rmcmc_log_ratio, rmcmc_step)
from varorder.variance import (AlternatingModel, SummabilityError,
                               alternating_partial_sum_variance,
                               asvar_alternating, asvar_homogeneous,
                               batch_means_variance)
import oracles

# Stationary total-variation gap of the unconditional-refreshment chain on
# the registry toy, frozen from the enumeration oracle
# (exactify.stationary_distribution of extract_kernel("noisy")).
MCWM_TV_GAP = 0.004726815722500957


def lift_y(f_y, m):
    return FunctionVector(np.repeat(f_y.values, m.U.size), m.joint_space)


def joint_asvar(m, algorithm, f_y):
    K = exactify.extract_kernel(algorithm, m).kernel
    return asvar_homogeneous(K, m.joint_pi, lift_y(f_y, m)).value


def test_criterion_01_two_state_counterexample_exact_values():
    """v = eps/(2-eps) for the hold-then-move product chain, v = 1 for the
    fully randomizing one, at 1e-12, in under a second."""
    started = time.time()
    pi = toys.uniform_two_state()
    f = toys.identity_function()
    I = identity_kernel(pi.space)
    Pi = constant_kernel(pi)
    for eps in (0.1, 0.5, 0.9):
        Q0 = toys.q0_kernel(eps)
        v0 = asvar_homogeneous(compose(I, Q0), pi, f).value
        v0_rev = asvar_homogeneous(compose(Q0, I), pi, f).value
        v1 = asvar_homogeneous(compose(Pi, Q0), pi, f).value
        v1_rev = asvar_homogeneous(compose(Q0, Pi), pi, f).value
        assert abs(v0 - eps / (2.0 - eps)) <= 1e-12
        assert abs(v0_rev - eps / (2.0 - eps)) <= 1e-12
        assert abs(v1 - 1.0) <= 1e-12
        assert abs(v1_rev - 1.0) <= 1e-12
        assert v0 < v1
    assert time.time() - started < 1.0


def test_criterion_02_random_ordered_quadruples():
    """200 random covariance-ordered quadruples on 2-6 states: the dominating
    pair never increases the exact alternating variance (tol 1e-9)."""
    started = time.time()
    rng = RngStream("acceptance-quadruples", seed=2024).generator
    for _ in range(200):
        n = int(rng.integers(2, 7))
        P0, P1, Q0, Q1, pi, f = toys.random_lazy_quadruple(rng, n)
        v0 = asvar_alternating(AlternatingModel(P0, Q0, pi, f)).value
        v1 = asvar_alternating(AlternatingModel(P1, Q1, pi, f)).value
        assert v1 <= v0 + 1e-9
    assert time.time() - started < 10.0


def test_criterion_03_flip_counterexample():
    """The summability precondition fails (spectral radius 1) while the
    partial-sum variance of the mean still decays like 1/n."""
    pi = toys.uniform_two_state()
    f = toys.identity_function()
    flip = toys.flip_kernel()
    m = AlternatingModel(flip, flip, pi, f)
    with pytest.raises(SummabilityError) as info:
        asvar_alternating(m)
    assert info.value.spectral_radius >= 1.0 - 1e-9
    for n in range(1, 41):
        mean_variance = alternating_partial_sum_variance(m, n) / n ** 2
        assert mean_variance <= 1.0 / n + 1e-12


def test_criterion_04_refreshment_never_hurts():
    """On every registry toy, the refreshed variants are at least as
    efficient as freezing, for 20 random functions of y (tol 1e-9)."""
    rng = RngStream("acceptance-orderings", seed=7).generator
    models = [toys.registry_toy(), toys.conjugate_toy(), toys.finite_gimh_toy()[0]]
    for m in models:
        for _ in range(20):
            f_y = FunctionVector(rng.normal(size=m.Y.size), m.Y)
            v1 = joint_asvar(m, "freeze", f_y)
            v2 = joint_asvar(m, "systematic", f_y)
            v3 = joint_asvar(m, "random_refresh", f_y)
            assert v2 <= v1 + 1e-9
            assert v3 <= v1 + 1e-9


def test_criterion_05_reversibility_certificates():
    """Random refreshment is reversible for the augmented target and
    systematic refreshment's y-kernel is reversible for the marginal,
    both at 1e-12."""
    conj = toys.conjugate_toy()
    joint = exactify.extract_kernel("random_refresh", conj).kernel
    assert detailed_balance_check(joint, conj.joint_pi, tol=1e-12).holds
    m = toys.registry_toy()
    y2 = exactify.marginal_kernel(exactify.extract_kernel("systematic", m), m)
    assert detailed_balance_check(y2, m.pi_star_vector, tol=1e-12).holds
    # the y-flow of random refreshment is reversible even when its joint
    # kernel is not (generic instrumental kernels)
    y3 = exactify.marginal_kernel(exactify.extract_kernel("random_refresh", m), m)
    assert detailed_balance_check(y3, m.pi_star_vector, tol=1e-12).holds


def test_criterion_06_pseudo_marginal_exact_noisy_biased():
    """The frozen-sample chain hits the marginal exactly; unconditional
    refreshment leaves a strictly positive, frozen, stationary gap."""
    gimh, _ = toys.finite_gimh_toy()
    for algorithm in ("freeze", "random_refresh"):
        K = exactify.extract_kernel(algorithm, gimh).kernel
        pi_hat = exactify.stationary_distribution(K)
        gap = exactify.total_variation(exactify.y_marginal_of(pi_hat, gimh),
                                       gimh.pi_star_vector)
        assert gap <= 1e-12
    m = toys.registry_toy()
    noisy = exactify.extract_kernel("noisy", m).kernel
    pi_hat = exactify.stationary_distribution(noisy)
    gap = exactify.total_variation(exactify.y_marginal_of(pi_hat, m),
                                   m.pi_star_vector)
    assert gap > 0
    assert gap == pytest.approx(MCWM_TV_GAP, abs=1e-12)


def test_criterion_07_marginal_mh_dominates_systematic():
    """The integrated-proposal MH kernel dominates systematic refreshment
    off-diagonal and in exact asymptotic variance (20 random f)."""
    m = toys.registry_toy()
    sys_y = exactify.marginal_kernel(exactify.extract_kernel("systematic", m), m)
    mh_y = exactify.extract_kernel("marginal_mh", m).kernel
    assert off_diagonal_order_check(sys_y, mh_y).holds
    rng = RngStream("acceptance-peskun", seed=11).generator
    for _ in range(20):
        f_y = FunctionVector(rng.normal(size=m.Y.size), m.Y)
        v_sys = asvar_homogeneous(sys_y, m.pi_star_vector, f_y).value
        v_mh = asvar_homogeneous(mh_y, m.pi_star_vector, f_y).value
        assert v_mh <= v_sys + 1e-9


def test_criterion_08_reduction_equivalences():
    started = time.time()
    # (a) single-try acceptance collapses to standard MH, 1000 random tuples
    rng = RngStream("acceptance-equivalences", seed=3).generator
    m1 = _gmtm_toy(1)
    support = m1.support
    for _ in range(1000):
        y, yh = (support[i] for i in rng.integers(0, 3, size=2))
        got = gmtm_log_ratio(m1, y, (yh,), yh, (y,))
        want = (m1.log_pi_star(yh) + m1.log_rcheck(yh, y)
                - m1.log_pi_star(y) - m1.log_rcheck(y, yh))
        assert abs(got - want) <= 1e-12
    # (b) multiple-try kernel equals its refreshment embedding entrywise
    m2 = _gmtm_toy(2)
    pi_tab = {y: math.exp(m2.log_pi_star(y)) for y in m2.support}
    emb = gmtm_embedding_model(m2, pi_tab)
    emb_y = exactify.marginal_kernel(exactify.extract_kernel("systematic", emb),
                                     emb)
    assert np.max(np.abs(emb_y.matrix - gmtm_exact_kernel(m2).matrix)) <= 1e-12
    # (c) pre-clamp ratio reciprocity of the involution sampler
    model = gaussian_rmcmc_model(step=0.8)
    for _ in range(1000):
        y, yh, u = rng.normal(size=3)
        fwd = rmcmc_log_ratio(model, y, u, yh)
        bwd = rmcmc_log_ratio(model, yh, model.involution(u), y)
        assert abs(fwd + bwd) <= 1e-10
    # (d) involution sampler on a 1D Gaussian: moments within 3 MC errors
    gen = RngStream("acceptance-rmcmc", seed=29).generator
    n = 1_000_000
    out = np.empty(n)
    y = 0.0
    for k in range(n):
        y = rmcmc_step(model, y, gen)
        out[k] = y
    mean = float(out.mean())
    se_mean = math.sqrt(batch_means_variance(out, batch_count=200).value / n)
    assert abs(mean - 0.0) <= 3.0 * se_mean
    centered_sq = (out - mean) ** 2
    var = float(centered_sq.mean())
    se_var = math.sqrt(batch_means_variance(centered_sq,
                                            batch_count=200).value / n)
    assert abs(var - 1.0) <= 3.0 * se_var
    assert time.time() - started < 30.0


def test_criterion_09_geometric_certificates():
    """Fitted (C, rho, lambda, b) satisfy the drift inequality entrywise and
    bound all exactly computed covariances up to lag 50."""
    m = toys.registry_toy()
    pi = m.joint_pi
    V = FunctionVector(1.0 / (pi.weights / pi.weights.max()), pi.space)
    Q = exactify.accept_kernel(m)
    rng = RngStream("acceptance-certificates", seed=13).generator
    for P in (exactify.systematic_refresh_kernel(m),
              exactify.random_refresh_kernel(m)):
        PQ = FiniteKernel(P.matrix @ Q.matrix, pi.space)
        cert = fit_certificate(PQ, pi, V, lam=0.9)
        holds, b = drift_check(PQ, V, cert.lam)
        assert holds
        assert np.all(PQ.matrix @ V.values <= cert.lam * V.values + b + 1e-12)
        for _ in range(5):
            f = FunctionVector(rng.normal(size=pi.space.size), pi.space)
            report = summability_certificate(P, Q, pi, f, V, n_horizon=50)
            assert report.holds
            assert report.max_bound_slack >= 0.0


def test_criterion_10_batch_means_consistency():
    """Batch means at trace length 1e6 land within 10% of the exact value in
    at least 95 of 100 seeded replicates, in under a minute."""
    started = time.time()
    eps = 0.5
    exact = eps / (2.0 - eps)
    within = 0
    for rep in range(100):
        rng = RngStream("acceptance-batch-means", seed=2026, stream=rep).generator
        trace = oracles.simulate_q0_trace(eps, 1_000_000, rng)
        estimate = batch_means_variance(trace, batch_count=1000).value
        within += abs(estimate - exact) <= 0.10 * exact
    assert within >= 95
    assert time.time() - started < 60.0
