"""Importance-weight models: unbiasedness, the freeze wiring, and ABC."""

import math
from bisect import bisect_right

import numpy as np
import pytest

from varorder import exactify, toys
from varorder.pseudo_marginal import (ABCModel, ImportanceModel,
                                      ZeroWeightError, abc_random_refresh_model,
                                      gaussian_abc_kernel, gimh_as_freeze,
                                      gimh_as_random_refresh, gimh_estimate)
from varorder.samplers import (ChainState, MarginalProposal, RngStream,
                               choice_cdf, freeze_step, random_refresh_step,
                               run_chain)


def finite_importance_model():
    """The same tables as the finite toy, expressed through callables."""
    _, tab = toys.finite_gimh_toy()
    pi_bar, q = tab["pi_bar"], tab["q"]
    q_cdf = [choice_cdf(row) for row in q]
    return ImportanceModel(
        log_joint=lambda y, v: math.log(pi_bar[y, v]),
        q_sample=lambda gen, y: bisect_right(q_cdf[y], gen.random()),
        log_q=lambda y, v: math.log(q[y, v]),
        N=tab["N"]), tab


def uniform_proposal(tab):
    s = tab["s_prop"]
    s_cdf = [choice_cdf(row) for row in s]
    return MarginalProposal(
        sample=lambda gen, y: bisect_right(s_cdf[y], gen.random()),
        log_density=lambda y, yh: math.log(s[y, yh]))


# ---- importance estimates ----

def test_estimate_is_unbiased():
    """E[pi*_N(y)] = pi*(y): exact expectation by enumerating samples."""
    m, tab = finite_importance_model()
    pi_bar, q = tab["pi_bar"], tab["q"]
    for y in range(2):
        expected = 0.0
        for v1 in range(2):
            for v2 in range(2):
                est = math.exp(m.log_estimate(y, (v1, v2)))
                expected += q[y, v1] * q[y, v2] * est
        assert expected == pytest.approx(pi_bar[y].sum(), abs=1e-14)


def test_gimh_estimate_draws_n_samples():
    m, _ = finite_importance_model()
    value, vs = gimh_estimate(m, 0, RngStream("gimh", 0))
    assert len(vs) == m.N
    assert value > 0


def test_sample_size_must_be_positive():
    with pytest.raises(ValueError):
        ImportanceModel(log_joint=lambda y, v: 0.0,
                        q_sample=lambda gen, y: 0,
                        log_q=lambda y, v: 0.0, N=0)


# ---- freeze wiring against the exact finite kernel ----

def test_freeze_wiring_log_r_matches_tables():
    m, tab = finite_importance_model()
    fm, _ = toys.finite_gimh_toy()
    model = gimh_as_freeze(m, uniform_proposal(tab))
    pi_star = tab["pi_star"] / tab["pi_star"].sum()
    norm = tab["pi_star"].sum()
    for yi, y in enumerate(range(2)):
        for ui, u in enumerate(tab["u_labels"]):
            # pi_star(y) * r(y, u) must match the finite model up to the
            # global normalizer folded into the wiring
            lhs = math.exp(model.log_pi_star(y) + model.log_r(y, u)) / norm
            rhs = pi_star[yi] * fm.r[yi, ui]
            assert lhs == pytest.approx(rhs, abs=1e-14)


def test_freeze_chain_targets_marginal():
    """Stochastic check of exactness: long-run y frequencies vs pi*."""
    m, tab = finite_importance_model()
    model = gimh_as_freeze(m, uniform_proposal(tab))
    rng = RngStream("gimh-freeze", seed=21)
    _, vs0 = gimh_estimate(m, 0, rng)
    trace = run_chain(freeze_step, model, ChainState(y=0, u=vs0), 40_000, rng)
    freq1 = float(np.mean([s.y == 1 for s in trace.states]))
    pi_star = tab["pi_star"] / tab["pi_star"].sum()
    assert freq1 == pytest.approx(pi_star[1], abs=0.02)


def test_random_refresh_wiring_matches_freeze_ratio():
    from varorder.samplers import log_ratio_freeze
    m, tab = finite_importance_model()
    prop = uniform_proposal(tab)
    fz = gimh_as_freeze(m, prop)
    rr = gimh_as_random_refresh(m, prop)
    u, uh = (0, 1), (1, 1)
    assert log_ratio_freeze(rr, 0, u, 1, uh) == pytest.approx(
        log_ratio_freeze(fz, 0, u, 1, uh), abs=1e-12)


# ---- ABC ----

def test_abc_kernels():
    assert gaussian_abc_kernel(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi))


def test_zero_weight_state_is_flagged():
    m = ABCModel(obs=0.0, kernel_K=lambda x: 0.5 if abs(x) <= 1.0 else 0.0, h=1.0,
                 summary=lambda u: u, simulator=lambda gen, y: y)
    prop = MarginalProposal(sample=lambda gen, y: y, log_density=lambda y, yh: 0.0)
    model = abc_random_refresh_model(m, lambda y: 0.0, prop)
    with pytest.raises(ZeroWeightError):
        model.check_refresh.log_weight(0.0, 5.0)  # u is outside the window


def test_abc_random_refresh_targets_smoothed_posterior():
    """Discrete ABC toy with enumerable simulator: empirical law of the
    random-refreshment chain matches the exactly computed target."""
    ys = [-1.0, 0.0, 1.0]
    noise = [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]
    noise_cdf = choice_cdf([p for _, p in noise])
    m = ABCModel(obs=0.5, kernel_K=gaussian_abc_kernel, h=1.0,
                 summary=lambda u: u,
                 simulator=lambda gen, y: y + noise[bisect_right(noise_cdf, gen.random())][0])
    prop = MarginalProposal(sample=lambda gen, y: ys[gen.integers(3)],
                            log_density=lambda y, yh: -math.log(3.0))
    model = abc_random_refresh_model(m, lambda y: 0.0, prop)
    weights = np.array([sum(p * m.weight_value(y + nz) for nz, p in noise)
                        for y in ys])
    target = weights / weights.sum()
    rng = RngStream("abc", seed=13)
    init = ChainState(y=0.0, u=m.simulator(rng.generator, 0.0))
    trace = run_chain(random_refresh_step, model, init, 60_000, rng)
    vals = trace.values(lambda s: s.y)
    for y, t in zip(ys, target):
        assert float(np.mean(vals == y)) == pytest.approx(t, abs=0.02)
