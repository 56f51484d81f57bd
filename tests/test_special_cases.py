"""Involution-based MH and generalized multiple-try Metropolis."""

import dataclasses
import math

import numpy as np
import pytest

from varorder import exactify
from varorder.toys import gaussian_rmcmc_model, gmtm_toy as _gmtm_toy
from varorder.kernels import ProbVector, detailed_balance_check
from varorder.samplers import DensityError, RngStream
from varorder.special_cases import (GmtmModel, gmtm_embedding_model,
                                    gmtm_exact_kernel, gmtm_log_ratio, gmtm_select,
                                    gmtm_step, rmcmc_chain,
                                    rmcmc_log_ratio, rmcmc_step)
from varorder.variance import batch_means_variance
from oracles import check_involution, gmtm_exact_kernel_loop


# ---- r-MCMC ----

def test_check_involution_rejects_non_involution():
    m = gaussian_rmcmc_model()
    broken = m.__class__(**{**m.__dict__, "involution": lambda u: u + 1.0})
    with pytest.raises(ValueError, match="involution contract"):
        check_involution(broken, [0.0, 1.0])


def test_ratio_reciprocity():
    """gamma(y,u,yh) * gamma(yh, f(u), y) = 1 for the pre-clamp ratio."""
    m = gaussian_rmcmc_model(step=0.7)
    check_involution(m, [-2.0, 0.0, 1.3])
    rng = np.random.default_rng(55)
    for _ in range(1000):
        y, yh, u = rng.normal(size=3)
        fwd = rmcmc_log_ratio(m, y, u, yh)
        bwd = rmcmc_log_ratio(m, yh, m.involution(u), y)
        assert fwd + bwd == pytest.approx(0.0, abs=1e-10)


def test_rmcmc_nonzero_jacobian_enters_ratio():
    m = gaussian_rmcmc_model()
    scaled = m.__class__(**{**m.__dict__,
                            "involution": lambda u: -2.0 * u if u >= 0 else -u / 2.0,
                            "log_jacobian": lambda u: math.log(2.0) if u >= 0
                            else -math.log(2.0)})
    base = rmcmc_log_ratio(m, 0.1, 0.5, 0.2)
    shifted = rmcmc_log_ratio(scaled, 0.1, 0.5, 0.2)
    delta = (scaled.log_scheck(0.2, 0.1, -1.0) - m.log_scheck(0.2, 0.1, -0.5)
             + math.log(2.0))
    assert shifted - base == pytest.approx(delta, abs=1e-12)


def test_rmcmc_gaussian_short_run_moments():
    m = gaussian_rmcmc_model()
    gen = RngStream("rmcmc", seed=17).generator
    y = 0.0
    out = np.empty(60_000)
    for k in range(out.size):
        y = rmcmc_step(m, y, gen)
        out[k] = y
    assert out.mean() == pytest.approx(0.0, abs=0.05)
    assert out.var() == pytest.approx(1.0, abs=0.05)


def test_rmcmc_chain_has_the_gaussian_law():
    """In law against the exact target: mean 0, variance 1, and the random-walk
    acceptance rate (2/pi) arctan(2/step) of a standard Gaussian, each within
    4 batch-means standard errors over 2e5 steps."""
    m = gaussian_rmcmc_model(step=1.0)
    n = 200_000
    path, accepted = rmcmc_chain(m, 0.0, n, RngStream("rmcmc-chain-law", seed=1))
    assert path.shape == (n,)
    moved = np.diff(path, prepend=0.0) != 0.0  # a continuous proposal moves a.s.
    assert accepted == int(moved.sum())
    for series, exact in ((path, 0.0), ((path - path.mean()) ** 2, 1.0),
                          (moved.astype(float), 2.0 / math.pi * math.atan(2.0))):
        se = math.sqrt(batch_means_variance(series, batch_count=200).value / n)
        assert abs(float(series.mean()) - exact) <= 4.0 * se


def test_rmcmc_chain_replays_for_a_fixed_seed():
    m = gaussian_rmcmc_model(step=0.7)
    first = rmcmc_chain(m, 0.5, 5000, RngStream("rmcmc", seed=8))
    again = rmcmc_chain(m, 0.5, 5000, RngStream("rmcmc", seed=8))
    other = rmcmc_chain(m, 0.5, 5000, RngStream("rmcmc", seed=9))
    assert np.array_equal(first[0], again[0]) and first[1] == again[1]
    assert not np.array_equal(first[0], other[0])


def test_rmcmc_chain_runs_samplers_that_use_other_generator_methods():
    """Only scalar normals come from blocks; a sampler calling gen.choice
    draws from the wrapped generator.  +-|z| has the law of z."""
    m = gaussian_rmcmc_model()
    signed = m.__class__(**{**m.__dict__, "rcheck_sample": lambda gen, y: (
        y + gen.choice([-1.0, 1.0]) * abs(gen.standard_normal()))})
    path, accepted = rmcmc_chain(signed, 0.0, 20_000, RngStream("rmcmc", seed=2))
    again, _ = rmcmc_chain(signed, 0.0, 20_000, RngStream("rmcmc", seed=2))
    assert np.array_equal(path, again)
    assert 0 < accepted < 20_000
    assert path.mean() == pytest.approx(0.0, abs=0.1)
    assert path.var() == pytest.approx(1.0, abs=0.1)


# ---- GMTM ----

def test_single_try_reduces_to_mh():
    m = _gmtm_toy(1)
    for y in m.support:
        for yh in m.support:
            got = gmtm_log_ratio(m, y, (yh,), yh, (y,))
            want = (m.log_pi_star(yh) + m.log_rcheck(yh, y)
                    - m.log_pi_star(y) - m.log_rcheck(y, yh))
            assert got == pytest.approx(want, abs=1e-12)


def test_gmtm_ratio_is_finite_on_valid_tuples():
    m = _gmtm_toy(2)
    val = gmtm_log_ratio(m, "a", ("b", "c"), "b", ("c", "a"))
    assert math.isfinite(val)


def test_gmtm_select_is_weight_proportional():
    gen = np.random.default_rng(2)
    picks = [gmtm_select([1.0, 3.0], gen) for _ in range(4000)]
    assert np.mean(picks) == pytest.approx(0.75, abs=0.03)
    with pytest.raises(DensityError):
        gmtm_select([0.0, 0.0], gen)


@pytest.mark.parametrize("weights", [[1.0, -0.5], [1.0, math.inf], [math.nan, 1.0]])
def test_gmtm_select_rejects_negative_and_non_finite_weights(weights):
    with pytest.raises(ValueError) as info:
        gmtm_select(weights, np.random.default_rng(0))
    assert not isinstance(info.value, DensityError)


def test_gmtm_select_replays_gen_choice():
    ours, ref = np.random.default_rng(5), np.random.default_rng(5)
    shapes = np.random.default_rng(6)
    for _ in range(2000):
        w = list(shapes.uniform(0.0, 2.0, int(shapes.integers(1, 6))))
        total = float(sum(w))
        assert gmtm_select(w, ours) == ref.choice(len(w), p=np.asarray(w) / total)


def test_exact_kernel_is_stochastic_and_pi_reversible():
    m = _gmtm_toy(2)
    K = gmtm_exact_kernel(m)
    pi = exactify.stationary_distribution(K)
    target = np.array([math.exp(m.log_pi_star(y)) for y in m.support])
    assert np.allclose(pi.weights, target / target.sum(), atol=1e-12)
    assert detailed_balance_check(K, ProbVector(target / target.sum(),
                                                K.space)).holds


def _random_gmtm(seed: int, n: int) -> GmtmModel:
    """Three states with random target, proposal and weights; no sampler, as
    only the exact analysis reads the model."""
    rng = np.random.default_rng(seed)
    pi, omega = rng.uniform(0.1, 1.0, 3), rng.uniform(0.1, 2.0, (3, 3))
    rk = rng.uniform(0.05, 1.0, (3, 3))
    rk /= rk.sum(axis=1, keepdims=True)
    return GmtmModel(log_pi_star=lambda y: math.log(pi[y]), rcheck_sample=None,
                     log_rcheck=lambda y, v: math.log(rk[y, v]),
                     omega=lambda y, v: float(omega[y, v]), n=n, support=(0, 1, 2))


@pytest.mark.parametrize("m", [_gmtm_toy(n) for n in (1, 2, 3, 4)]
                         + [_random_gmtm(seed, 1 + seed) for seed in range(3)],
                         ids=[f"toy-{n}-tries" for n in (1, 2, 3, 4)]
                         + [f"random-{1 + seed}-tries" for seed in range(3)])
def test_embedding_matches_direct_kernel(m):
    """One try leaves u the empty candidate tuple, so the joint space has as
    many states as Y; the marginal kernel is still labelled by Y."""
    emb = gmtm_embedding_model(m)
    emb_y = exactify.marginal_kernel(exactify.extract_kernel("systematic", emb),
                                     emb)
    direct = gmtm_exact_kernel(m)
    assert emb_y.space == direct.space
    assert np.max(np.abs(emb_y.matrix - direct.matrix)) < 1e-12


def _benchmark_like_gmtm(seed: int) -> GmtmModel:
    """Three states and four tries with weights pi(v) + 0.1 [y == v], drawn
    as the sim-chains benchmark draws its multiple-try model."""
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.2, 1.0, 3)
    pi /= pi.sum()
    rk = rng.uniform(0.1, 1.0, (3, 3))
    rk /= rk.sum(axis=1, keepdims=True)
    return GmtmModel(log_pi_star=lambda y: math.log(pi[y]), rcheck_sample=None,
                     log_rcheck=lambda y, v: math.log(rk[y, v]),
                     omega=lambda y, v: float(pi[v] + 0.1 * (y == v)), n=4,
                     support=(0, 1, 2))


@pytest.mark.parametrize("m", [_gmtm_toy(n) for n in (1, 2, 3, 4)]
                         + [_random_gmtm(seed, 1 + seed) for seed in range(3)]
                         + [_benchmark_like_gmtm(seed) for seed in (11, 12, 13)],
                         ids=[f"toy-{n}-tries" for n in (1, 2, 3, 4)]
                         + [f"random-{1 + seed}-tries" for seed in range(3)]
                         + [f"benchmark-like-{seed}" for seed in (11, 12, 13)])
def test_array_kernel_matches_the_per_tuple_loop(m):
    """The array pass adds the loop's masses in the loop's order; only its
    logs and exps are numpy's rather than math's."""
    got, want = gmtm_exact_kernel(m), gmtm_exact_kernel_loop(m)
    assert got.space.labels == want.space.labels
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-14


def _with_zero_proposals(m: GmtmModel) -> GmtmModel:
    """rcheck(0, 2) = rcheck(2, 0) = 0, and rcheck(1, 2) = 0 while
    rcheck(2, 1) > 0: the log rcheck is -inf there."""
    rk = np.array([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.0, 0.5, 0.5]])
    with np.errstate(divide="ignore"):
        log_rk = np.log(rk)
    return dataclasses.replace(m, log_rcheck=lambda y, v: float(log_rk[y, v]))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_tuples_never_proposed_contribute_nothing(n):
    """No NaN and no numpy warning (warnings are errors in this suite) where
    both log rchecks of a move are -inf; a move from 2 to 1 is proposed but
    its reverse never is, so it is rejected."""
    m = _with_zero_proposals(_random_gmtm(5, n))
    kernel = gmtm_exact_kernel(m)
    K = kernel.matrix
    assert np.all(np.isfinite(K)) and np.allclose(K.sum(axis=1), 1.0, atol=1e-14)
    assert K[0, 2] == K[2, 0] == K[1, 2] == K[2, 1] == 0.0 < K[0, 1]
    assert np.max(np.abs(K - gmtm_exact_kernel_loop(m).matrix)) <= 1e-14
    pi = np.array([math.exp(m.log_pi_star(y)) for y in m.support])
    assert detailed_balance_check(kernel, ProbVector(pi / pi.sum(), kernel.space)).holds


@pytest.mark.parametrize("field, table, factor", [
    ("omega", lambda y, v: 0.0 if (y, v) == (1, 2) else 1.0, "GMTM omega"),
    ("omega", lambda y, v: -1.0, "GMTM omega"),
    ("omega", lambda y, v: math.inf if y == v else 1.0, "GMTM omega"),
    ("omega", lambda y, v: math.nan, "GMTM omega"),
    ("log_pi_star", lambda y: -math.inf if y == 2 else 0.0, "GMTM log_pi_star"),
    ("log_rcheck", lambda y, v: math.nan, "GMTM rcheck")])
def test_tables_that_make_no_ratio_are_density_errors(field, table, factor):
    m = dataclasses.replace(_random_gmtm(0, 2), **{field: table})
    for build in (gmtm_exact_kernel, gmtm_embedding_model):
        with pytest.raises(DensityError) as info:
            build(m)
        assert info.value.factor == factor


def test_gmtm_step_long_run_frequencies():
    m = _gmtm_toy(2)
    gen = RngStream("gmtm", seed=3).generator
    y = "a"
    counts = {s: 0 for s in m.support}
    for _ in range(20_000):
        y = gmtm_step(m, y, gen)
        counts[y] += 1
    total = sum(counts.values())
    for s, p in zip(m.support, (0.5, 0.3, 0.2)):
        assert counts[s] / total == pytest.approx(p, abs=0.02)


def test_try_count_must_be_positive():
    with pytest.raises(ValueError):
        GmtmModel(log_pi_star=lambda y: 0.0,
                  rcheck_sample=lambda gen, y: y,
                  log_rcheck=lambda y, v: 0.0,
                  omega=lambda y, v: 1.0, n=0)
