"""Steppers: determinism, acceptance ratios against the exact tables, and
the bookkeeping around traces."""

import itertools
import math
from bisect import bisect_right

import numpy as np
import pytest

from varorder import exactify, toys
from varorder.samplers import (AugmentedTargetModel, BlockDraws, ChainState,
                               DensityError, Proposal, RngStream,
                               acceptance_ratio_freeze, choice_cdf, freeze_step,
                               log_ratio_freeze, marginal_mh_step, noisy_step,
                               random_refresh_step, run_chain,
                               systematic_refresh_step)
from oracles import tabular_sampler_model


# ---- rng ----

def test_rng_stream_replays_bit_exactly():
    a = RngStream("freeze", seed=1).generator.random(5)
    b = RngStream("freeze", seed=1).generator.random(5)
    assert np.array_equal(a, b)


def test_rng_streams_differ_across_algorithm_and_index():
    base = RngStream("freeze", seed=1).generator.random(5)
    other = RngStream("noisy", seed=1).generator.random(5)
    shifted = RngStream("freeze", seed=1, stream=1).generator.random(5)
    assert not np.array_equal(base, other)
    assert not np.array_equal(base, shifted)


def test_negative_stream_index_is_refused():
    with pytest.raises(ValueError):
        RngStream("freeze", seed=9, stream=-1)


def test_block_view_serves_normals_from_blocks_and_passes_the_rest_through():
    view = BlockDraws(RngStream("block", seed=6).generator)
    ref = RngStream("block", seed=6).generator
    draws = [view.standard_normal() for _ in range(BlockDraws.BLOCK + 5)]
    want = np.concatenate([ref.standard_normal(BlockDraws.BLOCK),
                           ref.standard_normal(BlockDraws.BLOCK)[:5]])
    assert all(isinstance(z, float) for z in draws)
    assert np.array_equal(draws, want)
    # sized normals and every other method are the wrapped generator's own
    assert np.array_equal(view.standard_normal(3), ref.standard_normal(3))
    assert view.random() == ref.random()
    assert view.choice(4, p=[0.1, 0.2, 0.3, 0.4]) == ref.choice(4, p=[0.1, 0.2, 0.3, 0.4])


def test_random_and_cdf_bisection_replay_uniform_and_choice():
    """The accept tests' gen.random() and the discrete draws' CDF bisection
    consume the stream exactly as gen.uniform() and gen.choice(k, p=p) do."""
    ours, ref = np.random.default_rng(71), np.random.default_rng(71)
    assert [ours.random() for _ in range(10_000)] == [ref.uniform() for _ in range(10_000)]
    shapes = np.random.default_rng(72)
    for _ in range(300):
        k = int(shapes.integers(1, 9))
        w = shapes.uniform(0.0, 1.0, k) * (shapes.random(k) < 0.8)
        if w.sum() == 0.0:
            w[-1] = 1.0
        p = w / w.sum()
        cdf = choice_cdf(p)
        for _ in range(20):
            assert bisect_right(cdf, ours.random()) == ref.choice(k, p=p)


# ---- acceptance ratio vs exact table ----

def test_freeze_ratio_matches_exact_table():
    m = toys.registry_toy()
    model = tabular_sampler_model(m)
    alpha = exactify.freeze_acceptance_table(m)
    for y in m.Y.labels:
        for u in m.U.labels:
            for yh in m.Y.labels:
                for uh in m.U.labels:
                    got = acceptance_ratio_freeze(model, y, u, yh, uh)
                    want = alpha[m.Y.index(y), m.U.index(u),
                                 m.Y.index(yh), m.U.index(uh)]
                    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("m", [toys.registry_toy(), toys.conjugate_toy(),
                               toys.finite_gimh_toy(2)[0]],
                         ids=["registry", "conjugate", "finite_gimh"])
def test_factorized_refresh_gives_same_ratio(m):
    """r and rcheck * w give the same freeze ratio at every (y, u, yhat, uhat)."""
    direct = tabular_sampler_model(m)
    fact = tabular_sampler_model(m, factorized=True)
    for args in itertools.product(m.Y.labels, m.U.labels, m.Y.labels, m.U.labels):
        assert log_ratio_freeze(fact, *args) == pytest.approx(
            log_ratio_freeze(direct, *args), abs=1e-12)


def test_density_error_names_the_factor():
    m = toys.registry_toy()
    model = tabular_sampler_model(m)
    broken = AugmentedTargetModel(log_pi_star=lambda y: -math.inf,
                                  S=model.S, T=model.T, refresh=model.refresh)
    with pytest.raises(DensityError) as info:
        log_ratio_freeze(broken, "a", 0, "b", 1)
    assert "pi_star" in info.value.factor


# ---- steppers ----

def test_freeze_step_requires_auxiliary():
    model = tabular_sampler_model(toys.registry_toy())
    with pytest.raises(ValueError):
        freeze_step(model, ChainState(y="a"), RngStream("freeze", 0).generator)


@pytest.mark.parametrize("stepper, factorized, message", [
    (systematic_refresh_step, True, "not sampleable"),
    (random_refresh_step, False, "requires the \\(rcheck, w\\) form"),
    (noisy_step, False, "requires the \\(rcheck, w\\) form"),
])
def test_refresh_steppers_refuse_the_form_they_cannot_run(stepper, factorized, message):
    """Systematic refreshment samples R, so it refuses (rcheck, w); random
    refreshment and the noisy step need the weights, so they refuse R alone."""
    model = tabular_sampler_model(toys.registry_toy(), factorized=factorized)
    with pytest.raises(ValueError, match=message):
        stepper(model, ChainState(y="a", u=0), RngStream("refuse", 0).generator)


def test_random_refresh_commits_refreshed_auxiliary():
    """Even a rejected move keeps the refreshed u (step (i) is its own MH)."""
    m = toys.registry_toy()
    model = tabular_sampler_model(m, factorized=True)
    gen = RngStream("random_refresh", seed=2).generator
    seen_refresh_kinds = set()
    state = ChainState(y="a", u=0)
    for _ in range(200):
        state = random_refresh_step(model, state, gen)
        seen_refresh_kinds.add((state.accepts["refresh"], state.accepts["move"]))
    assert (True, False) in seen_refresh_kinds  # refreshed, then move rejected


def test_noisy_step_runs_and_drops_auxiliary():
    model = tabular_sampler_model(toys.registry_toy(), factorized=True)
    out = noisy_step(model, ChainState(y="a"), RngStream("noisy", 3).generator)
    assert out.u is None
    assert set(out.accepts) == {"move"}


def test_marginal_mh_long_run_frequencies():
    m = toys.registry_toy()
    k_mat = exactify.marginal_mh_proposal(m)
    yi = {y: i for i, y in enumerate(m.Y.labels)}
    k = Proposal(
        sample=lambda gen, y: m.Y.labels[gen.choice(m.Y.size, p=k_mat[yi[y]])],
        log_density=lambda y, yh: math.log(k_mat[yi[y], yi[yh]]))
    log_pi = lambda y: math.log(m.pi_star[yi[y]])
    rng = RngStream("marginal_mh", seed=8)
    trace = run_chain(lambda mm, s, r: marginal_mh_step(k, log_pi, s, r),
                      None, ChainState(y="a"), 30_000, rng)
    for y, target in zip(m.Y.labels, m.pi_star):
        freq = np.mean([s.y == y for s in trace.states])
        assert freq == pytest.approx(target, abs=0.02)


# ---- traces ----

def test_run_chain_length_and_counts():
    model = tabular_sampler_model(toys.registry_toy())
    rng = RngStream("freeze", seed=4)
    trace = run_chain(freeze_step, model, ChainState(y="a", u=0), 50, rng)
    assert len(trace) == 51
    acc, tot = trace.accept_counts["move"]
    assert tot == 50 and 0 <= acc <= 50
