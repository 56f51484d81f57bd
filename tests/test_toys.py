"""Shared toy constructions."""

import itertools
import math

import numpy as np
import pytest

from varorder import toys
from varorder.exactify import stationary_distribution


def test_q0_kernel_mixture_structure():
    Q = toys.q0_kernel(0.4)
    # eps * uniform + (1 - eps) * flip
    assert Q.matrix[0, 0] == pytest.approx(0.2)
    assert Q.matrix[0, 1] == pytest.approx(0.8)
    with pytest.raises(ValueError):
        toys.q0_kernel(0.0)


def test_simulated_trace_matches_kernel_statistics():
    eps = 0.3
    rng = np.random.default_rng(9)
    trace = toys.simulate_q0_trace(eps, 200_000, rng)
    assert trace[0] == 1.0
    assert set(np.unique(trace)) == {-1.0, 1.0}
    stay = np.mean(trace[1:] == trace[:-1])
    assert stay == pytest.approx(eps / 2.0, abs=0.01)


def test_registry_toy_weights_are_consistent_and_nonconstant():
    m = toys.registry_toy()
    assert np.allclose((m.rcheck * m.w).sum(axis=1), 1.0, atol=1e-12)
    assert np.ptp(m.w) > 0.1


def test_conjugate_toy_structure():
    c = toys.conjugate_toy()
    # S ignores u; T redraws from R at the proposed point
    assert np.allclose(c.S[:, 0, :], c.S[:, 1, :], atol=0)
    for u in range(c.U.size):
        assert np.allclose(c.T[:, u, :, :], c.r[None, :, :], atol=1e-15)


def test_gimh_toy_weights_average_to_one():
    """sum_u rcheck(y, u) w(y, u) = 1: the estimator is unbiased in u."""
    g, tab = toys.finite_gimh_toy()
    assert np.allclose((g.rcheck * g.w).sum(axis=1), 1.0, atol=1e-12)
    assert g.U.size == len(tab["V"]) ** tab["N"]


def test_toy_tables_equal_their_element_loops():
    """The broadcast toy tables, against the per-entry definitions."""
    m = toys.registry_toy()
    for y, u, yh in np.ndindex(3, 2, 3):
        p = 0.3 + 0.4 * ((y + u + yh) % 2)
        assert np.array_equal(m.T[y, u, yh], [p, 1.0 - p])
    c = toys.conjugate_toy()
    assert all(np.array_equal(c.T[y, u], c.r) for y, u in np.ndindex(3, 2))
    for N in (1, 2, 3):
        g, tab = toys.finite_gimh_toy(N)
        q, pi_bar, pi_star = tab["q"], tab["pi_bar"], tab["pi_star"]
        for (y, ui), yh in itertools.product(np.ndindex(2, g.U.size), range(2)):
            u = tab["u_labels"][ui]
            assert g.rcheck[y, ui] == math.prod(q[y, v] for v in u)
            assert g.w[y, ui] == sum(pi_bar[y, v] / q[y, v] for v in u) / N / pi_star[y]
            assert np.array_equal(g.S[y, ui], tab["s_prop"][y])
            assert np.array_equal(g.T[y, ui, yh], g.rcheck[yh])


def test_one_block_normal_draw_equals_sequential_draws():
    """The function axis draws all functions at once from the same stream."""
    block = np.random.default_rng(11).normal(size=(20, 3))
    rng = np.random.default_rng(11)
    assert np.array_equal(block, np.array([rng.normal(size=3) for _ in range(20)]))


def test_stacked_lazy_quadruples_equal_the_single_member_wrapper():
    n = 4
    rng = np.random.default_rng(13)
    draws = [toys.lazy_quadruple_draws(rng, n) for _ in range(7)]
    stacks = toys.lazy_quadruples(draws)
    rng = np.random.default_rng(13)
    for k in range(7):
        *quad, pi, f = toys.random_lazy_quadruple(rng, n)
        arrays = [K.matrix for K in quad] + [pi.weights, f.values]
        assert all(np.array_equal(stack[k], a) for stack, a in zip(stacks, arrays))


def test_lazy_quadruples_reject_a_non_finite_function():
    draws = list(toys.lazy_quadruple_draws(np.random.default_rng(1), 3))
    draws[-1] = np.array([0.0, np.inf, 1.0])
    with pytest.raises(ValueError, match="finite"):
        toys.lazy_quadruples([tuple(draws)])
