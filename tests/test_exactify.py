"""Exact transition matrices of the augmented-target samplers on finite toys."""

import itertools
import warnings

import numpy as np
import pytest

from varorder import exactify, toys
from varorder.exactify import (FiniteAugmentedModel, ReducibleKernelError,
                               accept_kernel,
                               extract_kernel, marginal_kernel,
                               marginal_mh_proposal, random_refresh_kernel,
                               stationary_distribution, systematic_refresh_kernel,
                               total_variation, y_marginal_of)
from varorder.kernels import (ENTRY_TOL, FiniteKernel, ProbVector, _doeblin_coefficient,
                              detailed_balance_check, metropolis)
from varorder.special_cases import gmtm_exact_kernel
from varorder.variance import ReducibleChainError, _fundamental_solve, asvar_homogeneous_stack
import oracles


@pytest.fixture
def model():
    return toys.registry_toy()


def random_model(rng, ny, nu, zero_moves=False):
    """Dense random model in the (rcheck, w) form; with zero_moves, S never
    proposes y = 0 and T never proposes u = 0, so the flux has zero entries."""
    pi = rng.uniform(0.2, 1.0, ny)
    rcheck = rng.uniform(0.05, 1.0, (ny, nu))
    rcheck /= rcheck.sum(axis=1, keepdims=True)
    raw_w = rng.uniform(0.2, 2.0, (ny, nu))
    S = rng.uniform(0.05, 1.0, (ny, nu, ny))
    T = rng.uniform(0.05, 1.0, (ny, nu, ny, nu))
    if zero_moves:
        S[:, :, 0] = 0.0
        T[..., 0] = 0.0
    return FiniteAugmentedModel(
        Y=toys.StateSpace(range(ny)), U=toys.StateSpace(range(nu)),
        pi_star=pi / pi.sum(), S=S / S.sum(axis=2, keepdims=True),
        T=T / T.sum(axis=3, keepdims=True), rcheck=rcheck,
        w=raw_w / (rcheck * raw_w).sum(axis=1, keepdims=True))


def reference_models():
    rng = np.random.default_rng(2024)
    return [toys.registry_toy(), toys.finite_gimh_toy()[0],
            random_model(rng, 4, 3, zero_moves=True), random_model(rng, 16, 16)]


def loop_accept_kernel(m):
    """Element-by-element freeze acceptance table and accept kernel."""
    ny, nu = m.Y.size, m.U.size
    alpha = np.empty((ny, nu, ny, nu))
    for y, u, yh, uh in itertools.product(range(ny), range(nu), range(ny), range(nu)):
        num_ = m.pi_star[yh] * m.r[yh, uh] * m.S[yh, uh, y] * m.T[yh, uh, y, u]
        den_ = m.pi_star[y] * m.r[y, u] * m.S[y, u, yh] * m.T[y, u, yh, uh]
        alpha[y, u, yh, uh] = min(1.0, num_ / den_) if den_ > 0 else 1.0
    K = np.zeros((ny * nu, ny * nu))
    for y, u in itertools.product(range(ny), range(nu)):
        i = y * nu + u
        accepted = m.S[y, u, :, None] * m.T[y, u] * alpha[y, u]
        K[i] = accepted.reshape(-1)
        K[i, i] += 1.0 - accepted.sum()
    return alpha, K


def loop_refresh_kernel(m, probs, w=None):
    """Row-by-row refresh kernel; with w, a Metropolized refresh."""
    ny, nu = m.Y.size, m.U.size
    K = np.zeros((ny * nu, ny * nu))
    for y, u in itertools.product(range(ny), range(nu)):
        i = y * nu + u
        acc = probs[y] * (1.0 if w is None else np.minimum(1.0, w[y] / w[y, u]))
        K[i, y * nu: (y + 1) * nu] = acc
        if w is not None:
            K[i, i] += 1.0 - acc.sum()
    return K


def loop_marginal_mh_kernel(m):
    k = marginal_mh_proposal(m)
    K = np.zeros_like(k)
    for y in range(m.Y.size):
        for yh in range(m.Y.size):
            ratio = m.pi_star[yh] * k[yh, y] / (m.pi_star[y] * k[y, yh])
            K[y, yh] = k[y, yh] * min(1.0, ratio)
        K[y, y] += 1.0 - K[y].sum()
    return K


# ---- model validation ----

def test_r_rows_must_sum_to_one(model):
    bad = model.r.copy()
    bad[0, 0] += 0.1
    with pytest.raises(ValueError):
        FiniteAugmentedModel(Y=model.Y, U=model.U, pi_star=model.pi_star,
                             S=model.S, T=model.T, r=bad)


def test_rcheck_needs_weights(model):
    with pytest.raises(ValueError):
        FiniteAugmentedModel(Y=model.Y, U=model.U, pi_star=model.pi_star,
                             S=model.S, T=model.T, rcheck=model.rcheck)


def test_inconsistent_factorization_rejected(model):
    with pytest.raises(ValueError):
        FiniteAugmentedModel(Y=model.Y, U=model.U, pi_star=model.pi_star,
                             S=model.S, T=model.T, r=model.rcheck,
                             rcheck=model.rcheck, w=model.w)


def test_weights_need_rcheck(model):
    """w is read only through rcheck * w: alongside r it would go unchecked."""
    with pytest.raises(ValueError, match="exactly one refresh form"):
        FiniteAugmentedModel(Y=model.Y, U=model.U, pi_star=model.pi_star,
                             S=model.S, T=model.T, r=model.r,
                             w=np.full_like(model.w, np.nan))


def test_joint_pi_marginalizes_to_pi_star(model):
    ym = y_marginal_of(model.joint_pi, model)
    assert np.allclose(ym.weights, model.pi_star, atol=1e-14)


def test_joint_space_size_cap():
    with pytest.raises(ValueError):
        FiniteAugmentedModel(Y=toys.StateSpace(range(20)),
                             U=toys.StateSpace(range(20)),
                             pi_star=np.full(20, 0.05),
                             S=np.zeros((20, 20, 20)),
                             T=np.zeros((20, 20, 20, 20)),
                             r=np.full((20, 20), 0.05))


@pytest.mark.parametrize("name, index, value", [
    ("pi_star", (0,), np.nan), ("S", (0, 0, 0), np.nan), ("S", (0, 0, 0), -0.25)])
def test_model_tables_must_be_distributions(model, name, index, value):
    """NaN and negative entries fail even where every row still sums to 1."""
    table = getattr(model, name).copy()
    if value < 0:  # move the mass to the next entry so the row sum stays 1
        table[index[:-1] + (1,)] += table[index] - value
    table[index] = value
    tables = {"pi_star": model.pi_star, "S": model.S, "T": model.T, name: table}
    with pytest.raises(ValueError, match=f"^{name}: "):
        FiniteAugmentedModel(Y=model.Y, U=model.U, r=model.r, **tables)


# ---- component kernels ----

@pytest.mark.parametrize("m", reference_models())
def test_vectorized_kernels_match_element_loops(m):
    alpha, K = loop_accept_kernel(m)
    with np.errstate(all="ignore"):  # the loop divides 0/0 where k has zeros
        K_mh = loop_marginal_mh_kernel(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # 0/0 flux stays silent
        assert np.array_equal(exactify.freeze_acceptance_table(m), alpha)
        assert np.array_equal(accept_kernel(m).matrix, K)
        assert np.array_equal(exactify.marginal_mh_exact_kernel(m).matrix, K_mh)
    assert np.array_equal(systematic_refresh_kernel(m).matrix,
                          loop_refresh_kernel(m, m.r))
    assert np.array_equal(exactify._refresh_kernel(m, m.rcheck).matrix,
                          loop_refresh_kernel(m, m.rcheck))
    assert np.array_equal(random_refresh_kernel(m).matrix,
                          loop_refresh_kernel(m, m.rcheck, m.w))


@pytest.mark.parametrize("m", [toys.registry_toy(), toys.finite_gimh_toy()[0],
                               random_model(np.random.default_rng(16), 16, 16),
                               random_model(np.random.default_rng(32), 32, 8)])
def test_refresh_products_by_block_equal_the_dense_products(m):
    """extract_kernel forms R Q one y-block at a time; the result has the
    bits of the dense product of the refresh kernel and the accept kernel."""
    Q = accept_kernel(m).matrix
    for algorithm, refresh in (("systematic", systematic_refresh_kernel),
                               ("noisy", lambda mm: exactify._refresh_kernel(mm, mm.rcheck)),
                               ("random_refresh", random_refresh_kernel)):
        assert np.array_equal(extract_kernel(algorithm, m).kernel.matrix,
                              refresh(m).matrix @ Q), algorithm


def test_accept_kernel_is_pi_reversible(model):
    assert detailed_balance_check(accept_kernel(model), model.joint_pi).holds


def test_refresh_kernels_hold_y_fixed(model):
    ny, nu = model.Y.size, model.U.size
    for K in (systematic_refresh_kernel(model), exactify._refresh_kernel(model, model.rcheck),
              random_refresh_kernel(model)):
        M = K.matrix.reshape(ny, nu, ny, nu)
        off = M.sum(axis=3) - np.eye(ny)[:, None, :] * M.sum(axis=3)
        assert np.max(np.abs(off)) < 1e-14


def test_systematic_refresh_rows_are_r(model):
    M = systematic_refresh_kernel(model).matrix.reshape(
        model.Y.size, model.U.size, model.Y.size, model.U.size)
    for y in range(model.Y.size):
        for u in range(model.U.size):
            assert np.allclose(M[y, u, y], model.r[y], atol=0)


def test_random_refresh_kernel_is_pi_reversible(model):
    assert detailed_balance_check(random_refresh_kernel(model),
                                  model.joint_pi).holds


def test_random_refresh_reduces_to_systematic_when_weights_constant():
    m = toys.registry_toy()
    flat = FiniteAugmentedModel(Y=m.Y, U=m.U, pi_star=m.pi_star, S=m.S, T=m.T,
                                rcheck=m.rcheck,
                                w=np.ones_like(m.rcheck))
    assert np.allclose(random_refresh_kernel(flat).matrix,
                       exactify._refresh_kernel(flat, flat.rcheck).matrix, atol=1e-14)


# ---- full algorithm kernels ----

def test_all_extracted_kernels_leave_pi_invariant_except_noisy(model):
    pi = model.joint_pi.weights
    for alg in ("freeze", "systematic", "random_refresh"):
        K = extract_kernel(alg, model).kernel
        assert np.max(np.abs(pi @ K.matrix - pi)) < 1e-13, alg
    noisy = extract_kernel("noisy", model).kernel
    assert np.max(np.abs(pi @ noisy.matrix - pi)) > 1e-4


def test_extracted_kernel_matches_simulation(model):
    """Stochastic oracle: one-step frequencies of the simulated freeze chain
    agree with the exact matrix."""
    from varorder.samplers import ChainState, RngStream, freeze_step, run_chain
    from varorder.pseudo_marginal import ImportanceModel  # noqa: F401  (env check)
    exact = extract_kernel("freeze", model).kernel
    m = oracles.tabular_sampler_model(model)
    Y, U = model.Y.labels, model.U.labels
    rng = RngStream("freeze", seed=42)
    trace = run_chain(freeze_step, m, ChainState(y=Y[0], u=U[0]), 40_000, rng)
    states = [(s.y, s.u) for s in trace.states]
    freq = oracles.empirical_one_step_frequencies(states, model.joint_space)
    visited = freq.sum(axis=1) > 0
    assert np.max(np.abs(freq[visited] - exact.matrix[visited])) < 0.03


def test_marginal_mh_proposal_rows_sum_to_one(model):
    k = marginal_mh_proposal(model)
    assert np.allclose(k.sum(axis=1), 1.0, atol=1e-12)


def test_marginal_mh_kernel_reversible_for_pi_star(model):
    K = extract_kernel("marginal_mh", model).kernel
    assert detailed_balance_check(K, model.pi_star_vector).holds


def test_unknown_algorithm_is_rejected(model):
    with pytest.raises(ValueError):
        extract_kernel("metropolis-lite", model)


# ---- stationary analysis ----

def test_stationary_distribution_on_known_chain():
    K = FiniteKernel([[0.9, 0.1], [0.2, 0.8]])
    pi = stationary_distribution(K)
    assert np.allclose(pi.weights, [2 / 3, 1 / 3], atol=1e-12)


def test_stationary_distribution_rejects_reducible():
    K = FiniteKernel(np.eye(3))
    with pytest.raises(ReducibleKernelError):
        stationary_distribution(K)


def lu_stationary(K):
    """The LU route's law: pi (I - K + 1 u^T) = u^T for uniform u, normalised."""
    u = np.full(K.size, 1.0 / K.size)
    pi, _ = _fundamental_solve(K, u, u[:, None], transposed=True)
    pi = np.maximum(pi[:, 0], 0.0)
    return pi / pi.sum()


def reversible_kernels():
    m, rng = toys.registry_toy(), np.random.default_rng(7)
    w = rng.uniform(0.2, 1.0, 7)
    proposal = rng.uniform(0.05, 1.0, (7, 7))
    randoms = [pytest.param(oracles.random_reversible_kernel(np.random.default_rng(n), n)[0],
                            id=f"random_{n}") for n in (2, 3, 16, 256, 1024)]
    return randoms + [
        pytest.param(accept_kernel(m), id="accept_kernel"),
        pytest.param(exactify.marginal_mh_exact_kernel(m), id="marginal_mh"),
        pytest.param(gmtm_exact_kernel(toys.gmtm_toy(2)), id="gmtm"),
        pytest.param(FiniteKernel(metropolis(proposal / proposal.sum(axis=1, keepdims=True),
                                             w / w.sum())), id="metropolis")]


@pytest.mark.parametrize("K", reversible_kernels())
def test_reversible_stationary_law_matches_the_lu_route(K, solves):
    """Certified reversible kernels take the ratio route (no solve) and land
    within ENTRY_TOL of the LU route's law."""
    assert solves(lambda: stationary_distribution(K)) == 0
    pi = stationary_distribution(K).weights
    assert np.sum(np.abs(pi - lu_stationary(K))) <= ENTRY_TOL


def test_broken_detailed_balance_takes_the_lu_route(solves):
    """One off-diagonal pair off by 1e-9 is enough to fail the certificate."""
    P, _ = oracles.random_reversible_kernel(np.random.default_rng(5), 16)
    M = P.matrix.copy()
    M[2, 5] += 1e-9
    K = FiniteKernel(M / M.sum(axis=1, keepdims=True))
    assert solves(lambda: stationary_distribution(K)) == 1
    assert np.array_equal(stationary_distribution(K).weights, lu_stationary(K))


def test_ratio_certificate_bounds_the_error():
    """||x K - x||_1 (2 - eps) / eps >= ||x - pi||_1 for laws x near pi of
    random reversible kernels, eps their Doeblin coefficient."""
    rng = np.random.default_rng(11)
    slack = []
    for trial in range(120):
        n = int(rng.integers(2, 48))
        P, pi = oracles.random_reversible_kernel(rng, n)
        eps = float(_doeblin_coefficient(P.matrix))
        assert eps > 0.0
        delta = rng.normal(size=n) * 10.0 ** rng.uniform(-8, -3)
        x = pi.weights + delta - delta.mean()
        bound = np.sum(np.abs(x @ P.matrix - x)) * (2.0 - eps) / eps
        slack.append(bound / np.sum(np.abs(x - pi.weights)))
    assert len(slack) == 120 and min(slack) >= 1.0, min(slack)


def lumping_models():
    rng = np.random.default_rng(31)
    return [pytest.param(m, id=name) for name, m in (
        ("registry", toys.registry_toy()), ("conjugate", toys.conjugate_toy()),
        ("gimh2", toys.finite_gimh_toy(2)[0]), ("random16x16", random_model(rng, 16, 16)),
        ("random32x8", random_model(rng, 32, 8)))]


@pytest.mark.parametrize("m", lumping_models())
def test_refresh_kernels_have_one_run_of_rows_per_y(m):
    """Systematic refreshment and the noisy step redraw u from a law of y
    alone, so their rows repeat over each y-block: exactly |Y| runs, one per
    block.  Freeze and random_refresh rows depend on u: no run."""
    blocks = list(range(0, m.Y.size * m.U.size, m.U.size))
    for algorithm in ("systematic", "noisy"):
        assert extract_kernel(algorithm, m).kernel.row_runs.tolist() == blocks
    for algorithm in ("freeze", "random_refresh"):
        assert extract_kernel(algorithm, m).kernel.row_runs is None


def test_row_runs_compare_whole_rows_where_the_first_column_ties():
    """A random reversible kernel has no run; nor has a kernel whose first
    column ties where its rows differ, or whose equal rows are not
    consecutive.  Equal consecutive rows make one run."""
    assert oracles.random_reversible_kernel(np.random.default_rng(3), 64)[0].row_runs is None
    a, b = [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]
    assert FiniteKernel([a, b, [0.5, 0.25, 0.25]]).row_runs is None
    assert FiniteKernel([a, b, a]).row_runs is None
    assert FiniteKernel([a, b, b]).row_runs.tolist() == [0, 1]
    assert FiniteKernel([b, b, b]).row_runs.tolist() == [0]


@pytest.mark.parametrize("m", lumping_models())
def test_lumped_stationary_law_matches_the_lu_route(m):
    """The systematic and noisy laws, from the lumped kernel, lie within
    1e-12 relative of the full kernel's LU route."""
    for algorithm in ("systematic", "noisy"):
        K = extract_kernel(algorithm, m).kernel
        reference = lu_stationary(K)
        pi = stationary_distribution(K).weights
        assert np.all(np.abs(pi - reference) <= 1e-12 * reference), algorithm


def test_lumpable_kernel_with_two_closed_classes_is_reducible():
    """Runs of equal rows do not bypass the gate: a kernel of two closed
    classes, each of two equal rows, has no unique law."""
    K = FiniteKernel([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                      [0.0, 0.0, 0.3, 0.7], [0.0, 0.0, 0.3, 0.7]])
    assert K.row_runs.tolist() == [0, 2]
    with pytest.raises(ReducibleKernelError):
        stationary_distribution(K)
    with pytest.raises(ReducibleChainError):
        asvar_homogeneous_stack(K, ProbVector([0.25, 0.25, 0.15, 0.35]), np.eye(4))


def test_marginal_kernel_of_systematic_is_pi_star_reversible(model):
    KY = marginal_kernel(extract_kernel("systematic", model), model)
    assert detailed_balance_check(KY, model.pi_star_vector).holds


def test_total_variation_bounds():
    p = stationary_distribution(FiniteKernel([[0.9, 0.1], [0.2, 0.8]]))
    assert total_variation(p, p) == 0.0
