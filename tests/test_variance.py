"""Asymptotic variance: closed forms against independent oracles.

The closed-form solves are validated three ways: against the textbook
spectral formula on two states, against the truncated covariance series,
and against brute-force Monte Carlo on a seeded chain.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from varorder.ergodicity import fit_certificate
from varorder.kernels import (SPECTRAL_TOL, FiniteKernel, FunctionVector,
                              ProbVector, StateSpace, constant_kernel,
                              identity_kernel)
from varorder.variance import (AlternatingModel, ReducibleChainError,
                               SummabilityError, VarianceReport,
                               alternating_partial_sum_variance,
                               asvar_alternating, asvar_alternating_stack,
                               asvar_homogeneous, asvar_homogeneous_stack,
                               batch_means_variance,
                               truncated_autocov_series)
from varorder import toys
import oracles
from oracles import random_reversible_kernel
from varorder.exactify import (FiniteAugmentedModel, ReducibleKernelError,
                               extract_kernel, random_refresh_kernel,
                               stationary_distribution)


def two_state_chain(eps):
    pi = toys.uniform_two_state()
    return toys.q0_kernel(eps), pi, toys.identity_function()


# ---- homogeneous closed form ----

def test_two_state_matches_spectral_formula():
    """On two symmetric states v = (1 + lambda) / (1 - lambda)."""
    for eps in (0.1, 0.5, 0.9):
        P, pi, f = two_state_chain(eps)
        lam = eps - 1.0  # second eigenvalue of the eps-mixture flip kernel
        expected = (1.0 + lam) / (1.0 - lam)
        assert asvar_homogeneous(P, pi, f).value == pytest.approx(expected, abs=1e-12)


def test_iid_chain_variance_is_pi_variance():
    pi = ProbVector([0.2, 0.3, 0.5])
    f = FunctionVector([1.0, 2.0, 4.0], pi.space)
    fbar = f.values - np.sum(pi.weights * f.values)
    report = asvar_homogeneous(constant_kernel(pi), pi, f)
    assert report.value == pytest.approx(float(np.sum(pi.weights * fbar ** 2)),
                                         abs=1e-12)
    assert report.method == "closed_form"


def test_identity_kernel_is_rejected():
    pi = ProbVector([0.5, 0.5])
    f = FunctionVector([0.0, 1.0], pi.space)
    with pytest.raises(ReducibleChainError):
        asvar_homogeneous(identity_kernel(pi.space), pi, f)


@pytest.mark.parametrize("eps, accepted", [(1e-6, True), (1e-9, True),
                                          (3e-10, False), (1e-12, False)])
def test_near_reducible_gate_boundary(eps, accepted):
    """Both solves gate on ||Z^-1||_1 = 1 / (2 eps) against 1 / EIGENVALUE_ONE_TOL."""
    K = FiniteKernel([[1.0 - eps, eps], [eps, 1.0 - eps]])
    pi = ProbVector([0.5, 0.5])
    f = FunctionVector([0.0, 1.0], pi.space)
    if accepted:
        assert np.allclose(stationary_distribution(K).weights, 0.5, atol=1e-10)
        # v = pi(fbar^2) (1 + lambda) / (1 - lambda) with lambda = 1 - 2 eps
        assert asvar_homogeneous(K, pi, f).value == pytest.approx((1 - eps) / (4 * eps),
                                                                  rel=1e-6)
    else:
        with pytest.raises(ReducibleKernelError):
            stationary_distribution(K)
        with pytest.raises(ReducibleChainError):
            asvar_homogeneous(K, pi, f)


@pytest.mark.parametrize("n", [3, 12, 64])
@pytest.mark.parametrize("k", [1, 5, 20])
def test_homogeneous_stack_matches_per_function_calls(n, k):
    rng = np.random.default_rng(100 * n + k)
    P, pi = random_reversible_kernel(rng, n)
    F = rng.normal(size=(k, n))
    values, var_f = asvar_homogeneous_stack(P.matrix, pi.weights, F)
    assert values.shape == var_f.shape == (k,)
    for j in range(k):
        report = asvar_homogeneous(P, pi, FunctionVector(F[j], P.space))
        assert values[j] == pytest.approx(report.value, rel=1e-14, abs=0)
        assert var_f[j] == pytest.approx(report.diagnostics["variance_of_f"],
                                         rel=1e-14, abs=0)


@pytest.mark.parametrize("eps", [None, 3e-10, 1e-12])
def test_homogeneous_stack_keeps_the_reducibility_gate(eps):
    """Five right-hand sides do not move the gate: the identity kernel and the
    near-reducible kernels rejected one function at a time are rejected."""
    P = np.eye(2) if eps is None else np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
    F = np.random.default_rng(7).normal(size=(5, 2))
    with pytest.raises(ReducibleChainError):
        asvar_homogeneous_stack(P, np.array([0.5, 0.5]), F)


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_homogeneous_stack_accepts_the_near_reducible_kernels_the_gate_admits(eps):
    P = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
    F = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0]])
    values, _ = asvar_homogeneous_stack(P, np.array([0.5, 0.5]), F)
    # v = pi(fbar^2) (1 + lambda) / (1 - lambda) with lambda = 1 - 2 eps
    spread = (F[:, 1] - F[:, 0]) ** 2 / 4.0
    assert values == pytest.approx(spread * (1 - eps) / eps, rel=1e-6, abs=1e-300)


def test_non_invariant_pi_is_rejected():
    P = FiniteKernel([[0.9, 0.1], [0.5, 0.5]])
    pi = ProbVector([0.5, 0.5])
    f = FunctionVector([0.0, 1.0], pi.space)
    with pytest.raises(ValueError):
        asvar_homogeneous(P, pi, f)


def test_homogeneous_closed_form_vs_simulation():
    """Monte Carlo oracle: batch means on a long trace of the eps chain."""
    eps = 0.5
    P, pi, f = two_state_chain(eps)
    exact = asvar_homogeneous(P, pi, f).value
    rng = np.random.default_rng(101)
    trace = oracles.simulate_q0_trace(eps, 400_000, rng)
    est = batch_means_variance(trace, batch_count=200)
    assert abs(est.value - exact) < 5 * est.diagnostics["standard_error"]


# ---- alternating closed form ----

def test_alternating_with_equal_kernels_matches_homogeneous():
    rng = np.random.default_rng(7)
    P, pi = random_reversible_kernel(rng, 4)
    f = FunctionVector(rng.normal(size=4), pi.space)
    v_alt = asvar_alternating(AlternatingModel(P, P, pi, f)).value
    v_hom = asvar_homogeneous(P, pi, f).value
    assert v_alt == pytest.approx(v_hom, abs=1e-10)


def test_alternating_closed_form_vs_truncated_series():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        P, pi = random_reversible_kernel(rng, n)
        Q, _ = random_reversible_kernel(rng, n, pi=pi)
        f = FunctionVector(rng.normal(size=n), pi.space)
        m = AlternatingModel(P, Q, pi, f)
        closed = asvar_alternating(m)
        series = truncated_autocov_series(m, K=400)
        tol = max(series.diagnostics["remainder_bound"], 1e-10)
        assert abs(closed.value - series.value) <= tol


def test_series_remainder_bound_covers_the_truncation_error():
    """The reported remainder bound holds at short truncations too, where it
    is far from tiny.  Over 12 000 checks the worst error/bound ratio is 0.89
    where the bound is above 1e-12; the 1e-15 relative allowance covers the
    round-off of the two computations where it is not."""
    rng = np.random.default_rng(1)
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        P, pi = random_reversible_kernel(rng, n)
        Q, _ = random_reversible_kernel(rng, n, pi=pi)
        m = AlternatingModel(P, Q, pi, FunctionVector(rng.normal(size=n), pi.space))
        closed = asvar_alternating(m).value
        for K in (1, 2, 3, 5, 10, 20):
            series = truncated_autocov_series(m, K)
            bound = series.diagnostics["remainder_bound"]
            assert abs(closed - series.value) <= bound + 1e-15 * closed, (n, K)


def test_alternating_closed_form_vs_partial_sums():
    """Var(S_n)/n converges to the closed form; check the trend at n=600."""
    rng = np.random.default_rng(31)
    P, pi = random_reversible_kernel(rng, 3)
    Q, _ = random_reversible_kernel(rng, 3, pi=pi)
    f = FunctionVector(rng.normal(size=3), pi.space)
    m = AlternatingModel(P, Q, pi, f)
    v = asvar_alternating(m).value
    n = 600
    assert alternating_partial_sum_variance(m, n) / n == pytest.approx(v, rel=0.02)


def test_periodic_pair_raises_summability_error():
    pi = toys.uniform_two_state()
    f = toys.identity_function()
    flip = toys.flip_kernel()
    with pytest.raises(SummabilityError) as info:
        asvar_alternating(AlternatingModel(flip, flip, pi, f))
    assert info.value.spectral_radius >= 1.0 - 1e-9


def deflated_spectral_radius(M, pi):
    return float(np.max(np.abs(np.linalg.eigvals(M - pi.weights))))


def random_refresh_freeze_pair(rng, ny, nu):
    """Random refresh and freeze kernels of a dense random augmented model."""
    rcheck = rng.uniform(0.05, 1.0, (ny, nu))
    rcheck /= rcheck.sum(axis=1, keepdims=True)
    raw_w = rng.uniform(0.2, 2.0, (ny, nu))
    S = rng.uniform(0.05, 1.0, (ny, nu, ny))
    T = rng.uniform(0.05, 1.0, (ny, nu, ny, nu))
    pi = rng.uniform(0.2, 1.0, ny)
    m = FiniteAugmentedModel(
        Y=StateSpace(range(ny)), U=StateSpace(range(nu)), pi_star=pi / pi.sum(),
        S=S / S.sum(axis=2, keepdims=True), T=T / T.sum(axis=3, keepdims=True),
        rcheck=rcheck, w=raw_w / (rcheck * raw_w).sum(axis=1, keepdims=True))
    return random_refresh_kernel(m), extract_kernel("freeze", m).kernel, m.joint_pi


def test_deflated_pq_and_qp_share_spectral_radius():
    """(P - 1 pi^T)(Q - 1 pi^T) and its reverse product: one spectrum serves both."""
    rng = np.random.default_rng(41)
    pairs = []
    for _ in range(200):
        P0, P1, Q0, Q1, pi, _ = toys.random_lazy_quadruple(rng, int(rng.integers(2, 13)))
        pairs += [(P0, Q0, pi), (P1, Q1, pi)]
    pairs.append(random_refresh_freeze_pair(rng, 16, 16))
    assert pairs[-1][2].space.size == 256
    for P, Q, pi in pairs:
        A, B = P.matrix @ Q.matrix, Q.matrix @ P.matrix
        rho_pq, rho_qp = deflated_spectral_radius(A, pi), deflated_spectral_radius(B, pi)
        assert abs(rho_pq - rho_qp) <= SPECTRAL_TOL
        f = FunctionVector(np.ones(pi.space.size), pi.space)
        rho = asvar_alternating(AlternatingModel(P, Q, pi, f)).diagnostics["spectral_radius"]
        assert abs(rho - max(rho_pq, rho_qp)) <= SPECTRAL_TOL


def random_pair_arrays(rng, n):
    P, pi = random_reversible_kernel(rng, n)
    Q, _ = random_reversible_kernel(rng, n, pi=pi)
    return P.matrix, Q.matrix, pi.weights, rng.normal(size=n)


def test_stacked_engine_matches_per_model_calls():
    """A (3, 4) stack of unrelated pairs, each with its own pi and f, in one call."""
    rng = np.random.default_rng(43)
    members = [random_pair_arrays(rng, 5) for _ in range(12)]
    P, Q, pi, f = (np.array(column).reshape(3, 4, *column[0].shape)
                   for column in zip(*members))
    values, rho = asvar_alternating_stack(P, Q, pi, f)
    assert values.shape == rho.shape == (3, 4)
    for k, (Pk, Qk, pik, fk) in enumerate(members):
        sp = StateSpace(range(5))
        report = asvar_alternating(AlternatingModel(
            FiniteKernel(Pk, sp), FiniteKernel(Qk, sp), ProbVector(pik, sp),
            FunctionVector(fk, sp)))
        assert values.flat[k] == pytest.approx(report.value, rel=1e-14, abs=0)
        assert rho.flat[k] == pytest.approx(report.diagnostics["spectral_radius"],
                                            rel=1e-14, abs=0)


def test_stack_containing_the_flip_pair_raises_summability_error():
    rng = np.random.default_rng(47)
    P, Q, pi, f = random_pair_arrays(rng, 2)
    flip = toys.flip_kernel().matrix
    with pytest.raises(SummabilityError) as info:
        asvar_alternating_stack(np.stack([P, flip]), np.stack([Q, flip]),
                                np.stack([pi, [0.5, 0.5]]), np.stack([f, [-1.0, 1.0]]))
    assert info.value.spectral_radius >= 1.0 - 1e-9


def test_stack_member_without_invariant_pi_raises_value_error():
    rng = np.random.default_rng(53)
    members = [random_pair_arrays(rng, 4) for _ in range(3)]
    P, Q, pi, f = (np.array(column) for column in zip(*members))
    P[1] = np.full((4, 4), 0.25)  # uniform rows leave only the uniform law invariant
    with pytest.raises(ValueError, match="not invariant"):
        asvar_alternating_stack(P, Q, pi, f)


@pytest.mark.parametrize("engine", ["homogeneous", "alternating", "certificate"])
def test_nan_pi_is_not_invariant(engine):
    rng = np.random.default_rng(67)
    P, Q, pi, f = random_pair_arrays(rng, 3)
    pi = np.array([np.nan, *pi[1:]])
    # ProbVector refuses NaN, so the certificate gets a bare holder of the weights
    calls = {"homogeneous": lambda: asvar_homogeneous_stack(P, pi, f[None, :]),
             "alternating": lambda: asvar_alternating_stack(P, Q, pi, f),
             "certificate": lambda: fit_certificate(FiniteKernel(P), SimpleNamespace(weights=pi),
                                                    FunctionVector(np.ones(3)))}
    with pytest.raises(ValueError, match="not invariant"):
        calls[engine]()


def quadratic_partial_sum_variance(m, n):
    """Reference: Var(S_n) summed over all pairs i < j, one propagation each."""
    fbar = m.f.values - float(np.sum(m.pi.weights * m.f.values))
    total = n * float(np.sum(m.pi.weights * fbar * fbar))
    kernels = [m.P.matrix, m.Q.matrix]
    for i in range(n):
        w = m.pi.weights * fbar
        for j in range(i + 1, n):
            w = w @ kernels[(j - 1) % 2]
            total += 2.0 * float(w @ fbar)
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 10, 41])
def test_linear_partial_sum_matches_quadratic_reference(n):
    flip = toys.flip_kernel()
    m = AlternatingModel(flip, flip, toys.uniform_two_state(), toys.identity_function())
    assert alternating_partial_sum_variance(m, n) == quadratic_partial_sum_variance(m, n)
    rng = np.random.default_rng(59)
    for size in (2, 3, 6):
        P, pi = random_reversible_kernel(rng, size)
        Q, _ = random_reversible_kernel(rng, size, pi=pi)
        m = AlternatingModel(P, Q, pi, FunctionVector(rng.normal(size=size), pi.space))
        assert alternating_partial_sum_variance(m, n) == pytest.approx(
            quadratic_partial_sum_variance(m, n), rel=1e-12, abs=0)


def test_partial_sum_prefixes_match_the_quadratic_reference():
    flip = toys.flip_kernel()
    m = AlternatingModel(flip, flip, toys.uniform_two_state(), toys.identity_function())
    prefixes = alternating_partial_sum_variance(m, 41, prefixes=True)
    assert prefixes.tolist() == [quadratic_partial_sum_variance(m, n) for n in range(42)]
    rng = np.random.default_rng(61)
    P, pi = random_reversible_kernel(rng, 5)
    Q, _ = random_reversible_kernel(rng, 5, pi=pi)
    m = AlternatingModel(P, Q, pi, FunctionVector(rng.normal(size=5), pi.space))
    prefixes = alternating_partial_sum_variance(m, 41, prefixes=True)
    assert prefixes[0] == 0.0
    for n in range(1, 42):
        assert prefixes[n] == pytest.approx(quadratic_partial_sum_variance(m, n),
                                            rel=1e-12, abs=0)
        assert prefixes[n] == alternating_partial_sum_variance(m, n)


def test_alternating_model_checks_invariance():
    pi = ProbVector([0.3, 0.7])
    P = FiniteKernel([[0.5, 0.5], [0.5, 0.5]])
    f = FunctionVector([0.0, 1.0], pi.space)
    with pytest.raises(ValueError):
        AlternatingModel(P, P, pi, f)


# ---- estimators ----

def test_batch_means_on_iid_noise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=200_000)
    est = batch_means_variance(x, batch_count=100)
    assert est.method == "batch_means"
    assert est.value == pytest.approx(1.0, rel=0.1)


def test_batch_means_requires_enough_data():
    with pytest.raises(ValueError):
        batch_means_variance(np.zeros(50), batch_count=100)


def test_variance_report_validates():
    with pytest.raises(ValueError):
        VarianceReport(value=1.0, method="guesswork")
    with pytest.raises(ValueError):
        VarianceReport(value=-1.0, method="closed_form")
