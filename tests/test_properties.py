"""Property tests over random finite models and kernels."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from varorder.ergodicity import fit_certificate
from varorder.exactify import (ALGORITHMS, FiniteAugmentedModel, extract_kernel,
                               stationary_distribution)
from varorder.kernels import ENTRY_TOL, FiniteKernel, FunctionVector, StateSpace
from varorder.variance import EIGENVALUE_ONE_TOL, ReducibleChainError, _fundamental_solve
from oracles import random_reversible_kernel
from test_ergodicity import assert_bound_dominates


@st.composite
def positive_models(draw):
    ny, nu = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def table(*shape):
        return draw(hnp.arrays(float, shape, elements=st.floats(0.05, 1.0)))

    pi, rcheck, raw_w = table(ny), table(ny, nu), table(ny, nu)
    S, T = table(ny, nu, ny), table(ny, nu, ny, nu)
    rcheck /= rcheck.sum(axis=1, keepdims=True)
    return FiniteAugmentedModel(
        Y=StateSpace(range(ny)), U=StateSpace(range(nu)),
        pi_star=pi / pi.sum(), S=S / S.sum(axis=2, keepdims=True),
        T=T / T.sum(axis=3, keepdims=True), rcheck=rcheck,
        w=raw_w / (rcheck * raw_w).sum(axis=1, keepdims=True))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(positive_models())
def test_extracted_kernels_are_stochastic_with_the_target_law(m):
    for alg in ALGORITHMS:
        K = extract_kernel(alg, m).kernel
        assert np.min(K.matrix) >= -ENTRY_TOL, alg
        assert np.max(np.abs(K.matrix.sum(axis=1) - 1.0)) <= ENTRY_TOL, alg
        if alg == "noisy":
            continue  # the noisy chain does not leave the target invariant
        target = m.pi_star if alg == "marginal_mh" else m.joint_pi.weights
        assert np.max(np.abs(stationary_distribution(K).weights - target)) <= ENTRY_TOL, alg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_certificate_of_a_reversible_product_dominates_its_v_distance(n, seed):
    """P and Q pi-reversible on a shared pi: the certificate of PQ has
    rho <= 1 and bounds ||(PQ)^n(x,.) - pi||_V for n <= 50."""
    rng = np.random.default_rng(seed)
    P, pi = random_reversible_kernel(rng, n)
    Q, _ = random_reversible_kernel(rng, n, pi)
    PQ = FiniteKernel(P.matrix @ Q.matrix, pi.space)
    V = FunctionVector(pi.weights.max() / pi.weights, pi.space)
    cert = fit_certificate(PQ, pi, V)
    assert cert.rho <= 1.0
    assert_bound_dominates(cert, PQ, pi, V, 50)


@st.composite
def gate_inputs(draw):
    """A stochastic M on n = 2-8 states with a random zero pattern, whose two
    diagonal blocks are coupled by weight delta, 0 (reducible) or 10^e for e
    in [-13, -2], a law u (uniform or random), a right-hand side and an
    orientation."""
    n = draw(st.integers(2, 8))
    weights = draw(hnp.arrays(float, (n, n), elements=st.floats(0.05, 1.0)))
    weights[weights < draw(st.floats(0.0, 0.7))] = 0.0
    block = np.arange(n) < draw(st.integers(1, n - 1))
    delta = draw(st.floats(-14.0, -2.0).map(lambda e: 10.0 ** e if e >= -13.0 else 0.0))
    weights = np.where(block[:, None] == block[None, :], weights, delta)
    empty = weights.sum(axis=1) == 0.0
    weights[empty] = np.eye(n)[empty]
    M = weights / weights.sum(axis=1, keepdims=True)
    u = (np.full(n, 1.0 / n) if draw(st.booleans()) else
         draw(hnp.arrays(float, n, elements=st.floats(0.05, 1.0))))
    rhs = draw(hnp.arrays(float, (n, 1), elements=st.floats(-1.0, 1.0)))
    return M, u / u.sum(), rhs, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gate_inputs())
def test_gate_rejects_exactly_when_the_inverse_norm_is_too_large(inputs):
    """_fundamental_solve raises ReducibleChainError exactly when
    ||Z^{-1}||_1 from np.linalg.inv exceeds 1 / EIGENVALUE_ONE_TOL, and
    otherwise returns x with a relative residual ||A x - rhs||_inf below
    1e-12 (A = Z, or Z^T when transposed); norms within rounding of the
    limit are skipped."""
    M, u, rhs, transposed = inputs
    n = M.shape[0]
    Z = np.eye(n) - M + u[None, :]
    try:
        norm = np.linalg.norm(np.linalg.inv(Z), 1)
    except np.linalg.LinAlgError:
        norm = np.inf
    assume(not abs(norm * EIGENVALUE_ONE_TOL - 1.0) <= 1e-6)
    if not norm <= 1.0 / EIGENVALUE_ONE_TOL:
        with pytest.raises(ReducibleChainError):
            _fundamental_solve(M, u, rhs, transposed)
        return
    x, _ = _fundamental_solve(M, u, rhs, transposed)
    A = Z.T if transposed else Z
    scale = np.max(np.abs(A).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    assert np.max(np.abs(A @ x - rhs)) <= 1e-12 * scale
