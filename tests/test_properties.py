"""Property tests over random strictly positive finite augmented models."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from varorder.ergodicity import fit_certificate
from varorder.exactify import (ALGORITHMS, FiniteAugmentedModel, extract_kernel,
                               stationary_distribution)
from varorder.kernels import (ENTRY_TOL, FiniteKernel, FunctionVector, StateSpace,
                              random_reversible_kernel)
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
