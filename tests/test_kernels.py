"""Tests for the kernel algebra and ordering checks."""

import numpy as np
import pytest

from varorder.kernels import (FiniteKernel, FunctionVector, ProbVector,
                              StateSpace, StateSpaceMismatchError,
                              NotReversibleError, check_stochastic, compose,
                              constant_kernel,
                              covariance_order_check, detailed_balance_check,
                              identity_kernel, metropolis,
                              off_diagonal_order_check, space)
from varorder.variance import _inner
from oracles import lag_one_autocov, lazy_pair, random_reversible_kernel


def two_state():
    sp = StateSpace([-1, 1])
    pi = ProbVector([0.5, 0.5], sp)
    return sp, pi


# ---- construction and validation ----

def test_state_space_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        StateSpace(["a", "a"])


def test_prob_vector_must_normalize():
    with pytest.raises(ValueError):
        ProbVector([0.5, 0.6])


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.nan, np.nan], [-0.5, 1.5]])
def test_prob_vector_rejects_nan_and_negative_weights(weights):
    with pytest.raises(ValueError):
        ProbVector(weights)


def test_kernel_rejects_bad_rows():
    with pytest.raises(ValueError):
        FiniteKernel([[0.5, 0.4], [0.5, 0.5]])


def test_kernel_rejects_negative_entries():
    with pytest.raises(ValueError):
        FiniteKernel([[1.1, -0.1], [0.5, 0.5]])


@pytest.mark.parametrize("where", ["bad_row", "negative_entry"])
def test_check_stochastic_rejects_one_bad_member_of_a_stack(where):
    stack = np.full((4, 3, 3), 1.0 / 3.0)
    check_stochastic(stack)
    if where == "bad_row":
        stack[2, 1, 0] += 1e-9  # row 7 counted across the stack
        match = "row 7 sums to"
    else:
        stack[3, 0] = [-1e-9, 0.5, 0.5 + 1e-9]
        match = "entries must lie in"
    with pytest.raises(ValueError, match=match):
        check_stochastic(stack)


def test_kernel_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        FiniteKernel([[np.nan, 1.0], [0.5, 0.5]])


def test_arrays_are_read_only():
    K = identity_kernel(space(3))
    with pytest.raises(ValueError):
        K.matrix[0, 0] = 0.0


def test_compose_mismatched_spaces():
    with pytest.raises(StateSpaceMismatchError):
        compose(identity_kernel(space(2)), identity_kernel(space(["a", "b"])))


# ---- detailed balance ----

def test_identity_is_reversible_for_anything():
    pi = ProbVector([0.2, 0.3, 0.5])
    assert detailed_balance_check(identity_kernel(pi.space), pi).holds


def test_constant_kernel_is_reversible():
    pi = ProbVector([0.2, 0.3, 0.5])
    assert detailed_balance_check(constant_kernel(pi), pi).holds


def test_detailed_balance_witness_locates_violation():
    pi = ProbVector([0.5, 0.5])
    P = FiniteKernel([[0.9, 0.1], [0.3, 0.7]], pi.space)
    cert = detailed_balance_check(P, pi)
    assert not cert.holds
    i, j, gap = cert.witness
    assert {i, j} == {0, 1}
    assert gap == pytest.approx(0.5 * 0.3 - 0.5 * 0.1)


def test_random_reversible_kernel_satisfies_detailed_balance():
    rng = np.random.default_rng(5)
    cases = [random_reversible_kernel(rng, int(rng.integers(2, 7))) for _ in range(10)]
    # K_02 = K_20 = 0: a pair that is never proposed must not make a 0/0 ratio;
    # FiniteKernel refuses NaN and rows that do not sum to 1
    K = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]])
    pi = ProbVector([0.2, 0.3, 0.5])
    cases.append((FiniteKernel(metropolis(K, pi.weights)), pi))
    for P, pi in cases:
        assert detailed_balance_check(P, pi).holds


@pytest.mark.parametrize("n", [3, 12, 64, 200])
def test_random_reversible_kernel_matches_element_loop(n):
    """Same draws and the same per-entry arithmetic as a plain double loop;
    n = 200 exercises numpy's blocked row sums."""
    P, pi = random_reversible_kernel(np.random.default_rng(n), n)
    rng = np.random.default_rng(n)
    w = rng.uniform(0.2, 1.0, size=n)
    p = w / w.sum()
    K = rng.uniform(0.05, 1.0, size=(n, n))
    K /= K.sum(axis=1, keepdims=True)
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                ref[i, j] = K[i, j] * min(1.0, p[j] * K[j, i] / (p[i] * K[i, j]))
        ref[i, i] = 1.0 - ref[i].sum()
    assert np.array_equal(pi.weights, p)
    assert np.array_equal(P.matrix, ref)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_metropolis_stack_equals_random_reversible_kernel(n):
    """One stacked build reproduces each separately drawn kernel bit for bit."""
    seeds = range(6)
    singles = [random_reversible_kernel(np.random.default_rng(s), n) for s in seeds]
    draws = []
    for s in seeds:
        rng = np.random.default_rng(s)
        w = rng.uniform(0.2, 1.0, size=n)
        draws.append((w / w.sum(), rng.uniform(0.05, 1.0, size=(n, n))))
    pi, K = (np.array(column) for column in zip(*draws))
    P = metropolis(K / K.sum(axis=-1, keepdims=True), pi)
    for member, (single, single_pi) in zip(P, singles):
        assert np.array_equal(member, single.matrix)
    assert np.array_equal(pi, np.array([p.weights for _, p in singles]))


# ---- orderings ----

def test_lazy_pair_is_covariance_ordered():
    rng = np.random.default_rng(11)
    P, pi = random_reversible_kernel(rng, 4)
    P0, P1 = lazy_pair(P, 0.4)
    assert covariance_order_check(P0, P1, pi).holds
    # and also off-diagonally, entrywise
    assert off_diagonal_order_check(P0, P1).holds


def test_ordering_is_antisymmetric_unless_equal():
    rng = np.random.default_rng(12)
    P, pi = random_reversible_kernel(rng, 4)
    P0, P1 = lazy_pair(P, 0.4)
    assert not covariance_order_check(P1, P0, pi).holds
    assert not off_diagonal_order_check(P1, P0).holds


def test_off_diagonal_domination_implies_covariance_order():
    """Dominance in off-diagonal mass implies the quadratic-form ordering."""
    rng = np.random.default_rng(13)
    for _ in range(25):
        P, pi = random_reversible_kernel(rng, int(rng.integers(2, 6)))
        P0, P1 = lazy_pair(P, float(rng.uniform(0.1, 0.9)))
        assert off_diagonal_order_check(P0, P1).holds
        assert covariance_order_check(P0, P1, pi).holds


def test_covariance_order_requires_reversible_inputs():
    pi = ProbVector([0.5, 0.5])
    P = FiniteKernel([[0.9, 0.1], [0.3, 0.7]], pi.space)  # not reversible
    with pytest.raises(NotReversibleError):
        covariance_order_check(P, identity_kernel(pi.space), pi)


def test_covariance_order_witness_is_negative_eigenvalue():
    sp, pi = two_state()
    flip = FiniteKernel([[0.0, 1.0], [1.0, 0.0]], sp)
    cert = covariance_order_check(flip, identity_kernel(sp), pi)
    assert not cert.holds
    assert cert.witness < 0


def test_covariance_order_matches_quadratic_form_sampling():
    """Cross-check the PSD decision against 200 random quadratic forms."""
    rng = np.random.default_rng(17)
    P, pi = random_reversible_kernel(rng, 5)
    P0, P1 = lazy_pair(P, 0.3)
    for _ in range(200):
        f = FunctionVector(rng.normal(size=5), pi.space)
        assert lag_one_autocov(P1, pi, f) <= lag_one_autocov(P0, pi, f) + 1e-10


# ---- small algebra helpers ----

def test_compose_matches_matrix_product():
    rng = np.random.default_rng(23)
    P, pi = random_reversible_kernel(rng, 3)
    Q, _ = random_reversible_kernel(rng, 3, pi=pi)
    PQ = compose(P, Q)
    assert np.allclose(PQ.matrix, P.matrix @ Q.matrix, atol=1e-12)


def test_inner_product_and_lag_one():
    sp, pi = two_state()
    f = FunctionVector([-1.0, 1.0], sp)
    assert _inner(pi, f.values, f.values) == pytest.approx(1.0)
    assert lag_one_autocov(identity_kernel(sp), pi, f) == pytest.approx(1.0)
    assert lag_one_autocov(constant_kernel(pi), pi, f) == pytest.approx(0.0)
