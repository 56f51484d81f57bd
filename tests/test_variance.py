"""Asymptotic variance: closed forms against independent oracles.

The closed-form solves are validated three ways: against the textbook
spectral formula on two states, against the truncated covariance series,
and against brute-force Monte Carlo on a seeded chain.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from varorder.ergodicity import fit_certificate
from varorder.kernels import (ENTRY_TOL, SPECTRAL_TOL, FiniteKernel,
                              FunctionVector, ProbVector, StateSpace,
                              constant_kernel, detailed_balance_check,
                              identity_kernel, metropolis)
from varorder.variance import (CG_MAX_ITERATIONS, CG_MIN_STATES, CG_TARGET,
                               EIGENVALUE_ONE_TOL, SPECTRAL_MARGIN,
                               AlternatingModel, ReducibleChainError,
                               SummabilityError, VarianceReport,
                               _doeblin_bound, _doeblin_coefficient,
                               _fundamental_solve, _self_adjoint_probe,
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
                                          (3e-10, False), (1e-12, False),
                                          (2e-8, True), (1e-8, True)])
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


def gate_kernel(kind, n, rng, delta=0.0):
    """A random pi-reversible Metropolis kernel and its pi: "dense" (every
    entry positive), "sparse" (a cycle of neighbours: zero column minima for
    n >= 4) or "near_reducible" (two dense halves coupled by proposals of
    weight delta)."""
    w = rng.uniform(0.2, 1.0, size=n)
    pi = w / w.sum()
    proposal = rng.uniform(0.05, 1.0, size=(n, n))
    if kind == "sparse":
        i = np.arange(n)
        ring = np.isin((i[:, None] - i[None, :]) % n, (1, n - 1))
        proposal = np.where(ring, proposal, 0.0)
    elif kind == "near_reducible":
        half = np.arange(n) < n // 2
        proposal = np.where(half[:, None] == half[None, :], proposal, delta)
    return metropolis(proposal / proposal.sum(axis=1, keepdims=True), pi), pi


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("stationary_u", [False, True])
@pytest.mark.parametrize("kind", ["dense", "sparse", "near_reducible"])
def test_doeblin_certificate_bounds_the_inverse_and_keeps_the_gate(kind, stationary_u,
                                                                   transposed):
    """Wherever _doeblin_bound certifies Z = I - M + 1 u^T, the exact
    ||Z^{-1}||_1 is at most B; elsewhere the gate reports that norm.  On every
    kernel, in both orientations, the gate accepts exactly when the norm is
    at most 1 / EIGENVALUE_ONE_TOL, and an accepted solution agrees with
    np.linalg.solve to a relative 1e-12 (the same LU factors; only the
    triangular solves round differently)."""
    rng = np.random.default_rng(17 + stationary_u)
    paths = []
    for n in (4, 17, 64, 256):
        for delta in ((1e-2, 1e-6, 1e-9, 1e-13) if kind == "near_reducible" else (0.0,)):
            M, pi = gate_kernel(kind, n, rng, delta)
            u = pi if stationary_u else np.full(n, 1.0 / n)
            Z = u[None, :] - M
            Z[np.arange(n), np.arange(n)] += 1.0
            A = Z.T if transposed else Z
            rhs = rng.normal(size=(n, 1))  # one column, as asvar_homogeneous passes
            norm = np.linalg.norm(np.linalg.inv(Z), 1)
            K = FiniteKernel(M)
            bound = _doeblin_bound(n, K.doeblin_coefficient)
            certified = bound <= 0.5 / EIGENVALUE_ONE_TOL
            if certified:
                assert norm <= bound, (n, delta)
            try:
                x, gate = _fundamental_solve(K, u, rhs, transposed)
                accepted = True
            except ReducibleChainError:
                accepted = False
            assert accepted == (norm <= 1.0 / EIGENVALUE_ONE_TOL), (n, delta)
            if accepted:
                assert gate["gate"] == ("doeblin" if certified else "exact")
                if not certified:  # rounding of order cond(Z) <= 1.2e9 ulps
                    assert gate["inverse_norm"] == pytest.approx(norm, rel=1e-6, abs=0)
                reference = np.linalg.solve(A, rhs)
                assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))
            paths.append((certified, accepted))
    fired = [c for c, _ in paths]
    if kind == "dense":
        assert all(fired)
    elif kind == "sparse":
        assert not any(fired)
    else:  # the couplings reach all three outcomes
        assert {(True, True), (False, True), (False, False)} <= set(paths)


def test_certified_gate_factorises_once(solves):
    """A kernel with a Doeblin minorisation costs one np.linalg.solve per gated
    call: a dense 64-state kernel, and the two-state gate-boundary kernel at
    eps = 2e-8 (B ~ 6 / eps = 3e8 <= 5e8).  stationary_distribution of such a
    kernel makes none when it is reversible (the certified detailed-balance
    ratios) and one when it is not (the product of two pi-reversible kernels).
    At eps = 1e-8 (B ~ 6e8) and on a lazy cyclic walk (zero column minima) the
    gate computes the exact norm, still in one solve; the walk matches an
    inverse-based reference."""
    P, pi = random_reversible_kernel(np.random.default_rng(64), 64)
    f = FunctionVector(np.random.default_rng(1).normal(size=64), P.space)
    assert solves(lambda: stationary_distribution(P)) == 0
    assert solves(lambda: asvar_homogeneous(P, pi, f)) == 1
    Q, _ = random_reversible_kernel(np.random.default_rng(65), 64, pi)
    PQ = FiniteKernel(P.matrix @ Q.matrix)
    assert not detailed_balance_check(PQ, pi).holds
    assert _doeblin_bound(64, PQ.doeblin_coefficient) <= 0.5 / EIGENVALUE_ONE_TOL
    assert solves(lambda: stationary_distribution(PQ)) == 1
    assert np.max(np.abs(stationary_distribution(PQ).weights - pi.weights)) <= 1e-12
    K = FiniteKernel([[1.0 - 2e-8, 2e-8], [2e-8, 1.0 - 2e-8]])
    assert solves(lambda: stationary_distribution(K)) == 0
    K = FiniteKernel([[1.0 - 1e-8, 1e-8], [1e-8, 1.0 - 1e-8]])
    assert solves(lambda: stationary_distribution(K)) == 1

    n = 16
    i = np.arange(n)
    lazy = 0.5 * np.eye(n) + 0.25 * np.isin((i[:, None] - i[None, :]) % n, (1, n - 1))
    P, pi = FiniteKernel(lazy), ProbVector(np.full(n, 1.0 / n))
    f = FunctionVector(np.sin(i) + i, P.space)
    assert solves(lambda: stationary_distribution(P)) == 1
    assert np.max(np.abs(stationary_distribution(P).weights - pi.weights)) <= 1e-12
    assert solves(lambda: asvar_homogeneous(P, pi, f)) == 1
    fbar = f.values - f.values.mean()
    g = np.linalg.inv(np.eye(n) - lazy + 1.0 / n) @ lazy @ fbar
    assert asvar_homogeneous(P, pi, f).value == pytest.approx(
        np.mean(fbar ** 2) + 2.0 * np.mean(fbar * g), rel=1e-12, abs=0)


def record_kernels():
    """The gate_kernel inputs (n = 4, 17, 64, 512; couplings 1e-2 to 1e-13 for
    the near-reducible kind) and two-state kernels with eps = 10^-k for
    k = 0-13, each with its pi."""
    rng = np.random.default_rng(83)
    for kind in ("dense", "sparse", "near_reducible"):
        for n in (4, 17, 64, 512):
            for delta in ((1e-2, 1e-6, 1e-9, 1e-13) if kind == "near_reducible" else (0.0,)):
                M, pi = gate_kernel(kind, n, rng, delta)
                yield FiniteKernel(M), ProbVector(pi)
    for eps in np.logspace(0, -13, 14):
        yield (FiniteKernel([[1.0 - eps / 2, eps / 2], [eps / 2, 1.0 - eps / 2]]),
               ProbVector([0.5, 0.5]))


def test_kernel_record_matches_the_raw_array_path(monkeypatch):
    """A FiniteKernel's Doeblin coefficient is _doeblin_coefficient's, bit for
    bit, for u uniform and u = pi.  stationary_distribution and
    asvar_homogeneous, which read the record, return the values, exceptions
    and gate records they return with the record recomputed from the matrix
    on every read, as before the record existed."""
    def outcome(call):
        try:
            return call()
        except (ReducibleChainError, ReducibleKernelError) as exc:
            return type(exc)

    def runs(kernels):
        laws, reports, solvers = [], [], []
        for K, pi in kernels:
            f = FunctionVector(np.sin(np.arange(K.size)), K.space)
            laws.append(outcome(lambda: stationary_distribution(K).weights))
            report = outcome(lambda: asvar_homogeneous(K, pi, f))
            if isinstance(report, VarianceReport):
                solvers.append(report.diagnostics["solver"])
                report = (report.value, report.diagnostics)
            else:
                assert report == ReducibleChainError
            reports.append(report)
        return laws, reports, solvers

    cases = list(record_kernels())
    for K, pi in cases:
        for u in (np.full(K.size, 1.0 / K.size), pi.weights):
            assert K.doeblin_coefficient == float(_doeblin_coefficient(K.matrix, u))
    recorded, reports, solvers = runs(cases)
    assert {"lu", "cg"} <= set(solvers)
    monkeypatch.setattr(FiniteKernel, "column_minima",
                        property(lambda K: K.matrix.min(axis=0)))
    monkeypatch.setattr(FiniteKernel, "doeblin_coefficient", property(
        lambda K: float(_doeblin_coefficient(K.matrix, np.full(K.size, 1.0 / K.size)))))
    recomputed, recomputed_reports, _ = runs(cases)
    assert reports == recomputed_reports
    assert {a if isinstance(a, type) else type(a) for a in recorded} == {ReducibleKernelError,
                                                                         np.ndarray}
    for a, b in zip(recorded, recomputed):
        assert a == b if isinstance(a, type) else np.array_equal(a, b)


@pytest.mark.parametrize("n", [3, 12, 64])
@pytest.mark.parametrize("k", [1, 5, 20])
def test_homogeneous_stack_matches_per_function_calls(n, k):
    rng = np.random.default_rng(100 * n + k)
    P, pi = random_reversible_kernel(rng, n)
    F = rng.normal(size=(k, n))
    values, var_f, _ = asvar_homogeneous_stack(P, pi, F)
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
        asvar_homogeneous_stack(FiniteKernel(P), ProbVector([0.5, 0.5]), F)


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_homogeneous_stack_accepts_the_near_reducible_kernels_the_gate_admits(eps):
    P = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
    F = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0]])
    values = asvar_homogeneous_stack(FiniteKernel(P), ProbVector([0.5, 0.5]), F)[0]
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
    assert alternating_partial_sum_variance(m, n)[n] / n == pytest.approx(v, rel=0.02)


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
        bound = asvar_alternating(AlternatingModel(P, Q, pi, f)).diagnostics[
            "spectral_radius_bound"]
        assert max(rho_pq, rho_qp) <= bound + SPECTRAL_TOL
        assert bound < 1.0 - SPECTRAL_MARGIN


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
    values, bound, certified = asvar_alternating_stack(P, Q, pi, f)
    assert values.shape == bound.shape == certified.shape == (3, 4)
    for k, (Pk, Qk, pik, fk) in enumerate(members):
        sp = StateSpace(range(5))
        report = asvar_alternating(AlternatingModel(
            FiniteKernel(Pk, sp), FiniteKernel(Qk, sp), ProbVector(pik, sp),
            FunctionVector(fk, sp)))
        assert values.flat[k] == pytest.approx(report.value, rel=1e-14, abs=0)
        assert bound.flat[k] == pytest.approx(report.diagnostics["spectral_radius_bound"],
                                              rel=1e-14, abs=0)
        assert report.diagnostics["gate"] == ("doeblin" if certified.flat[k] else "eigvals")


def test_stack_containing_the_flip_pair_raises_summability_error():
    rng = np.random.default_rng(47)
    P, Q, pi, f = random_pair_arrays(rng, 2)
    flip = toys.flip_kernel().matrix
    with pytest.raises(SummabilityError) as info:
        asvar_alternating_stack(np.stack([P, flip]), np.stack([Q, flip]),
                                np.stack([pi, [0.5, 0.5]]), np.stack([f, [-1.0, 1.0]]))
    assert info.value.spectral_radius >= 1.0 - 1e-9


class SquareProducts(np.ndarray):
    """An array whose matmuls count the square-by-square matrix products
    they make (every member of a stack counts), in SquareProducts.count; the
    arrays computed from it, by ufuncs or functions such as np.stack, are
    SquareProducts too."""

    count = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, SquareProducts) else x
                 for x in inputs]
        shapes = [np.shape(x) for x in plain]
        if ufunc is np.matmul and all(len(s) >= 2 and s[-2] == s[-1] > 1 for s in shapes):
            SquareProducts.count += int(np.prod(np.broadcast_shapes(
                *(s[:-2] for s in shapes)), dtype=int))
        return self._wrap(getattr(ufunc, method)(*plain, **kwargs))

    def __array_function__(self, func, types, args, kwargs):
        return self._wrap(super().__array_function__(func, types, args, kwargs))

    @staticmethod
    def _wrap(out):
        return out.view(SquareProducts) if type(out) is np.ndarray else out


@pytest.mark.parametrize("stack", [(), (3,), (2, 2)])
def test_alternating_stack_factorises_once_and_forms_no_qp(solves, stack):
    """One np.linalg.solve per call, and one n x n product per member (PQ),
    for a single pair and for stacks, on the Doeblin and the eigvals gate."""
    rng = np.random.default_rng(79)
    size = int(np.prod(stack, dtype=int))
    for n, ring in ((5, False), (8, True)):
        members = []
        for _ in range(size):
            P, Q, pi, f = random_pair_arrays(rng, n)
            if ring:
                P, Q, pi = lazy_ring(n, 0.3), lazy_ring(n, 0.6), np.full(n, 1.0 / n)
            members.append((P, Q, pi, f))
        P, Q, pi, f = (np.array(column).reshape(*stack, *column[0].shape)
                       for column in zip(*members))
        SquareProducts.count = 0
        out = []
        assert solves(lambda: out.append(asvar_alternating_stack(
            P.view(SquareProducts), Q.view(SquareProducts), pi, f))) == 1
        assert SquareProducts.count == size
        values, _, certified = (np.asarray(x) for x in out[0])
        assert values.shape == stack and np.all(certified != ring)
        assert np.all(np.abs(values - oracles.asvar_alternating_two_systems(P, Q, pi, f))
                      <= 1e-12 * values)


def eigvals_gate(P, Q, pi):
    """The gate without a certificate: the centered spectral radius of every
    member's PQ from np.linalg.eigvals, the product formed as
    asvar_alternating_stack forms it."""
    D = np.stack([P, Q], axis=-3)
    PQ = (D @ D[..., ::-1, :, :])[..., 0, :, :]
    return np.max(np.abs(np.linalg.eigvals(PQ - pi[..., None, :])), axis=-1)


def lazy_ring(n, lazy):
    i = np.arange(n)
    ring = np.isin((i[:, None] - i[None, :]) % n, (1, n - 1))
    return lazy * np.eye(n) + 0.5 * (1.0 - lazy) * ring


def test_doeblin_gate_bounds_the_spectral_radius():
    """Wherever the alternating gate certifies a member, its bound is
    1 - eps for PQ's Doeblin coefficient eps and caps the deflated rho from
    eigvals.  Dense random pairs, lazy quadruples (n = 2-12) and the 256-state
    refresh/freeze pair are all certified."""
    rng = np.random.default_rng(71)
    cases = []
    for n in range(2, 13):
        P0, P1, Q0, Q1, pi, f = toys.lazy_quadruples(
            [toys.lazy_quadruple_draws(rng, n) for _ in range(20)])
        cases.append((np.stack([P0, P1]), np.stack([Q0, Q1]), pi, f))
    for n in (2, 5, 17, 64):
        cases.append(tuple(np.array(column) for column in
                           zip(*(random_pair_arrays(rng, n) for _ in range(4)))))
    P, Q, pi = random_refresh_freeze_pair(rng, 16, 16)
    cases.append((P.matrix, Q.matrix, pi.weights, np.ones(256)))
    for P, Q, pi, f in cases:
        _, bound, certified = asvar_alternating_stack(P, Q, pi, f)
        assert np.all(certified), P.shape
        pis = np.broadcast_to(pi, bound.shape + pi.shape[-1:])
        assert bound == pytest.approx(1.0 - _doeblin_coefficient(P @ Q, pis), rel=0, abs=1e-14)
        assert np.all(eigvals_gate(P, Q, pi) <= bound + SPECTRAL_TOL), P.shape


def gate_inputs(name):
    """(P, Q, pi, f) arrays on which the certificate is open or fires."""
    rng = np.random.default_rng(73)
    flip, uniform = toys.flip_kernel().matrix, np.array([0.5, 0.5])
    if name == "flip":
        return flip, flip, uniform, np.array([-1.0, 1.0])
    if name == "sparse_ring":  # PQ has zero column minima
        return lazy_ring(16, 0.5), lazy_ring(16, 0.3), np.full(16, 1.0 / 16), np.sin(np.arange(16))
    if name == "rows_off_one":  # row 0 sums to 1 + 1e-8; pi_0 = 1e-4 keeps pi invariant
        pi = np.array([1e-4, 0.3, 0.3, 0.4 - 1e-4])
        proposal = rng.uniform(0.05, 1.0, (4, 4))
        P = metropolis(proposal / proposal.sum(axis=1, keepdims=True), pi)
        P[0] *= 1.0 + 1e-8
        return P, P.T * pi[None, :] / pi[:, None], pi, rng.normal(size=4)
    if name == "pi_not_a_law":  # pi 1 = 2 moves the eigenvalue 1 of PQ to -1
        P, Q, pi, f = random_pair_arrays(rng, 3)
        return P, Q, 2.0 * pi, f
    if name.startswith("two_state"):  # PQ = K with rho = 1 - e and Doeblin eps = e
        e = float(name.split("_")[-1])
        K = np.array([[1.0 - e / 2, e / 2], [e / 2, 1.0 - e / 2]])
        return K, np.eye(2), uniform, np.array([0.0, 1.0])
    if name == "stack_with_flip":
        P, Q, pi, f = random_pair_arrays(rng, 2)
        return (np.stack([P, flip]), np.stack([Q, flip]), np.stack([pi, uniform]),
                np.stack([f, [-1.0, 1.0]]))
    assert name == "stack_with_ring"
    members = [random_pair_arrays(rng, 16), gate_inputs("sparse_ring"), random_pair_arrays(rng, 16)]
    return tuple(np.array(column) for column in zip(*members))


@pytest.mark.parametrize("name", ["flip", "sparse_ring", "rows_off_one", "pi_not_a_law",
                                  "two_state_3e-9", "two_state_1.5e-9", "two_state_5e-10",
                                  "stack_with_flip", "stack_with_ring"])
def test_doeblin_gate_decides_as_eigvals_does(name):
    """The certified gate accepts and raises exactly where the eigvals-only
    gate does, with the same spectral_radius when it raises and the exact rho
    of every member the certificate leaves open."""
    P, Q, pi, f = gate_inputs(name)
    rho = eigvals_gate(P, Q, pi)
    if np.any(rho >= 1.0 - SPECTRAL_MARGIN):
        with pytest.raises(SummabilityError) as info:
            asvar_alternating_stack(P, Q, pi, f)
        assert info.value.spectral_radius == float(np.max(rho))
        return
    _, bound, certified = asvar_alternating_stack(P, Q, pi, f)
    assert np.array_equal(bound[~certified], rho[~certified])
    assert np.all(rho <= bound + SPECTRAL_TOL) and np.all(bound < 1.0 - SPECTRAL_MARGIN)
    expected = {"sparse_ring": [False], "rows_off_one": [False], "two_state_3e-9": [True],
                "two_state_1.5e-9": [False], "stack_with_ring": [True, False, True]}[name]
    assert np.array_equal(np.ravel(certified), expected)


def test_certified_alternating_gate_skips_eigvals(monkeypatch):
    """No eigensolve on the dense 256-state refresh/freeze pair; the flip pair
    and a sparse ring still run one, and each report names its gate."""
    eigvals, calls = np.linalg.eigvals, []

    def counting_eigvals(*args):
        calls.append(1)
        return eigvals(*args)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    P, Q, pi = random_refresh_freeze_pair(np.random.default_rng(79), 16, 16)
    report = asvar_alternating(AlternatingModel(P, Q, pi, FunctionVector(np.ones(256), pi.space)))
    assert len(calls) == 0 and report.diagnostics["gate"] == "doeblin"
    with pytest.raises(SummabilityError):
        asvar_alternating_stack(*gate_inputs("flip"))
    assert len(calls) >= 1
    calls.clear()
    sp = StateSpace(range(16))
    P, Q, pi, f = gate_inputs("sparse_ring")
    report = asvar_alternating(AlternatingModel(FiniteKernel(P, sp), FiniteKernel(Q, sp),
                                                ProbVector(pi, sp), FunctionVector(f, sp)))
    assert len(calls) == 1 and report.diagnostics["gate"] == "eigvals"


def test_homogeneous_report_names_its_gate():
    """asvar_homogeneous reports the ||Z^-1||_1 figure its gate used: the
    Doeblin cap B (an upper bound) on a dense kernel, the exact norm on a
    lazy ring with zero column minima."""
    P, pi = random_reversible_kernel(np.random.default_rng(83), 64)
    f = FunctionVector(np.cos(np.arange(64)), P.space)
    ring = FiniteKernel(lazy_ring(16, 0.5))
    for K, law, g, gate in ((P, pi, f, "doeblin"),
                            (ring, ProbVector(np.full(16, 1.0 / 16)),
                             FunctionVector(np.sin(np.arange(16)), ring.space), "exact")):
        report = asvar_homogeneous(K, law, g)
        assert report.diagnostics["gate"] == gate
        n = K.size
        Z = np.eye(n) - K.matrix + law.weights[None, :]
        norm = np.linalg.norm(np.linalg.inv(Z), 1)
        figure = report.diagnostics["inverse_norm"]
        if gate == "doeblin":
            assert figure == _doeblin_bound(n, K.doeblin_coefficient) and norm <= figure
        else:
            assert figure == pytest.approx(norm, rel=1e-12, abs=0)


def lu_values(K, law, F):
    """asvar_homogeneous_stack's values by its LU route: one gated solve."""
    pi = law.weights
    fbar = F - np.sum(pi * F, axis=-1, keepdims=True)
    g, _ = _fundamental_solve(K, pi, K.matrix @ fbar.T)
    w = pi * fbar
    return np.maximum(np.sum(w * fbar, axis=-1) + 2.0 * np.sum(w * g.T, axis=-1), 0.0)


def test_homogeneous_report_names_its_solver():
    """Below CG_MIN_STATES the report names the LU solve; a certified
    reversible kernel at CG_MIN_STATES names CG, its iterations and its
    certified error bound."""
    for n, solver in ((64, "lu"), (CG_MIN_STATES, "cg")):
        P, pi = random_reversible_kernel(np.random.default_rng(n), n)
        report = asvar_homogeneous(P, pi, FunctionVector(np.cos(np.arange(n)), P.space))
        d = report.diagnostics
        assert d["gate"] == "doeblin" and d["solver"] == solver
        if solver == "cg":
            assert 0 < d["iterations"] <= CG_MAX_ITERATIONS
            assert 0.0 < d["error_bound"] <= CG_TARGET
        else:
            assert "iterations" not in d and "error_bound" not in d


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("k", [1, 3])
def test_conjugate_gradient_route_matches_lu(solves, n, k):
    """A certified reversible kernel at n >= CG_MIN_STATES takes CG with no
    np.linalg.solve; its values lie within the reported bound and within
    1e-12 of the LU route's, and the gate record is the LU route's."""
    P, pi = random_reversible_kernel(np.random.default_rng(10 * n + k), n)
    F = np.random.default_rng(k).normal(size=(k, n))
    out = {}
    assert solves(lambda: out.update(r=asvar_homogeneous_stack(P, pi, F))) == 0
    values, _, gate = out["r"]
    reference = lu_values(P, pi, F)
    assert gate["solver"] == "cg" and gate["error_bound"] <= CG_TARGET
    assert gate["gate"] == "doeblin"
    assert gate["inverse_norm"] == _doeblin_bound(n, P.doeblin_coefficient)
    assert np.all(np.abs(values - reference) <= gate["error_bound"])
    assert np.all(np.abs(values - reference) <= 1e-12)


def test_conjugate_gradient_route_on_constant_functions():
    """Constant rows, alone or stacked with a non-constant one, get v = 0 (to
    the rounding of their centring) on the CG route without a RuntimeWarning
    (warnings fail the suite)."""
    n = CG_MIN_STATES
    P, pi = random_reversible_kernel(np.random.default_rng(5), n)
    for F in (np.ones((1, n)), np.zeros((1, n)),
              np.vstack([np.full(n, 2.5), np.sin(np.arange(n)), np.zeros(n)])):
        values, _, gate = asvar_homogeneous_stack(P, pi, F)
        assert gate["solver"] == "cg"
        constant = np.ptp(F, axis=1) == 0.0
        assert np.all(values[constant] <= 1e-30) and np.all(values[~constant] > 0.1)
        assert np.all(np.abs(values - lu_values(P, pi, F)) <= 1e-12)


def ring_with_teleport(n):
    """pi-uniform and reversible with eps = 0.1, but CG needs about 75
    iterations: a ring walk mixed with a 0.1 jump to a uniform state."""
    i = np.arange(n)
    return 0.1 / n + 0.45 * np.isin((i[:, None] - i[None, :]) % n, (1, n - 1))


@pytest.mark.parametrize("case", ["product", "lazy", "slow", "many_functions"])
def test_conjugate_gradient_falls_back_to_lu_bits(monkeypatch, case):
    """Certified kernels at n >= CG_MIN_STATES that CG does not serve return
    the LU route's bits: a non-reversible product P Q (the probe rejects it);
    the lazy 0.99 I + 0.01 P (eps ~ 6e-4: the target is below a few ulps);
    a teleporting ring that needs more than CG_MAX_ITERATIONS; and more
    functions than n / CG_STATES_PER_FUNCTION."""
    n = 1024 if case in ("product", "lazy") else CG_MIN_STATES
    P, law = random_reversible_kernel(np.random.default_rng(71), n)
    pi, k = law.weights, 20 if case == "many_functions" else 1
    if case == "product":
        Q, _ = random_reversible_kernel(np.random.default_rng(72), n, law)
        M = P.matrix @ Q.matrix
    elif case == "lazy":
        M = 0.99 * np.eye(n) + 0.01 * P.matrix
        assert 5e-4 < _doeblin_coefficient(M, pi) < 1e-3
    elif case == "slow":
        M, pi = ring_with_teleport(n), np.full(n, 1.0 / n)
    else:
        M = P.matrix
    assert _self_adjoint_probe(M, pi) == (case != "product")
    F = np.random.default_rng(73).normal(size=(k, n))
    K, law = FiniteKernel(M), ProbVector(pi)
    values, _, gate = asvar_homogeneous_stack(K, law, F)
    assert gate == {"gate": "doeblin", "inverse_norm": _doeblin_bound(n, K.doeblin_coefficient),
                    "solver": "lu"}
    assert np.array_equal(values, lu_values(K, law, F))
    if case == "slow":  # the cap, not the target, sent it to LU
        monkeypatch.setattr("varorder.variance.CG_MAX_ITERATIONS", 200)
        assert asvar_homogeneous_stack(K, law, F)[2]["solver"] == "cg"


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
    # ProbVector refuses NaN, so the law is a bare holder of the weights
    calls = {"homogeneous": lambda: asvar_homogeneous_stack(FiniteKernel(P),
                                                            SimpleNamespace(weights=pi),
                                                            f[None, :]),
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
    assert alternating_partial_sum_variance(m, n)[n] == quadratic_partial_sum_variance(m, n)
    rng = np.random.default_rng(59)
    for size in (2, 3, 6):
        P, pi = random_reversible_kernel(rng, size)
        Q, _ = random_reversible_kernel(rng, size, pi=pi)
        m = AlternatingModel(P, Q, pi, FunctionVector(rng.normal(size=size), pi.space))
        assert alternating_partial_sum_variance(m, n)[n] == pytest.approx(
            quadratic_partial_sum_variance(m, n), rel=1e-12, abs=0)


def test_partial_sum_prefixes_match_the_quadratic_reference():
    flip = toys.flip_kernel()
    m = AlternatingModel(flip, flip, toys.uniform_two_state(), toys.identity_function())
    prefixes = alternating_partial_sum_variance(m, 41)
    assert prefixes.tolist() == [quadratic_partial_sum_variance(m, n) for n in range(42)]
    rng = np.random.default_rng(61)
    P, pi = random_reversible_kernel(rng, 5)
    Q, _ = random_reversible_kernel(rng, 5, pi=pi)
    m = AlternatingModel(P, Q, pi, FunctionVector(rng.normal(size=5), pi.space))
    prefixes = alternating_partial_sum_variance(m, 41)
    assert prefixes[0] == 0.0
    for n in range(1, 42):
        assert prefixes[n] == pytest.approx(quadratic_partial_sum_variance(m, n),
                                            rel=1e-12, abs=0)
        assert prefixes[n] == alternating_partial_sum_variance(m, n)[n]


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


@pytest.mark.parametrize("batch_count", [1, 0, -3])
def test_batch_means_requires_two_batches(batch_count):
    """One batch leaves no spread to estimate: a ValueError, not a
    ZeroDivisionError from the batch_count - 1 denominator."""
    with pytest.raises(ValueError, match="at least 2"):
        batch_means_variance(np.arange(1000.0), batch_count=batch_count)


def test_variance_report_validates():
    with pytest.raises(ValueError):
        VarianceReport(value=1.0, method="guesswork")
    with pytest.raises(ValueError):
        VarianceReport(value=-1.0, method="closed_form")
