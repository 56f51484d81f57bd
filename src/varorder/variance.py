"""Asymptotic variance of finite chains: closed forms, series oracle, estimators.

The closed forms cover homogeneous chains and chains alternating between two
kernels; the truncated-series routine is an independent oracle for the
alternating closed form, and the batch-means estimator works on raw traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernels import FiniteKernel, FunctionVector, ProbVector, _require_same_space

INVARIANCE_TOL = 1e-12
EIGENVALUE_ONE_TOL = 1e-9
SPECTRAL_MARGIN = 1e-9

VALID_METHODS = ("closed_form", "truncated_series", "batch_means")


class ReducibleChainError(ValueError):
    """The centered operator has an eigenvalue at 1: stationary behavior not unique."""


class SummabilityError(ValueError):
    """The absolute-summability precondition fails (spectral radius too close to 1)."""

    def __init__(self, message: str, spectral_radius: float):
        super().__init__(message)
        self.spectral_radius = spectral_radius


@dataclass(frozen=True)
class VarianceReport:
    value: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in VALID_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.value < -1e-10:
            raise ValueError(f"asymptotic variance {self.value!r} is negative")


def check_invariant(pi: np.ndarray, K: np.ndarray, name: str) -> None:
    """ValueError unless pi K = pi within INVARIANCE_TOL (a NaN residual fails),
    for kernels K (..., n, n) and laws pi (..., n) with broadcastable stacks."""
    rows = pi[..., None, :]
    resid = np.max(np.abs(rows @ K - rows))
    if not resid <= INVARIANCE_TOL:
        raise ValueError(f"pi is not invariant for {name} (residual {resid:.3e})")


@dataclass(frozen=True)
class AlternatingModel:
    """A chain applying P at even steps and Q at odd steps, started from pi."""

    P: FiniteKernel
    Q: FiniteKernel
    pi: ProbVector
    f: FunctionVector

    def __post_init__(self):
        _require_same_space(self.P, self.Q)
        for name, K in (("P", self.P), ("Q", self.Q)):
            check_invariant(self.pi.weights, K.matrix, name)


def l2_norm(K: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """L2(pi) operator norm of K - 1 pi^T for kernels K (..., n, n) and positive
    laws pi (..., n): the largest singular value of D^{1/2} (K - 1 pi^T) D^{-1/2}
    with D = diag(pi), the root of the top eigenvalue of A^T A."""
    root = np.sqrt(pi)
    A = root[..., :, None] * (K - pi[..., None, :]) / root[..., None, :]
    return np.sqrt(np.linalg.eigvalsh(np.swapaxes(A, -1, -2) @ A)[..., -1])


def _centered(f: FunctionVector, pi: ProbVector) -> np.ndarray:
    return f.values - float(np.sum(pi.weights * f.values))


def _solve_with_norm_estimate(Z: np.ndarray, b: np.ndarray,
                              transposed: bool) -> tuple[np.ndarray, float]:
    """Solve Z x = b (Z^T x = b if transposed); estimate ||Z^{-1}||_1.

    Hager's estimator with LAPACK dlacn2's alternating-sign probe (the pair
    behind gecon).  Its start 1/n is a fixed point, Z 1 = 1, so the first step
    needs only a Z^T solve; b rides along with the first solve on its side.
    """
    n = Z.shape[0]
    zb = np.linalg.solve(Z.T, np.column_stack([np.ones(n)] + ([b] if transposed else [])))
    j = int(np.argmax(np.abs(zb[:, 0])))
    ramp = 1.0 + np.arange(n) / max(n - 1, 1)
    probes = [np.eye(1, n, j)[0], np.where(np.arange(n) % 2 == 0, ramp, -ramp)]
    yb = np.linalg.solve(Z, np.column_stack(probes + ([] if transposed else [b])))
    y, est = yb[:, 0], max(1.0, 2.0 * float(np.sum(np.abs(yb[:, 1]))) / (3.0 * n))
    for _ in range(4):  # dlacn2's cap of five steps
        est = max(est, float(np.sum(np.abs(y))))
        z = np.linalg.solve(Z.T, np.where(y >= 0.0, 1.0, -1.0))
        if np.max(np.abs(z)) <= z[j]:  # optimality test at x = e_j
            break
        j = int(np.argmax(np.abs(z)))
        y = np.linalg.solve(Z, np.eye(1, n, j)[0])
    x = zb[:, 1:] if transposed else yb[:, 2:]
    return x, max(est, float(np.sum(np.abs(y))))


def _fundamental_solve(M: np.ndarray, u: np.ndarray, rhs: np.ndarray,
                       transposed: bool = False, check_condition: bool = True) -> np.ndarray:
    """Solve Z x = rhs (Z^T x = rhs if transposed) for Z = I - M + 1 u^T.

    For u summing to 1, Z is singular exactly when the eigenvalue 1 of the
    stochastic M is not simple.  ReducibleChainError when LAPACK finds Z
    singular, x is not finite, or (check_condition, for callers that have not
    bounded the spectrum of M away from 1) ||Z^{-1}||_1 is estimated above
    1 / EIGENVALUE_ONE_TOL.  Without check_condition, M (..., n, n), u
    (..., n) and rhs (..., n, k) may carry leading stack axes.
    """
    n = M.shape[-1]
    Z = u[..., None, :] - M
    Z[..., np.arange(n), np.arange(n)] += 1.0
    try:
        if check_condition:
            x, est = _solve_with_norm_estimate(Z, np.reshape(rhs, (n, -1)), transposed)
        else:
            x, est = np.linalg.solve(np.swapaxes(Z, -1, -2) if transposed else Z, rhs), 0.0
    except np.linalg.LinAlgError as exc:
        raise ReducibleChainError(f"I - M + 1u^T is singular ({exc})") from exc
    if not (est <= 1.0 / EIGENVALUE_ONE_TOL and np.all(np.isfinite(x))):
        raise ReducibleChainError(f"eigenvalue 1 is not simple: ||Z^-1||_1 ~ {est:.3e}")
    return x.reshape(np.shape(rhs))


def _inner(pi: ProbVector, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(pi.weights * a * b))


def asvar_homogeneous_stack(P: np.ndarray, pi: np.ndarray,
                            F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact asymptotic variances of k functions F (k, n) of one homogeneous
    chain P (n, n) with stationary pi (n,); returns (values, variance_of_f).

    v = pi fbar^2 + 2 <fbar, g> with (I - P + 1 pi^T) g = P fbar: one gated
    solve, a column per function.  ReducibleChainError when its ||.^-1||_1
    estimate exceeds 1 / EIGENVALUE_ONE_TOL (eigenvalue 1 of P not simple).
    """
    check_invariant(pi, P, "P")
    fbar = F - np.sum(pi * F, axis=-1, keepdims=True)
    g = _fundamental_solve(P, pi, P @ fbar.T)
    w = pi * fbar
    var_f = np.sum(w * fbar, axis=-1)
    return np.maximum(var_f + 2.0 * np.sum(w * g.T, axis=-1), 0.0), var_f


def asvar_homogeneous(P: FiniteKernel, pi: ProbVector, f: FunctionVector) -> VarianceReport:
    """Exact asymptotic variance of a homogeneous chain: asvar_homogeneous_stack for one f."""
    (value,), (var_f,) = asvar_homogeneous_stack(P.matrix, pi.weights, f.values[None, :])
    return VarianceReport(value=float(value), method="closed_form",
                          diagnostics={"variance_of_f": float(var_f)})


def asvar_alternating_stack(P, Q, pi, f) -> tuple[np.ndarray, np.ndarray]:
    """Exact asymptotic variances of a stack of alternating P,Q,P,Q,... chains.

    P, Q: (..., n, n) and pi, f: (..., n) with broadcastable leading axes;
    returns (values, rho) of the leading shape.  PQ - 1 pi^T is
    (P - 1 pi^T)(Q - 1 pi^T) and QP - 1 pi^T the reverse product, so one
    spectrum per member gives the centered spectral radius rho of both.
    ValueError when pi is not invariant for some P or Q; SummabilityError
    (worst rho) when some rho >= 1 - SPECTRAL_MARGIN.
    """
    D = np.stack([P, Q], axis=-3)
    check_invariant(pi[..., None, :], D, "some P or Q")
    pi_rows = pi[..., None, None, :]  # the rows of 1 pi^T, against (..., 2, n, n)
    M = D @ D[..., ::-1, :, :]  # PQ and QP
    rho = np.max(np.abs(np.linalg.eigvals(M[..., 0, :, :] - pi[..., None, :])), axis=-1)
    if np.any(rho >= 1.0 - SPECTRAL_MARGIN):
        worst = float(np.max(rho))
        raise SummabilityError(
            f"absolute-summability condition fails: centered spectral radius {worst:.12f}",
            spectral_radius=worst)
    fbar = f - np.sum(pi * f, axis=-1, keepdims=True)
    # X_0 series: lags 2n -> <fbar, A^n fbar> (n>=1), 2n+1 -> <fbar, A^n P fbar> (n>=0)
    # for A = PQ; X_1 series likewise with B = QP and Q.  Each geometric tail is one
    # column of one stacked solve; rho < 1 keeps Z away from singular: no estimate.
    fcol = fbar[..., None, :, None]
    rhs = np.concatenate([(M - pi_rows) @ fcol, (D - pi_rows) @ fcol], axis=-1)
    tails = _fundamental_solve(M, pi[..., None, :], rhs, check_condition=False)
    w = pi * fbar
    values = np.sum(w * fbar, axis=-1) + np.einsum("...i,...aib->...", w, tails)
    return np.maximum(values, 0.0), rho


def asvar_alternating(m: AlternatingModel) -> VarianceReport:
    """Exact asymptotic variance of the alternating P,Q,P,Q,... chain: one
    member of asvar_alternating_stack."""
    value, rho = asvar_alternating_stack(m.P.matrix, m.Q.matrix, m.pi.weights, m.f.values)
    return VarianceReport(value=float(value), method="closed_form",
                          diagnostics={"spectral_radius": float(rho)})


def alternating_autocov(P: np.ndarray, Q: np.ndarray, pi: np.ndarray,
                        fbar: np.ndarray, n: int) -> np.ndarray:
    """cov[l, p] = Cov(f(X_i), f(X_{i+l})) for lags l < n and start parity
    p = i mod 2 of the alternating P,Q,P,Q,... chain from pi, for centered fbar.
    Row p of w is fbar dpi pushed through the l kernels after a start of
    parity p, so each lag is one stacked matmul by (P, Q) or (Q, P)."""
    orders = np.array([[P, Q], [Q, P]])  # lag 2k+1 applies orders[0], lag 2k+2 orders[1]
    w = np.stack([pi * fbar] * 2)[:, None, :]
    cov = np.empty((n, 2))
    for lag in range(n):
        if lag:
            w = w @ orders[(lag - 1) % 2]
        cov[lag] = w[:, 0] @ fbar
    return cov


def truncated_autocov_series(m: AlternatingModel, K: int) -> VarianceReport:
    """Series oracle: both covariance series of alternating_autocov truncated
    at lag K, independent of the linear-solve path in asvar_alternating.

    With sigma the larger L2(pi) norm of PQ - 1 pi^T and QP - 1 pi^T, a lag-l
    covariance is at most sigma^(l // 2) pi(fbar^2) (P and Q are contractions
    of L2(pi), since pi P = pi Q = pi), so the two tails after lag K sum to at
    most 4 sigma^((K + 1) // 2) pi(fbar^2) / (1 - sigma): the remainder bound,
    inf when sigma >= 1."""
    if K < 1:
        raise ValueError("truncation length must be >= 1")
    P, Q, pi = m.P.matrix, m.Q.matrix, m.pi.weights
    cov = alternating_autocov(P, Q, pi, _centered(m.f, m.pi), K + 1)
    var_f = float(cov[0, 0])
    total = var_f + float(cov[1:].sum())
    sigma = float(np.max(l2_norm(np.stack([P @ Q, Q @ P]), pi)))
    remainder = (4.0 * sigma ** ((K + 1) // 2) * var_f / (1.0 - sigma) if sigma < 1.0
                 else float("inf"))
    return VarianceReport(value=max(total, 0.0), method="truncated_series",
                          diagnostics={"truncation": K, "remainder_bound": remainder,
                                       "l2_norm": sigma})


def alternating_partial_sum_variance(m: AlternatingModel, n: int, *,
                                     prefixes: bool = False):
    """Exact Var(S_n), S_n = sum_{k<n} f(X_k), for the alternating chain
    started from pi; with prefixes=True the array [Var(S_0), ..., Var(S_n)]
    from the same pass.

    S_{k+1} adds X_k, whose covariances with the earlier terms are those of
    alternating_autocov at lag l with start parity (k - l) mod 2.  Linear in
    n.  Covers the flip kernel, which sits outside asvar_alternating's
    precondition.
    """
    fbar = _centered(m.f, m.pi)
    cov = alternating_autocov(m.P.matrix, m.Q.matrix, m.pi.weights, fbar, n)
    cov[:1] = 0.0  # lag 0 enters once per term, as the variance below
    k = np.arange(n)
    odd = k % 2
    # X_k meets X_{k-l} at lag l; that start's parity is l's for even k
    same = np.cumsum(cov[k, odd])
    other = np.cumsum(cov[k, 1 - odd])
    added = _inner(m.pi, fbar, fbar) + 2.0 * np.where(odd == 0, same, other)
    variances = np.concatenate([[0.0], np.cumsum(added)])
    return variances if prefixes else float(variances[n])


def batch_means_variance(trace: Sequence[float], batch_count: int = 100) -> VarianceReport:
    """Batch-means estimate of the asymptotic variance from a single trace."""
    x = np.asarray(trace, dtype=float)
    if batch_count < 1:
        raise ValueError("batch count must be positive")
    if x.size < 2 * batch_count:
        raise ValueError("trace too short for the requested batch count")
    blen = x.size // batch_count
    means = x[:blen * batch_count].reshape(batch_count, blen).mean(axis=1)
    sample_var = float(np.var(means))  # ddof 0; the prefactor restores ddof 1
    value = batch_count / (batch_count - 1) * blen * sample_var
    stderr = value * np.sqrt(2.0 / (batch_count - 1))
    return VarianceReport(value=value, method="batch_means",
                          diagnostics={"batch_count": batch_count,
                                       "batch_length": blen,
                                       "standard_error": stderr})

