"""Asymptotic variance of finite chains: closed forms, series oracle, estimators.

The closed forms cover homogeneous chains and chains alternating between two
kernels; the truncated-series routine is an independent oracle for the
alternating closed form, and the batch-means / autocovariance estimators work
on raw traces.
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

    def to_document(self) -> dict:
        return {"value": self.value, "method": self.method,
                "diagnostics": dict(self.diagnostics)}


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
            resid = np.max(np.abs(self.pi.weights @ K.matrix - self.pi.weights))
            if resid > INVARIANCE_TOL:
                raise ValueError(f"pi is not invariant for {name} (residual {resid:.3e})")


def _centered(f: FunctionVector, pi: ProbVector) -> np.ndarray:
    return f.values - float(np.sum(pi.weights * f.values))


def _deflate(M: np.ndarray, pi: ProbVector) -> np.ndarray:
    """Remove the constant direction: replaces the eigenvalue 1 of M by 0."""
    return M - np.outer(np.ones(M.shape[0]), pi.weights)


def centered_spectral_radius(M: np.ndarray, pi: ProbVector) -> float:
    """Spectral radius of a pi-stationary kernel matrix on the centered subspace."""
    return float(np.max(np.abs(np.linalg.eigvals(_deflate(M, pi)))))


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
    1 / EIGENVALUE_ONE_TOL.
    """
    n = M.shape[0]
    Z = u - M
    Z[np.diag_indices(n)] += 1.0
    b = np.reshape(rhs, (n, -1))
    try:
        if check_condition:
            x, est = _solve_with_norm_estimate(Z, b, transposed)
        else:
            x, est = np.linalg.solve(Z.T if transposed else Z, b), 0.0
    except np.linalg.LinAlgError as exc:
        raise ReducibleChainError(f"I - M + 1u^T is singular ({exc})") from exc
    if not (est <= 1.0 / EIGENVALUE_ONE_TOL and np.all(np.isfinite(x))):
        raise ReducibleChainError(f"eigenvalue 1 is not simple: ||Z^-1||_1 ~ {est:.3e}")
    return x.reshape(np.shape(rhs))


def _inner(pi: ProbVector, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(pi.weights * a * b))


def asvar_homogeneous(P: FiniteKernel, pi: ProbVector, f: FunctionVector) -> VarianceReport:
    """Exact asymptotic variance of a homogeneous pi-stationary chain.

    Uses v = pi fbar^2 + 2 <fbar, g> with (I - P + 1 pi^T) g = P fbar, one
    gated solve: ReducibleChainError when its ||.^-1||_1 estimate exceeds
    1 / EIGENVALUE_ONE_TOL (the eigenvalue 1 of P is not simple).
    """
    resid = np.max(np.abs(pi.weights @ P.matrix - pi.weights))
    if resid > INVARIANCE_TOL:
        raise ValueError(f"pi is not invariant for P (residual {resid:.3e})")
    fbar = _centered(f, pi)
    g = _fundamental_solve(P.matrix, pi.weights, P.matrix @ fbar)
    value = _inner(pi, fbar, fbar) + 2.0 * _inner(pi, fbar, g)
    return VarianceReport(value=max(value, 0.0), method="closed_form",
                          diagnostics={"variance_of_f": _inner(pi, fbar, fbar)})


def asvar_alternating(m: AlternatingModel) -> VarianceReport:
    """Exact asymptotic variance of the alternating P,Q,P,Q,... chain.

    The two covariance series (anchored at X_0 and at X_1) are split into
    even/odd lags and each geometric tail is resolved by one linear solve.
    """
    A = m.P.matrix @ m.Q.matrix
    B = m.Q.matrix @ m.P.matrix
    rho = max(centered_spectral_radius(A, m.pi), centered_spectral_radius(B, m.pi))
    if rho >= 1.0 - SPECTRAL_MARGIN:
        raise SummabilityError(
            f"absolute-summability condition fails: centered spectral radius {rho:.12f}",
            spectral_radius=rho)
    fbar = _centered(m.f, m.pi)
    # X_0 series: lags 2n -> <fbar, A^n fbar> (n>=1), 2n+1 -> <fbar, A^n P fbar> (n>=0);
    # X_1 series: lags 2n -> <fbar, B^n fbar> (n>=1), 2n+1 -> <fbar, B^n Q fbar> (n>=0).
    # rho < 1 already keeps both solves away from singular: no condition estimate.
    tails = [_fundamental_solve(C, m.pi.weights,
                                np.column_stack([_deflate(C, m.pi) @ fbar,
                                                 _deflate(D, m.pi) @ fbar]),
                                check_condition=False)
             for C, D in ((A, m.P.matrix), (B, m.Q.matrix))]
    value = sum((_inner(m.pi, fbar, t) for tail in tails for t in tail.T),
                _inner(m.pi, fbar, fbar))
    return VarianceReport(value=max(value, 0.0), method="closed_form",
                          diagnostics={"spectral_radius": rho})


def truncated_autocov_series(m: AlternatingModel, K: int) -> VarianceReport:
    """Series oracle: both covariance series truncated at lag K.

    Independent of the linear-solve path in asvar_alternating; the reported
    remainder bound is the geometric tail 4 rho^K pi(fbar^2) / (1 - rho).
    """
    if K < 1:
        raise ValueError("truncation length must be >= 1")
    A = _deflate(m.P.matrix @ m.Q.matrix, m.pi)
    B = _deflate(m.Q.matrix @ m.P.matrix, m.pi)
    Pd = _deflate(m.P.matrix, m.pi)
    Qd = _deflate(m.Q.matrix, m.pi)
    fbar = _centered(m.f, m.pi)
    var_f = _inner(m.pi, fbar, fbar)
    total = var_f
    # running vectors A^n fbar, B^n fbar and A^n P fbar, B^n Q fbar
    va, vb = fbar.copy(), fbar.copy()
    vpa, vqb = Pd @ fbar, Qd @ fbar
    for lag in range(1, K + 1):
        if lag % 2 == 1:  # lag 2n+1 terms (PQ)^n P fbar and (QP)^n Q fbar
            total += _inner(m.pi, fbar, vpa) + _inner(m.pi, fbar, vqb)
        else:
            va, vb = A @ va, B @ vb
            vpa, vqb = A @ vpa, B @ vqb
            total += _inner(m.pi, fbar, va) + _inner(m.pi, fbar, vb)
    rho = max(float(np.max(np.abs(np.linalg.eigvals(A)))),
              float(np.max(np.abs(np.linalg.eigvals(B)))))
    if rho < 1.0:
        remainder = 4.0 * rho ** K * var_f / (1.0 - rho)
    else:
        remainder = float("inf")
    return VarianceReport(value=max(total, 0.0), method="truncated_series",
                          diagnostics={"truncation": K, "remainder_bound": remainder,
                                       "spectral_radius": rho})


def alternating_partial_sum_variance(m: AlternatingModel, n: int) -> float:
    """Exact Var(sum_{k<n} f(X_k)) for the alternating chain, by enumeration.

    Quadratic in n; intended for desk-scale counterexample checks (the flip
    kernel sits outside asvar_alternating's summability precondition).
    """
    fbar = _centered(m.f, m.pi)
    var_f = _inner(m.pi, fbar, fbar)
    total = n * var_f
    kernels = [m.P.matrix, m.Q.matrix]
    for i in range(n):
        w = m.pi.weights * fbar  # signed measure fbar dpi propagated forward
        for j in range(i + 1, n):
            w = w @ kernels[(j - 1) % 2]
            total += 2.0 * float(w @ fbar)
    return total


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


def empirical_autocov(trace: Sequence[float], lag: int) -> float:
    """Sample covariance between trace[:n-lag] and trace[lag:]."""
    x = np.asarray(trace, dtype=float)
    if lag < 0 or lag >= x.size:
        raise ValueError("lag out of range")
    a, b = x[:x.size - lag], x[lag:]
    return float(np.mean(a * b) - np.mean(a) * np.mean(b))
