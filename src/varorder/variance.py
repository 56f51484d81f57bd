"""Asymptotic variance of finite chains: closed forms, series oracle, estimators.

The closed forms cover homogeneous chains and chains alternating between two
kernels; the truncated-series routine is an independent oracle for the
alternating closed form, and the batch-means estimator works on raw traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernels import (ENTRY_TOL, FiniteKernel, FunctionVector, ProbVector,
                      _require_same_space)

INVARIANCE_TOL = 1e-12
EIGENVALUE_ONE_TOL = 1e-9
SPECTRAL_MARGIN = 1e-9

# Conjugate-gradient route of asvar_homogeneous_stack (measured there)
CG_MIN_STATES = 512
CG_STATES_PER_FUNCTION = 128
CG_MAX_ITERATIONS = 32
CG_TARGET = 1e-12

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


def _doeblin_coefficient(M: np.ndarray, u: np.ndarray) -> np.ndarray:
    """eps = sum_y min_x M(x, y), the Doeblin coefficient of kernels M
    (..., n, n), for laws u (..., n) with broadcastable stacks; 0 where eps < 0,
    M is not stochastic or u is not a law, both within ENTRY_TOL.  O(n^2)."""
    column_min = M.min(axis=-2)
    stochastic = ((column_min.min(axis=-1) >= -ENTRY_TOL) & (u.min(axis=-1) >= 0.0)
                  & (np.max(np.abs(M.sum(axis=-1) - 1.0), axis=-1) <= ENTRY_TOL)
                  & (np.abs(u.sum(axis=-1) - 1.0) <= ENTRY_TOL))
    return np.where(stochastic, np.maximum(column_min.sum(axis=-1), 0.0), 0.0)


def _doeblin_bound(n: int, eps: float) -> float:
    """B = 3 n (2 - eps) / eps >= ||Z^{-1}||_1 for Z = I - M + 1 u^T, M a
    stochastic kernel on n states with Doeblin coefficient eps and u a law;
    inf when eps = 0.

    ||M^t(x, .) - pi||_1 <= 2 (1 - eps)^t bounds ||Z_pi^{-1}||_inf by
    (2 - eps) / eps for Z_pi^{-1} = I + sum_{t>=1} (M^t - 1 pi^T); since
    Z_pi 1 = 1 and (u - pi)^T 1 = 0, Sherman-Morrison gives
    Z^{-1} = (I - 1 (u - pi)^T) Z_pi^{-1}, whose first factor has
    ||.||_inf <= 3; and ||.||_1 <= n ||.||_inf.
    """
    return 3.0 * n * (2.0 - eps) / eps if eps > 0.0 else float("inf")


def _fundamental_solve(K: FiniteKernel, u: np.ndarray, rhs: np.ndarray,
                       transposed: bool = False) -> tuple[np.ndarray, dict]:
    """Solve Z x = rhs (Z^T x = rhs if transposed), rhs (n, k), for
    Z = I - M + 1 u^T, M = K.matrix, u a law; returns x and the gate's record
    {"gate": "doeblin", "inverse_norm": B}, B an upper bound on ||Z^{-1}||_1,
    or {"gate": "exact", "inverse_norm": ||Z^{-1}||_1}.

    For u summing to 1, Z is singular exactly when the eigenvalue 1 of the
    stochastic M is not simple.  ReducibleChainError when LAPACK finds Z
    singular, x is not finite, or ||Z^{-1}||_1 exceeds 1 / EIGENVALUE_ONE_TOL.
    The Doeblin bound B = 3 n (2 - eps) / eps of _doeblin_bound, eps off K's
    record, decides when B <= 1 / (2 EIGENVALUE_ONE_TOL) (the factor 1/2 is
    slack for rows summing to 1 only within ENTRY_TOL).  Otherwise (a zero
    column minimum, a near-reducible M) the identity rides along with rhs and
    the norm is read off the inverse: its largest column sum, or row sum when
    transposed.  One factorisation on either path; the n extra columns cost
    about 3-4 LUs (a sparse ring at 256-2048 states).
    """
    M, n = K.matrix, K.size
    Z = u - M
    Z[np.arange(n), np.arange(n)] += 1.0
    bound = _doeblin_bound(n, K.doeblin_coefficient)
    certified = bound <= 0.5 / EIGENVALUE_ONE_TOL
    try:
        x = np.linalg.solve(Z.T if transposed else Z,
                            rhs if certified else np.column_stack([rhs, np.eye(n)]))
    except np.linalg.LinAlgError as exc:
        raise ReducibleChainError(f"I - M + 1u^T is singular ({exc})") from exc
    norm = bound
    if not certified:
        x, inverse = x[:, :-n], x[:, -n:]
        norm = float(np.max(np.abs(inverse).sum(axis=1 if transposed else 0)))
    if not (norm <= 1.0 / EIGENVALUE_ONE_TOL and np.all(np.isfinite(x))):
        raise ReducibleChainError(f"eigenvalue 1 is not simple: ||Z^-1||_1 ~ {norm:.3e}")
    return x, {"gate": "doeblin" if certified else "exact", "inverse_norm": norm}


def _inner(pi: ProbVector, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(pi.weights * a * b))


def _self_adjoint_probe(P: np.ndarray, pi: np.ndarray) -> bool:
    """<a, P b>_pi = <P a, b>_pi within ENTRY_TOL for two fixed vectors with
    entries in [-1, 1]: a pi-reversible P passes; a P that is not almost
    always fails.  Two gemv; an (n, 2) gemm packs P: 0.9 vs 0.35 ms, n = 1024, 2 CPUs."""
    a, b = np.cos(t := np.arange(P.shape[-1])), np.sin(t)
    return abs(pi @ (a * (P @ b) - (P @ a) * b)) <= ENTRY_TOL


def _conjugate_gradient(P: np.ndarray, pi: np.ndarray, rhs: np.ndarray,
                        fbar: np.ndarray, eps: float) -> tuple[np.ndarray, dict] | None:
    """Solve Z g = rhs, Z = I - P + 1 pi^T, a column per function, by
    conjugate gradients in the pi-inner product, stopped by a certificate;
    returns g and {"iterations", "error_bound"}, or None when the certificate
    is out of reach (the caller then factorises).

    For pi-reversible P and pi > 0, Z is self-adjoint and positive definite in
    L2(pi) (Z 1 = 1, and I - P on the pi-centred functions), so CG in that
    inner product applies, at one P-matmat per iteration (Hestenes & Stiefel,
    1952).  Certificate: with the explicit residual r_i = rhs_i - Z g_i,
    g_i - Z^{-1} rhs_i = -Z^{-1} r_i, so |2 <fbar_i, g_i - Z^{-1} rhs_i>_pi|
    <= 2 ||pi fbar_i||_1 C ||r_i||_inf with C = 3 (2 - eps) / eps
    >= ||Z^{-1}||_inf (see _doeblin_bound); g is returned once that bound is at
    most CG_TARGET for every function.  It holds for any stochastic P, so
    reversibility only decides whether CG is worth trying.  As for the
    stationary law, r is the computed residual, whose own rounding is outside
    the bound.  None when the target asks for a residual below 4 ulps of
    ||rhs_i||_inf before iterating, or when it is not met after
    CG_MAX_ITERATIONS iterations; "iterations" counts P-matmats, the CG steps
    and the explicit residuals, and one more may compute the last residual.
    """
    k = rhs.shape[1]
    scale = 2.0 * np.sum(np.abs(pi * fbar), axis=-1) * 3.0 * (2.0 - eps) / eps
    if np.any(scale * 4.0 * np.finfo(float).eps * np.max(np.abs(rhs), axis=0) > CG_TARGET):
        return None
    g, r, iterations = np.zeros_like(rhs), rhs, 0
    while True:
        error = scale * np.max(np.abs(r), axis=0)
        if np.all(error <= CG_TARGET):
            return g, {"iterations": iterations, "error_bound": float(np.max(error))}
        if iterations >= CG_MAX_ITERATIONS:
            return None
        # CG restarted from g on the explicit residual, until the recurrence's
        # residual meets the target; a finished column stops moving (alpha = 0)
        p, rr, active = r, pi @ (r * r), error > CG_TARGET
        while np.any(active) and iterations < CG_MAX_ITERATIONS:
            q = p - P @ p + pi @ p
            iterations += 1
            pq = pi @ (p * q)
            go = active & (pq > 0.0)
            alpha = np.divide(rr, pq, out=np.zeros(k), where=go)
            g = g + alpha * p
            r = r - alpha * q
            rr_next = pi @ (r * r)
            p = r + np.divide(rr_next, rr, out=np.zeros(k), where=go) * p
            rr, active = rr_next, go & (scale * np.max(np.abs(r), axis=0) > CG_TARGET)
        r = rhs - (g - P @ g + pi @ g)
        iterations += 1


def asvar_homogeneous_stack(K: FiniteKernel, law: ProbVector,
                            F: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Exact asymptotic variances of k functions F (k, n) of one homogeneous
    chain P = K.matrix with stationary pi = law.weights; returns (values,
    variance_of_f, gate), gate being the record of the ||.^-1||_1 figure the
    gate used ("gate", "inverse_norm", see _fundamental_solve) and of the
    solver that ran ("solver": "lu" or "cg"; with "cg" also "iterations" and
    "error_bound", the largest certified |v - v_exact| over the functions).

    v = pi fbar^2 + 2 <fbar, g> with (I - P + 1 pi^T) g = P fbar, a column
    per function.  The gate of _fundamental_solve decides first:
    ReducibleChainError when ||(I - P + 1 pi^T)^-1||_1 exceeds
    1 / EIGENVALUE_ONE_TOL (eigenvalue 1 of P not simple), proven below it by
    P's Doeblin bound or else computed exactly.

    CG route, with no factorisation: when the gate certifies P,
    n >= CG_MIN_STATES, k <= n / CG_STATES_PER_FUNCTION, pi > 0 and
    _self_adjoint_probe finds P pi-self-adjoint, _conjugate_gradient solves to
    a certified |v - v_exact| <= CG_TARGET per function, in about 20
    iterations on a dense random reversible kernel.  Measured there (2 CPUs,
    OpenBLAS, median solve time over two runs): 5.1-6.4 against LU's 32-36 ms
    at 1024 states and k = 1, 0.11-0.15 against 0.85-1.08 s at 4096 states
    and k = 1, 0.47-0.69 against 0.91-1.16 s at 4096 states and k = 20.  The
    limits come from the same measurements.  For k >= 2 each iteration is a
    gemm that packs all of P, so its cost grows with k while LU's barely
    does: CG lost at k = 64 at 2048 and 4096 states (n / 32, n / 64), tied
    at k = n / 32 at 512 and 1024, and won at every k <= n / 128 measured
    (at 1024 states and k = 20, just past the limit, 30-34 against 28-40 ms).
    Below 512 states LU takes at most a few ms and CG would save at most
    about 1.5 ms (256 states, k = 1).  At k = n / 128 one LU cost 31-38 CG
    iterations, at k = 1 55-200, so a failed attempt of CG_MAX_ITERATIONS
    costs at most about one LU.

    LU route, for every other input and whenever the certificate is out of
    reach: the one factorisation of _fundamental_solve.
    """
    P, pi, eps = K.matrix, law.weights, K.doeblin_coefficient
    check_invariant(pi, P, "P")
    fbar = F - np.sum(pi * F, axis=-1, keepdims=True)
    rhs = P @ fbar.T
    n, k = rhs.shape
    solved = None
    if (n >= CG_MIN_STATES and k * CG_STATES_PER_FUNCTION <= n
            and (bound := _doeblin_bound(n, eps)) <= 0.5 / EIGENVALUE_ONE_TOL
            and pi.min() > 0.0 and _self_adjoint_probe(P, pi)):
        solved = _conjugate_gradient(P, pi, rhs, fbar, eps)
    if solved is None:
        g, gate = _fundamental_solve(K, pi, rhs)
        gate["solver"] = "lu"
    else:
        g, record = solved
        gate = {"gate": "doeblin", "inverse_norm": bound, "solver": "cg", **record}
    w = pi * fbar
    var_f = np.sum(w * fbar, axis=-1)
    return np.maximum(var_f + 2.0 * np.sum(w * g.T, axis=-1), 0.0), var_f, gate


def asvar_homogeneous(P: FiniteKernel, pi: ProbVector, f: FunctionVector) -> VarianceReport:
    """Exact asymptotic variance of one f: one row of asvar_homogeneous_stack."""
    (value,), (var_f,), gate = asvar_homogeneous_stack(P, pi, f.values[None, :])
    return VarianceReport(value=float(value), method="closed_form",
                          diagnostics={"variance_of_f": float(var_f), **gate})


def asvar_alternating_stack(P, Q, pi, f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact asymptotic variances of a stack of alternating P,Q,P,Q,... chains.

    P, Q: (..., n, n) and pi, f: (..., n) with broadcastable leading axes;
    returns (values, bound, certified) of the leading shape: bound caps the
    centered spectral radius rho of AB = PQ - 1 pi^T, A = P - 1 pi^T and
    B = Q - 1 pi^T, which is also that of BA = QP - 1 pi^T.  ValueError when
    pi is not invariant for some P or Q; SummabilityError, with the worst
    member's rho, when some rho >= 1 - SPECTRAL_MARGIN.

    One LU of Z = I - AB (rho < 1 keeps it nonsingular), one right-hand side:
    the X_0 tails sum to y = Z^-1 A (B fbar + fbar), and by the push-through
    identity (I - BA)^-1 B = B Z^-1 (Henderson & Searle, 1981) with
    Z^-1 = I + Z^-1 AB, the X_1 tails sum to B Z^-1 (A fbar + fbar) = B (fbar + y).

    The gate first takes the Doeblin coefficient eps = sum_y m_y,
    m_y = min_x PQ(x, y), of each member (_doeblin_coefficient, one O(n^2)
    pass).  eps >= 2 SPECTRAL_MARGIN + 2 n ENTRY_TOL proves the member summable
    (certified, bound 1 - eps); the other members (a zero column minimum, rows
    not stochastic or pi not a law within ENTRY_TOL, a tiny eps) run
    np.linalg.eigvals and report their exact rho, so a SummabilityError carries
    the exact rho of the worst member.  Proof, with d = ENTRY_TOL and K = PQ:
    for mu (K - 1 pi^T) = lambda mu, |mu|_1 = 1, s = mu 1, multiplying by 1
    gives s (lambda + pi 1 - 1) = mu (K 1 - 1), so |s| <= 4 d when
    |lambda| >= 1/2.  K = 1 m^T + R with R >= 0 of row sums <= 1 + d - eps, so
    lambda mu = mu R + s (m - pi)^T and, as |m|_1 + |pi|_1 <= 3 (n d <= 1/4),
    |lambda| <= 1 - eps + 13 d.  (For exactly stochastic K this is Dobrushin's
    rho <= 1 - eps; pi's invariance is not used.)  The threshold exceeds
    SPECTRAL_MARGIN + 13 d by at least 0.9 SPECTRAL_MARGIN, and the argument
    holds for any K moved by that little, such as eigvals' backward error, so a
    certified member also passes the eigvals test: both gates decide alike.
    """
    for name, K in (("some P", P), ("some Q", Q)):
        check_invariant(pi, K, name)
    PQ = P @ Q
    pis = np.broadcast_to(pi, PQ.shape[:-1])
    eps = _doeblin_coefficient(PQ, pis)
    certified = eps >= 2.0 * SPECTRAL_MARGIN + 2.0 * PQ.shape[-1] * ENTRY_TOL
    bound, open_ = np.where(certified, 1.0 - eps, 0.0), ~certified
    if np.any(open_):
        bound[open_] = np.max(np.abs(np.linalg.eigvals(PQ[open_] - pis[open_][..., None, :])),
                              axis=-1)
    if np.any(bound >= 1.0 - SPECTRAL_MARGIN):
        worst = float(np.max(bound))
        raise SummabilityError(
            f"absolute-summability condition fails: centered spectral radius {worst:.12f}",
            spectral_radius=worst)
    fbar = f - np.sum(pi * f, axis=-1, keepdims=True)
    pi_rows, fcol = pi[..., None, :], fbar[..., :, None]
    B = Q - pi_rows
    y = np.linalg.solve(np.eye(PQ.shape[-1]) - (PQ - pi_rows),
                        (P - pi_rows) @ (B @ fcol + fcol))
    w = pi * fbar
    values = np.sum(w * (fbar + (y + B @ (fcol + y))[..., 0]), axis=-1)
    return np.maximum(values, 0.0), bound, certified


def asvar_alternating(m: AlternatingModel) -> VarianceReport:
    """Exact asymptotic variance of the alternating P,Q,P,Q,... chain: one
    member of asvar_alternating_stack."""
    value, bound, certified = asvar_alternating_stack(m.P.matrix, m.Q.matrix,
                                                      m.pi.weights, m.f.values)
    return VarianceReport(value=float(value), method="closed_form",
                          diagnostics={"spectral_radius_bound": float(bound),
                                       "gate": "doeblin" if certified else "eigvals"})


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


def alternating_partial_sum_variance(m: AlternatingModel, n: int) -> np.ndarray:
    """Exact [Var(S_0), ..., Var(S_n)], S_k = sum_{j<k} f(X_j), for the
    alternating chain started from pi; Var(S_n) alone is the last entry.

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
    return np.concatenate([[0.0], np.cumsum(added)])


def batch_means_variance(trace: Sequence[float], batch_count: int = 100) -> VarianceReport:
    """Batch-means estimate of the asymptotic variance from a single trace;
    at least two batches, since the sample variance of the batch means
    divides by batch_count - 1."""
    x = np.asarray(trace, dtype=float)
    if batch_count < 2:
        raise ValueError("batch count must be at least 2")
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

