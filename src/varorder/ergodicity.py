"""V-geometric ergodicity certificates on finite state spaces.

The geometric constants (C, rho) are fitted numerically: rho is the
second-largest eigenvalue modulus plus a fixed margin, C is maximized over
states and horizons so the fitted pair satisfies the V-norm decay bound by
construction.  The summability certificate then checks the covariance bounds
that justify the absolute-summability condition of the alternating-chain
variance comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import FiniteKernel, FunctionVector, ProbVector

RHO_MARGIN = 1e-6
DEFAULT_N_MAX = 200
NOISE_FLOOR = 1e-13


class GeometricFitError(ValueError):
    """No geometric decay: a nontrivial eigenvalue has modulus (close to) 1."""


def v_norm_distance(mu: np.ndarray, V: FunctionVector) -> float | np.ndarray:
    """V-norm of a finite signed measure, or of each row of mu: sum_x |mu_x| V(x)."""
    if np.any(V.values < 1.0):
        raise ValueError("V must be >= 1 entrywise")
    return np.sum(np.abs(np.asarray(mu, dtype=float)) * V.values, axis=-1)


def drift_check(P: FiniteKernel, V: FunctionVector, lam: float) -> tuple[bool, float]:
    """Minimal b such that PV <= lam V + b; holds unless b is non-finite."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if np.any(V.values < 1.0):
        raise ValueError("V must be >= 1 entrywise")
    b = max(0.0, float(np.max(P.matrix @ V.values - lam * V.values)))
    return bool(np.isfinite(b)), b


def _slem(P: FiniteKernel) -> float:
    """Second-largest eigenvalue modulus; errors when 1 is not simple."""
    eigs = np.linalg.eigvals(P.matrix)
    near_one = np.abs(eigs - 1.0) < 1e-9
    if int(near_one.sum()) != 1:
        raise GeometricFitError("eigenvalue 1 is not simple (reducible kernel)")
    rest = np.abs(eigs[~near_one])
    return float(rest.max()) if rest.size else 0.0


def geometric_bound_fit(P: FiniteKernel, pi: ProbVector, V: FunctionVector,
                        n_max: int = DEFAULT_N_MAX) -> tuple[float, float]:
    """Fit (C, rho) with ||P^n(x,.) - pi||_V <= C rho^n V(x) for n <= n_max."""
    slem = _slem(P)
    if slem >= 1.0 - 1e-9:
        raise GeometricFitError(f"second eigenvalue modulus {slem:.12f} too close to 1")
    if np.any(V.values < 1.0):
        raise ValueError("V must be >= 1 entrywise")
    rho = slem + RHO_MARGIN
    C = 0.0
    Pn = np.eye(P.size)
    for step in range(n_max + 1):
        dist = np.sum(np.abs(Pn - pi.weights) * V.values, axis=-1)  # V-norm per start x
        live = dist > NOISE_FLOOR  # rows converged to float round-off would inflate C
        if live.any():
            C = max(C, float(np.max(dist[live] / (rho ** step * V.values[live]))))
        Pn = Pn @ P.matrix
    return max(C, 1.0), rho


@dataclass(frozen=True)
class DriftCertificate:
    V: FunctionVector
    lam: float
    b: float
    C: float
    rho: float

    def to_document(self) -> dict:
        return {"V": self.V.values.tolist(), "lambda": self.lam, "b": self.b,
                "C": self.C, "rho": self.rho}


def fit_certificate(P: FiniteKernel, pi: ProbVector, V: FunctionVector,
                    lam: float = 0.9, n_max: int = DEFAULT_N_MAX) -> DriftCertificate:
    holds, b = drift_check(P, V, lam)
    if not holds:
        raise GeometricFitError("drift bound is non-finite")
    C, rho = geometric_bound_fit(P, pi, V, n_max=n_max)
    return DriftCertificate(V=V, lam=lam, b=b, C=C, rho=rho)


@dataclass(frozen=True)
class SummabilityReport:
    certificate: DriftCertificate
    f_vhalf_norm: float
    pf_vhalf_norm: float
    scale: float
    max_bound_slack: float  # min over lags of (bound - |cov|); >= 0 when holds
    holds: bool

    def to_document(self) -> dict:
        return {"certificate": self.certificate.to_document(),
                "f_vhalf_norm": self.f_vhalf_norm,
                "pf_vhalf_norm": self.pf_vhalf_norm,
                "scale": self.scale,
                "max_bound_slack": self.max_bound_slack,
                "holds": self.holds}


def summability_certificate(P: FiniteKernel, Q: FiniteKernel, pi: ProbVector,
                            f: FunctionVector, V: FunctionVector,
                            n_horizon: int = 50,
                            n_max: int = DEFAULT_N_MAX) -> SummabilityReport:
    """Verify the four geometric covariance bounds of the alternating chain
    against exactly computed covariances.

    The bounds are stated for centered f with |f|_{V^{1/2}} <= 1 and
    |Pf|_{V^{1/2}} <= 1; general f is rescaled and the scale reported.
    """
    if np.any(V.values < 1.0):
        raise ValueError("V must be >= 1 entrywise")
    PQ = FiniteKernel(P.matrix @ Q.matrix, P.space)
    cert = fit_certificate(PQ, pi, V, n_max=n_max)
    fbar = f.values - float(np.sum(pi.weights * f.values))
    vhalf = np.sqrt(V.values)
    f_norm = float(np.max(np.abs(fbar) / vhalf))
    pf_norm = float(np.max(np.abs(P.matrix @ fbar) / vhalf))
    scale = max(f_norm, pf_norm, 1e-300)
    g = fbar / scale
    piV = float(np.sum(pi.weights * V.values))
    C, rho = cert.C, cert.rho

    def cov(vec_left: np.ndarray, vec_right: np.ndarray) -> float:
        return abs(float(np.sum(pi.weights * vec_left * vec_right)))

    A = PQ.matrix
    slack = np.inf
    # X0-anchored: lag 2n -> g (PQ)^n g, lag 2n+1 -> g (PQ)^n P g
    vec = g.copy()
    vec_p = P.matrix @ g
    for n in range(n_horizon + 1):
        bound = (2.0 * C * rho ** n) ** 0.5 * piV
        if n >= 1:
            slack = min(slack, bound - cov(g, vec))
        slack = min(slack, bound - cov(g, vec_p))
        vec = A @ vec
        vec_p = A @ vec_p
    # X1-anchored: X1 ~ pi; lag 2n -> g Q(PQ)^{n-1} g, lag 2n+1 -> g Q(PQ)^{n-1} P g
    vec = g.copy()
    vec_p = P.matrix @ g
    for n in range(1, n_horizon + 1):
        bound = (2.0 * C * rho ** (n - 1)) ** 0.5 * piV
        slack = min(slack, bound - cov(g, Q.matrix @ vec))
        slack = min(slack, bound - cov(g, Q.matrix @ vec_p))
        vec = A @ vec
        vec_p = A @ vec_p
    return SummabilityReport(certificate=cert, f_vhalf_norm=f_norm,
                             pf_vhalf_norm=pf_norm, scale=scale,
                             max_bound_slack=float(slack),
                             holds=bool(slack >= -1e-12))
