"""V-geometric ergodicity certificates on finite state spaces.

The geometric constants (C, rho) come in closed form from one L2(pi) norm,
so they bound the V-norm decay at every step, not only over a fitted range:
rho is the L2(pi) norm of P - Pi (the square root of the second eigenvalue
of the multiplicative reversibilization P P*, Fill 1991), and C turns the
entrywise bound it gives into a V-norm bound.  The summability certificate
then checks the covariance bounds that justify the absolute-summability
condition of the alternating-chain variance comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import FiniteKernel, FunctionVector, ProbVector
from .variance import SPECTRAL_MARGIN, alternating_autocov, check_invariant, l2_norm

SLACK_TOL = 1e-12  # a covariance may exceed its bound by this much


class GeometricFitError(ValueError):
    """No geometric decay: the L2(pi) norm of P - Pi is (close to) 1."""


class UndecidableHorizonError(ValueError):
    """The bound at the horizon is at most SLACK_TOL: the check could not fail."""


def drift_check(P: FiniteKernel, V: FunctionVector, lam: float) -> tuple[bool, float]:
    """Minimal b such that PV <= lam V + b; holds unless b is non-finite."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if np.any(V.values < 1.0):
        raise ValueError("V must be >= 1 entrywise")
    b = max(0.0, float(np.max(P.matrix @ V.values - lam * V.values)))
    return bool(np.isfinite(b)), b


@dataclass(frozen=True)
class DriftCertificate:
    V: FunctionVector
    lam: float
    b: float
    C: float
    rho: float  # L2(pi) norm of P - Pi

    def to_document(self) -> dict:
        return {"V": self.V.values.tolist(), "lambda": self.lam, "b": self.b,
                "C": self.C, "rho": self.rho}


def fit_certificate(P: FiniteKernel, pi: ProbVector, V: FunctionVector,
                    lam: float = 0.9) -> DriftCertificate:
    """Drift constants plus (C, rho) with ||P^n(x,.) - pi||_V <= C rho^n V(x)
    for every n >= 0, for a kernel P that leaves pi invariant.

    With D = diag(pi), rho is the spectral norm of A = D^{1/2} (P - Pi) D^{-1/2}
    (the root of the top eigenvalue of A^T A).  For n >= 1, P^n - Pi =
    (P - Pi)^n, so |P^n(x,y) - pi(y)| <= rho^n sqrt(pi(y)/pi(x)); at n = 0 the
    same holds because pi(x) pi(y) <= 1.  Summing against V gives
    C = max_x sum_y sqrt(pi(y)/pi(x)) V(y)/V(x).  A product of pi-reversible
    kernels has rho <= 1, and rho is at least the second-largest eigenvalue
    modulus, so rho < 1 - SPECTRAL_MARGIN rejects reducible and periodic P.
    """
    holds, b = drift_check(P, V, lam)
    if not holds:
        raise GeometricFitError("drift bound is non-finite")
    check_invariant(pi.weights, P.matrix, "P")
    rho = float(l2_norm(P.matrix, pi.weights))
    if not rho < 1.0 - SPECTRAL_MARGIN:
        raise GeometricFitError(f"L2(pi) norm of P - Pi is {rho:.12f}, not below 1")
    weighted = np.sqrt(pi.weights) * V.values
    C = float(np.sum(weighted) / np.min(weighted))
    return DriftCertificate(V=V, lam=lam, b=b, C=C, rho=rho)


@dataclass(frozen=True)
class SummabilityReport:
    certificate: DriftCertificate
    f_vhalf_norm: float
    pf_vhalf_norm: float
    scale: float
    min_bound_slack: float  # min over lags of (bound - |cov|); >= -SLACK_TOL when holds
    min_relative_slack: dict  # min of 1 - |cov| / bound: {"value", "lag", "parity"}
    holds: bool

    def to_document(self) -> dict:
        return {"certificate": self.certificate.to_document(),
                "f_vhalf_norm": self.f_vhalf_norm,
                "pf_vhalf_norm": self.pf_vhalf_norm,
                "scale": self.scale,
                "min_bound_slack": self.min_bound_slack,
                "min_relative_slack": self.min_relative_slack,
                "holds": self.holds}


def summability_certificate(P: FiniteKernel, Q: FiniteKernel, pi: ProbVector,
                            f: FunctionVector, V: FunctionVector,
                            n_horizon: int = 50) -> SummabilityReport:
    """Verify the four geometric covariance bounds of the alternating chain
    against exactly computed covariances, with fit_certificate's constants
    for P Q, pi and V.

    The bounds are stated for centered f with |f|_{V^{1/2}} <= 1 and
    |Pf|_{V^{1/2}} <= 1; general f is rescaled and the scale reported.  Lag
    l >= 1 from start parity p meets bound (l - p) // 2, up to l = 2 n_horizon + 1 - p.
    A horizon whose bound is at most SLACK_TOL raises UndecidableHorizonError,
    naming the last lag whose bound exceeds it, before any covariance is computed.
    """
    if n_horizon < 0:
        raise ValueError(f"n_horizon must be >= 0, got {n_horizon}")
    cert = fit_certificate(FiniteKernel(P.matrix @ Q.matrix, P.space), pi, V)
    piV = float(np.sum(pi.weights * V.values))
    bound = (2.0 * cert.C * cert.rho ** np.arange(n_horizon + 1)) ** 0.5 * piV
    if not bound[-1] > SLACK_TOL:  # bound decreases from bound[0] >= sqrt(2) > SLACK_TOL
        raise UndecidableHorizonError(
            f"horizon must be <= {np.count_nonzero(bound > SLACK_TOL) - 1}, got {n_horizon}: "
            f"past it the covariance bounds fall below {SLACK_TOL}")
    fbar = f.values - float(np.sum(pi.weights * f.values))
    vhalf = np.sqrt(V.values)
    f_norm = float(np.max(np.abs(fbar) / vhalf))
    pf_norm = float(np.max(np.abs(P.matrix @ fbar) / vhalf))
    scale = max(f_norm, pf_norm, 1e-300)
    g = fbar / scale
    last = 2 * n_horizon + 1
    cov = alternating_autocov(P.matrix, Q.matrix, pi.weights, g, last + 1)[1:]
    lag, parity = np.arange(1, last + 1)[:, None], np.arange(2)
    met, within = bound[(lag - parity) // 2], lag <= last - parity
    slack = np.min(met - np.abs(cov), where=within, initial=np.inf)
    ratio = np.divide(np.abs(cov), met, out=np.full(cov.shape, -np.inf), where=within)
    at = np.unravel_index(np.argmax(ratio), ratio.shape)
    return SummabilityReport(certificate=cert, f_vhalf_norm=f_norm,
                             pf_vhalf_norm=pf_norm, scale=scale,
                             min_bound_slack=float(slack),
                             min_relative_slack={"value": 1.0 - float(ratio[at]),
                                                 "lag": int(at[0]) + 1, "parity": int(at[1])},
                             holds=bool(slack >= -SLACK_TOL))
