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
                        n_max: int = DEFAULT_N_MAX) -> tuple[float, float, int]:
    """Fit (C, rho) with ||P^n(x,.) - pi||_V <= C rho^n V(x) wherever that
    distance is above NOISE_FLOOR, for n up to the returned horizon: the first
    step at which no row of P^n - Pi is above the floor (n_max if some row is
    still live there).  Stopping there loses nothing: row x of P^{n+1} = P P^n
    is a convex combination of the rows of P^n, so max_x ||P^n(x,.) - pi||_V
    never increases with n, and once every row is at the floor none can rise
    in exact arithmetic.  A later rise in floating point is round-off (the
    stored rows sum to 1 only to within ~1e-16, and P^n compounds that),
    which is what the floor ignores.
    """
    slem = _slem(P)
    if slem >= 1.0 - 1e-9:
        raise GeometricFitError(f"second eigenvalue modulus {slem:.12f} too close to 1")
    if np.any(V.values < 1.0):
        raise ValueError("V must be >= 1 entrywise")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rho = slem + RHO_MARGIN
    C = 0.0
    Pn = np.eye(P.size)
    for step in range(n_max + 1):
        dist = np.sum(np.abs(Pn - pi.weights) * V.values, axis=-1)  # V-norm per start x
        live = dist > NOISE_FLOOR  # rows converged to float round-off would inflate C
        if not live.any():
            break
        C = max(C, float(np.max(dist[live] / (rho ** step * V.values[live]))))
        Pn = Pn @ P.matrix
    return max(C, 1.0), rho, step


@dataclass(frozen=True)
class DriftCertificate:
    V: FunctionVector
    lam: float
    b: float
    C: float
    rho: float
    horizon: int  # step at which the geometric fit stopped

    def to_document(self) -> dict:
        return {"V": self.V.values.tolist(), "lambda": self.lam, "b": self.b,
                "C": self.C, "rho": self.rho, "horizon": self.horizon}


def fit_certificate(P: FiniteKernel, pi: ProbVector, V: FunctionVector,
                    lam: float = 0.9, n_max: int = DEFAULT_N_MAX) -> DriftCertificate:
    holds, b = drift_check(P, V, lam)
    if not holds:
        raise GeometricFitError("drift bound is non-finite")
    C, rho, horizon = geometric_bound_fit(P, pi, V, n_max=n_max)
    return DriftCertificate(V=V, lam=lam, b=b, C=C, rho=rho, horizon=horizon)


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

    # one pass of matvecs: orbit[n] = ((PQ)^n g, (PQ)^n P g) and q_orbit[n] = Q orbit[n]
    orbit = np.empty((n_horizon + 1, 2, g.size))
    q_orbit = np.empty((n_horizon, 2, g.size))
    orbit[0] = g, P.matrix @ g
    for n in range(n_horizon):
        q_orbit[n] = Q.matrix @ orbit[n, 0], Q.matrix @ orbit[n, 1]
        orbit[n + 1] = PQ.matrix @ orbit[n, 0], PQ.matrix @ orbit[n, 1]
    pig = pi.weights * g
    bound = (2.0 * C * rho ** np.arange(n_horizon + 1)) ** 0.5 * piV
    # X0-anchored: lag 2n -> g (PQ)^n g (n >= 1), lag 2n+1 -> g (PQ)^n P g
    x0 = bound[:, None] - np.abs(np.sum(pig * orbit, axis=-1))
    x0[0, 0] = np.inf
    # X1-anchored, X1 ~ pi: lags 2n, 2n+1 -> g Q (PQ)^{n-1} (g, P g) for n >= 1
    x1 = bound[:-1, None] - np.abs(np.sum(pig * q_orbit, axis=-1))
    slack = min(x0.min(), x1.min(initial=np.inf))
    return SummabilityReport(certificate=cert, f_vhalf_norm=f_norm,
                             pf_vhalf_norm=pf_norm, scale=scale,
                             max_bound_slack=float(slack),
                             holds=bool(slack >= -1e-12))
