"""Randomized MCMC (involution-based) and generalized multiple-try Metropolis,
with their exact reductions to the systematic-refreshment embedding."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .exactify import FiniteAugmentedModel
from .kernels import FiniteKernel, StateSpace
from .samplers import BlockDraws, DensityError, _gen, choice_cdf


@dataclass(frozen=True)
class RmcmcModel:
    """r-MCMC ingredients: target, proposal rcheck on Y, auxiliary proposal
    scheck on U = R^d, and a continuously differentiable involution with its
    Jacobian determinant."""

    log_pi_star: Callable[[Any], float]
    rcheck_sample: Callable[[np.random.Generator, Any], Any]
    log_rcheck: Callable[[Any, Any], float]
    scheck_sample: Callable[[np.random.Generator, Any, Any], Any]
    log_scheck: Callable[[Any, Any, Any], float]   # (y, yhat, u)
    involution: Callable[[Any], Any]
    log_jacobian: Callable[[Any], float]

    def check_involution(self, points: Sequence, tol: float = 1e-10) -> None:
        """Verify f(f(u)) = u and the Jacobian chain rule on sample points."""
        for u in points:
            uu = self.involution(self.involution(u))
            if np.max(np.abs(np.asarray(uu) - np.asarray(u))) > tol:
                raise ValueError(f"involution contract violated at {u!r}")
            chain = self.log_jacobian(u) + self.log_jacobian(self.involution(u))
            if abs(chain) > 1e-8:
                raise ValueError(f"Jacobian chain rule violated at {u!r}")


def rmcmc_log_ratio(m: RmcmcModel, y, u, yh) -> float:
    """Unclamped log acceptance ratio of the r-MCMC move (with Jacobian term)."""
    val = (m.log_pi_star(yh) + m.log_rcheck(yh, y)
           + m.log_scheck(yh, y, m.involution(u))
           - m.log_pi_star(y) - m.log_rcheck(y, yh) - m.log_scheck(y, yh, u)
           + m.log_jacobian(u))
    if not math.isfinite(val):
        raise DensityError("r-MCMC ratio", val)
    return val


def rmcmc_step(m: RmcmcModel, y, rng) -> Any:
    """One r-MCMC transition: draw yhat ~ rcheck(y,.), u ~ scheck(y,yhat;.),
    accept yhat with the involution-corrected ratio."""
    gen = _gen(rng)
    yh = m.rcheck_sample(gen, y)
    u = m.scheck_sample(gen, y, yh)
    log_alpha = rmcmc_log_ratio(m, y, u, yh)
    if log_alpha >= 0.0 or gen.random() < math.exp(log_alpha):
        return yh
    return y


def rmcmc_chain(m: RmcmcModel, y0, n: int, rng) -> tuple[np.ndarray, int]:
    """n r-MCMC transitions from y0; returns the path y_1..y_n and the number
    of accepted moves.

    The log-uniforms of all n accept tests are drawn first, then the model's
    samplers draw proposals from a block-draw view of the same generator.  A
    move is accepted iff log U < rmcmc_log_ratio, which is rmcmc_step's test
    (log U < 0 always), so the chain has rmcmc_step's law but its own stream.
    """
    gen = _gen(rng)
    log_u = np.log(gen.random(n)).tolist()
    draws = BlockDraws(gen)
    y, path, accepted = y0, [], 0
    for lu in log_u:
        yh = m.rcheck_sample(draws, y)
        u = m.scheck_sample(draws, y, yh)
        if lu < rmcmc_log_ratio(m, y, u, yh):
            y = yh
            accepted += 1
        path.append(y)
    return np.array(path), accepted


@dataclass(frozen=True)
class GmtmModel:
    """Generalized multiple-try Metropolis: n candidates from rcheck, weight
    function omega > 0, optional finite support for exact enumeration."""

    log_pi_star: Callable[[Any], float]
    rcheck_sample: Callable[[np.random.Generator, Any], Any]
    log_rcheck: Callable[[Any, Any], float]
    omega: Callable[[Any, Any], float]
    n: int
    support: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("number of tries must be at least 1")


def gmtm_log_ratio(m: GmtmModel, y, vs: Sequence, yh, vhats: Sequence) -> float:
    """log alpha^(m) before clamping; vhats must already end with y."""
    fwd_sum = sum(m.omega(y, v) for v in vs)
    bwd_sum = sum(m.omega(yh, v) for v in vhats)
    if fwd_sum <= 0 or bwd_sum <= 0:
        raise DensityError("GMTM weight sum", 0.0)
    return (m.log_pi_star(yh) + m.log_rcheck(yh, y) + math.log(m.omega(yh, y))
            + math.log(fwd_sum)
            - m.log_pi_star(y) - m.log_rcheck(y, yh) - math.log(m.omega(y, yh))
            - math.log(bwd_sum))


def gmtm_select(weights: Sequence[float], gen: np.random.Generator) -> int:
    """Index j drawn with probability weights[j] / sum(weights); the same
    index, from the same stream position, as gen.choice with those p."""
    total = float(sum(weights))
    if total <= 0.0:
        raise DensityError("GMTM selection weights", total)
    p = [w / total for w in weights]
    if not all(x >= 0.0 for x in p):
        raise ValueError(f"selection probabilities must be finite and "
                         f"non-negative, got {p}")
    return bisect_right(choice_cdf(p), gen.random())


def gmtm_step(m: GmtmModel, y, rng) -> Any:
    """One GMTM transition (Algorithm with n tries and shadow candidates)."""
    gen = _gen(rng)
    vs = [m.rcheck_sample(gen, y) for _ in range(m.n)]
    j = gmtm_select([m.omega(y, v) for v in vs], gen)
    yh = vs[j]
    vhats = [m.rcheck_sample(gen, yh) for _ in range(m.n - 1)] + [y]
    log_alpha = gmtm_log_ratio(m, y, vs, yh, vhats)
    if log_alpha >= 0.0 or gen.random() < math.exp(log_alpha):
        return yh
    return y


def _rcheck_pmf(m: GmtmModel) -> dict:
    if m.support is None:
        raise ValueError("exact GMTM analysis requires a finite support")
    return {y: {v: math.exp(m.log_rcheck(y, v)) for v in m.support}
            for y in m.support}


def gmtm_rst_decomposition(m: GmtmModel, y):
    """Density evaluators (R, S, T) of the systematic-refreshment embedding
    with u = the n-1 rejected candidates and uhat the shadow draws.

    Requires a discrete rcheck support so the normalizing integral is a
    finite sum.
    """
    pmf = _rcheck_pmf(m)

    def denom(yy, u, yhat):
        return sum(m.omega(yy, ul) for ul in u) + m.omega(yy, yhat)

    def integral(yy, u):
        return sum(pmf[yy][yhat] * m.omega(yy, yhat) / denom(yy, u, yhat)
                   for yhat in m.support)

    def R_density(u):
        prod = math.prod(pmf[y][uk] for uk in u)
        return m.n * prod * integral(y, u)

    def S_density(u, yhat):
        return (pmf[y][yhat] * m.omega(y, yhat) / denom(y, u, yhat)) / integral(y, u)

    def T_density(u, yhat, uhat):
        return math.prod(pmf[yhat][uk] for uk in uhat)

    return R_density, S_density, T_density


def gmtm_exact_kernel(m: GmtmModel) -> FiniteKernel:
    """Exact y-transition matrix of GMTM on a finite support, by enumerating
    candidate tuples, the selection index and the shadow draws."""
    pmf = _rcheck_pmf(m)
    support = m.support
    idx = {lab: i for i, lab in enumerate(support)}
    ns = len(support)
    K = np.zeros((ns, ns))
    for y in support:
        i = idx[y]
        for vs in itertools.product(support, repeat=m.n):
            p_vs = math.prod(pmf[y][v] for v in vs)
            wsum = sum(m.omega(y, v) for v in vs)
            for j, yh in enumerate(vs):
                p_sel = m.omega(y, yh) / wsum
                for vh in itertools.product(support, repeat=m.n - 1):
                    p_vh = math.prod(pmf[yh][v] for v in vh)
                    vhats = list(vh) + [y]
                    alpha = math.exp(min(0.0, gmtm_log_ratio(m, y, vs, yh, vhats)))
                    K[i, idx[yh]] += p_vs * p_sel * p_vh * alpha
        K[i, i] += 1.0 - K[i].sum()
    return FiniteKernel(K, StateSpace(support))


def gmtm_embedding_model(m: GmtmModel, pi_star: dict) -> FiniteAugmentedModel:
    """Finite augmented model realizing the (R, S, T) embedding of GMTM, so
    the generic systematic-refreshment extraction can be compared entrywise
    against gmtm_exact_kernel."""
    support = m.support
    ys = StateSpace(support)
    u_labels = list(itertools.product(support, repeat=m.n - 1))
    us = StateSpace(u_labels)
    ny, nu = len(support), len(u_labels)
    r = np.zeros((ny, nu))
    S = np.zeros((ny, nu, ny))
    T = np.zeros((ny, nu, ny, nu))
    for yi, y in enumerate(support):
        R_density, S_density, T_density = gmtm_rst_decomposition(m, y)
        for ui, u in enumerate(u_labels):
            r[yi, ui] = R_density(u)
            for yj, yh in enumerate(support):
                S[yi, ui, yj] = S_density(u, yh)
                for uj, uh in enumerate(u_labels):
                    T[yi, ui, yj, uj] = T_density(u, yh, uh)
    pi = np.array([pi_star[y] for y in support], dtype=float)
    return FiniteAugmentedModel(Y=ys, U=us, pi_star=pi / pi.sum(), S=S, T=T, r=r)
