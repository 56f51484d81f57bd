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


def gmtm_embedding_model(m: GmtmModel) -> FiniteAugmentedModel:
    """Finite augmented model of GMTM's (R, S, T) embedding, u the n-1 rejected
    candidates and uhat the shadow draws: its systematic-refreshment kernel
    equals gmtm_exact_kernel entrywise.  Sums and products over candidates
    run left to right, as in gmtm_log_ratio."""
    pmf = _rcheck_pmf(m)
    support, ny = m.support, len(m.support)
    R = np.array([[pmf[y][v] for v in support] for y in support])
    W = np.array([[m.omega(y, v) for v in support] for y in support])
    # tuples[u, l] indexes the l-th candidate of u; wsum[y, u] = sum_l W(y, u_l)
    # and prod[y, u] = prod_l R(y, u_l)
    tuples = np.array(list(itertools.product(range(ny), repeat=m.n - 1)), dtype=int)
    nu = len(tuples)
    wsum, prod = np.zeros((ny, nu)), np.ones((ny, nu))
    for col in tuples.T:
        wsum, prod = wsum + W[:, col], prod * R[:, col]
    flow = R[:, None, :] * W[:, None, :] / (wsum[:, :, None] + W[:, None, :])
    norm = flow.sum(axis=-1)
    pi = np.array([math.exp(m.log_pi_star(y)) for y in support])
    return FiniteAugmentedModel(
        Y=StateSpace(support), U=StateSpace(itertools.product(support, repeat=m.n - 1)),
        pi_star=pi / pi.sum(), S=flow / norm[:, :, None], r=m.n * prod * norm,
        T=np.broadcast_to(prod, (ny, nu, ny, nu)))
