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
from .samplers import BlockDraws, DensityError, RngStream, choice_cdf


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


def rmcmc_step(m: RmcmcModel, y, gen: np.random.Generator) -> Any:
    """One r-MCMC transition: draw yhat ~ rcheck(y,.), u ~ scheck(y,yhat;.),
    accept yhat with the involution-corrected ratio."""
    yh = m.rcheck_sample(gen, y)
    u = m.scheck_sample(gen, y, yh)
    log_alpha = rmcmc_log_ratio(m, y, u, yh)
    if log_alpha >= 0.0 or gen.random() < math.exp(log_alpha):
        return yh
    return y


def rmcmc_chain(m: RmcmcModel, y0, n: int, rng: RngStream) -> tuple[np.ndarray, int]:
    """n r-MCMC transitions from y0; returns the path y_1..y_n and the number
    of accepted moves.

    The log-uniforms of all n accept tests are drawn first, then the model's
    samplers draw proposals from a block-draw view of the same generator.  A
    move is accepted iff log U < rmcmc_log_ratio, which is rmcmc_step's test
    (log U < 0 always), so the chain has rmcmc_step's law but its own stream.
    """
    gen = rng.generator
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


def _gmtm_log_alpha(log_pi_y, log_pi_yh, log_r_fwd, log_r_bwd, log_w_fwd, log_w_bwd,
                    log_fwd_sum, log_bwd_sum):
    """The GMTM log acceptance ratio from its logged factors, on scalars or on
    broadcasting arrays: fwd is the move y -> yhat, bwd the move back."""
    return (log_pi_yh + log_r_bwd + log_w_bwd + log_fwd_sum
            - log_pi_y - log_r_fwd - log_w_fwd - log_bwd_sum)


def gmtm_log_ratio(m: GmtmModel, y, vs: Sequence, yh, vhats: Sequence) -> float:
    """log alpha^(m) before clamping; vhats must already end with y."""
    fwd_sum = sum(m.omega(y, v) for v in vs)
    bwd_sum = sum(m.omega(yh, v) for v in vhats)
    if fwd_sum <= 0 or bwd_sum <= 0:
        raise DensityError("GMTM weight sum", 0.0)
    return _gmtm_log_alpha(m.log_pi_star(y), m.log_pi_star(yh), m.log_rcheck(y, yh),
                           m.log_rcheck(yh, y), math.log(m.omega(y, yh)),
                           math.log(m.omega(yh, y)), math.log(fwd_sum), math.log(bwd_sum))


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


def gmtm_step(m: GmtmModel, y, gen: np.random.Generator) -> Any:
    """One GMTM transition (Algorithm with n tries and shadow candidates)."""
    vs = [m.rcheck_sample(gen, y) for _ in range(m.n)]
    j = gmtm_select([m.omega(y, v) for v in vs], gen)
    yh = vs[j]
    vhats = [m.rcheck_sample(gen, yh) for _ in range(m.n - 1)] + [y]
    log_alpha = gmtm_log_ratio(m, y, vs, yh, vhats)
    if log_alpha >= 0.0 or gen.random() < math.exp(log_alpha):
        return yh
    return y


def _support_tables(m: GmtmModel) -> tuple:
    """log pi*, log rcheck, rcheck and omega tabulated once on the finite
    support, as arrays indexed by support position."""
    if m.support is None:
        raise ValueError("exact GMTM analysis requires a finite support")
    support = m.support
    log_pi = np.array([m.log_pi_star(y) for y in support])
    log_r = [[m.log_rcheck(y, v) for v in support] for y in support]
    R = np.array([[math.exp(x) for x in row] for row in log_r])
    W = np.array([[m.omega(y, v) for v in support] for y in support])
    for factor, table, ok in (("GMTM log_pi_star", log_pi, np.isfinite(log_pi)),
                              ("GMTM rcheck", R, np.isfinite(R)),
                              ("GMTM omega", W, np.isfinite(W) & (W > 0))):
        if not ok.all():
            raise DensityError(factor, float(table[~ok][0]))
    return log_pi, np.array(log_r), R, W


def _tuple_tables(R: np.ndarray, W: np.ndarray, k: int) -> tuple:
    """Every k-tuple of support indices, in itertools.product order, with
    prod[y, t] = prod_l R(y, t_l) and wsum[y, t] = sum_l W(y, t_l), both
    accumulated left to right as gmtm_log_ratio sums."""
    tuples = np.array(list(itertools.product(range(len(R)), repeat=k)),
                      dtype=int).reshape(len(R) ** k, k)
    prod, wsum = np.ones((len(R), len(tuples))), np.zeros((len(R), len(tuples)))
    for col in tuples.T:
        wsum, prod = wsum + W[:, col], prod * R[:, col]
    return tuples, prod, wsum


def gmtm_exact_kernel(m: GmtmModel) -> FiniteKernel:
    """Exact y-transition matrix of GMTM on a finite support.

    For each start y, one array with axes (candidate tuple vs, selected slot
    j, shadow tuple vh) holds the mass p(vs) p_sel(j) p(vh) min(1, alpha) of
    the move to yhat = vs_j, which is added into K[y, yhat]; the rejected mass
    goes to the diagonal.  That is |support|^(2n) n terms for n tries."""
    log_pi, log_r, R, W = _support_tables(m)
    ns = len(log_pi)
    cands, p_cand, w_cand = _tuple_tables(R, W, m.n)
    _, p_shadow, w_shadow = _tuple_tables(R, W, m.n - 1)
    log_w = np.log(W)
    # a move never proposed has p(vs) = 0; dropping its -inf log rcheck from
    # the ratio keeps -inf - -inf from making a NaN
    log_r_fwd = np.where(R > 0, log_r, 0.0)
    K = np.zeros((ns, ns))
    for y in range(ns):
        p_sel = W[y, cands] / w_cand[y][:, None]
        log_alpha = _gmtm_log_alpha(
            log_pi[y], log_pi[cands][..., None], log_r_fwd[y, cands][..., None],
            log_r[cands, y][..., None], log_w[y, cands][..., None],
            log_w[cands, y][..., None], np.log(w_cand[y])[:, None, None],
            np.log(w_shadow + W[:, y:y + 1])[cands])
        mass = ((p_cand[y][:, None] * p_sel)[..., None] * p_shadow[cands]
                * np.exp(np.minimum(0.0, log_alpha)))
        # unbuffered, in C order: each K[y, yhat] sums its masses in the
        # order of a loop over (vs, j, vh)
        np.add.at(K[y], np.broadcast_to(cands[..., None], mass.shape).ravel(), mass.ravel())
        K[y, y] += 1.0 - K[y].sum()
    return FiniteKernel(K, StateSpace(m.support))


def gmtm_embedding_model(m: GmtmModel) -> FiniteAugmentedModel:
    """Finite augmented model of GMTM's (R, S, T) embedding, u the n-1 rejected
    candidates and uhat the shadow draws: its systematic-refreshment kernel
    equals gmtm_exact_kernel entrywise.  Sums and products over candidates
    run left to right, as in gmtm_log_ratio."""
    log_pi, _, R, W = _support_tables(m)
    support, ny = m.support, len(m.support)
    # u runs over the (n-1)-tuples; wsum[y, u] = sum_l W(y, u_l) and
    # prod[y, u] = prod_l R(y, u_l)
    tuples, prod, wsum = _tuple_tables(R, W, m.n - 1)
    nu = len(tuples)
    flow = R[:, None, :] * W[:, None, :] / (wsum[:, :, None] + W[:, None, :])
    norm = flow.sum(axis=-1)
    pi = np.array([math.exp(x) for x in log_pi])
    return FiniteAugmentedModel(
        Y=StateSpace(support), U=StateSpace(itertools.product(support, repeat=m.n - 1)),
        pi_star=pi / pi.sum(), S=flow / norm[:, :, None], r=m.n * prod * norm,
        T=np.broadcast_to(prod, (ny, nu, ny, nu)))
