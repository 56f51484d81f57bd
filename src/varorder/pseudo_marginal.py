"""Pseudo-marginal weight models: GIMH, MCWM and the ABC instance.

The GIMH construction replaces an intractable target density by an
importance-sampling average over N auxiliary draws; wiring it as a freeze
model makes the whole N-sample vector the frozen auxiliary variable, which
is exactly what keeps the method exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .samplers import AugmentedTargetModel, Proposal, RngStream


class ZeroWeightError(ValueError):
    """The current state has zero ABC weight (the trapping-state pathology)."""


@dataclass(frozen=True)
class ImportanceModel:
    """Unnormalized joint log pi_bar(y, v), a per-y proposal q_y, and the
    Monte Carlo sample size N."""

    log_joint: Callable[[Any, Any], float]
    q_sample: Callable[[np.random.Generator, Any], Any]
    log_q: Callable[[Any, Any], float]
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("sample size N must be at least 1")

    def log_weight(self, y, v) -> float:
        lq = self.log_q(y, v)
        if not math.isfinite(lq):
            raise ZeroWeightError(f"proposal density vanished at a drawn point ({y}, {v})")
        return self.log_joint(y, v) - lq

    # map keeps the per-draw calls in C: no generator frame per sample
    def draws(self, gen, y) -> tuple:
        """A fresh sample (v_1, ..., v_N) of v_m ~ q_y, drawn in order."""
        return tuple(map(self.q_sample, [gen] * self.N, [y] * self.N))

    def log_q_draws(self, y, vs) -> float:
        """log prod_m q_y(v_m) for a sample vs = (v_1, ..., v_N)."""
        return sum(map(self.log_q, [y] * len(vs), vs))

    def log_estimate(self, y, vs) -> float:
        """log pi*_N(y) for a frozen sample vs = (v_1, ..., v_N)."""
        logs = [self.log_weight(y, v) for v in vs]
        top = max(logs)
        if top == -math.inf:
            return -math.inf
        return top + math.log(sum(math.exp(l - top) for l in logs)) - math.log(self.N)


def gimh_estimate(m: ImportanceModel, y, rng: RngStream) -> tuple[float, tuple]:
    """Draw v_1..v_N ~ q_y from rng.generator and return (importance average,
    frozen sample)."""
    vs = m.draws(rng.generator, y)
    return math.exp(m.log_estimate(y, vs)), vs


def _s_ignoring_u(proposal_s: Proposal) -> Proposal:
    """S(y, u; .) = proposal_s(y, .) whatever the auxiliary u."""
    return Proposal(sample=lambda gen, y, u: proposal_s.sample(gen, y),
                    log_density=lambda y, u, yh: proposal_s.log_density(y, yh))


def _fresh_sample_t(m: ImportanceModel) -> Proposal:
    """T(y, u, yhat; .): a fresh N-sample from q_yhat, whatever (y, u)."""
    return Proposal(sample=lambda gen, y, u, yh: m.draws(gen, yh),
                    log_density=lambda y, u, yh, uh: m.log_q_draws(yh, uh))


def gimh_as_freeze(m: ImportanceModel, proposal_s: Proposal) -> AugmentedTargetModel:
    """Cast GIMH as a freeze model with u = (v_1, ..., v_N).

    pi*(y) r(y, u) factorizes as prod_m q_y(v_m) times pi*_N(y), so the
    model carries log_pi_star identically zero and folds the product into
    the refresh density; the resulting freeze ratio is the familiar
    pi*_N(yhat) s(yhat, y) / (pi*_N(y) s(y, yhat)).
    """
    return AugmentedTargetModel(
        log_pi_star=lambda y: 0.0,
        S=_s_ignoring_u(proposal_s), T=_fresh_sample_t(m),
        refresh=Proposal(sample=m.draws,
                         log_density=lambda y, u: m.log_q_draws(y, u) + m.log_estimate(y, u)))


def gimh_as_random_refresh(m: ImportanceModel,
                           proposal_s: Proposal) -> AugmentedTargetModel:
    """The random-refreshment wiring of GIMH: rcheck = prod q_y and
    log-weights log pi*_N (known up to the y-independent normalizing
    constant of the target).  T stays the fresh-sample kernel of the freeze
    construction."""
    # log_estimate is looked up per call, so a wrapper set on the class later applies
    return AugmentedTargetModel(
        log_pi_star=lambda y: 0.0,
        S=_s_ignoring_u(proposal_s), T=_fresh_sample_t(m),
        refresh=Proposal(sample=m.draws, log_density=m.log_q_draws),
        log_weight=lambda y, u: m.log_estimate(y, u))


# ---------------------------------------------------------------------------
# ABC
# ---------------------------------------------------------------------------

def gaussian_abc_kernel(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ABCModel:
    """ABC discrepancy model: kernel K, bandwidth h, observed summary obs,
    summary statistic s, and the data simulator playing the role of rcheck."""

    obs: float
    kernel_K: Callable[[float], float]
    h: float
    summary: Callable[[Any], float]
    simulator: Callable[[np.random.Generator, Any], Any]

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("bandwidth h must be positive")

    def weight_value(self, u) -> float:
        """K[(s(u) - obs) / h], the computable part of the ABC weight."""
        val = self.kernel_K((self.summary(u) - self.obs) / self.h)
        if val < 0:
            raise ValueError("ABC kernel returned a negative value")
        return val


def abc_random_refresh_model(m: ABCModel, log_prior: Callable[[Any], float],
                             proposal_s: Proposal) -> AugmentedTargetModel:
    """Random-refreshment GIMH-ABC targeting prior(y) K[(s(u)-obs)/h].

    The simulator density rcheck and the fresh-simulation kernel T cancel
    exactly in the freeze ratio, so both log-densities are fixed at zero;
    only the prior, the ABC weight and the y-proposal density remain.
    """

    def log_weight(y, u):
        val = m.weight_value(u)
        if val == 0.0:
            raise ZeroWeightError("current state has zero ABC weight")
        return math.log(val)

    return AugmentedTargetModel(
        log_pi_star=log_prior,
        S=_s_ignoring_u(proposal_s),
        T=Proposal(sample=lambda gen, y, u, yh: m.simulator(gen, yh),
                   log_density=lambda y, u, yh, uh: 0.0),
        refresh=Proposal(sample=m.simulator, log_density=lambda y, u: 0.0),
        log_weight=log_weight)

