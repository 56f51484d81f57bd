"""Steppers for the augmented-target family of MCMC algorithms.

All acceptance ratios are computed in log domain and clamped at 0; ties at
exactly zero log-ratio accept.  Runners start from a named RngStream and
read its generator once; steppers draw from the np.random.Generator they are
given, so a stepper is pure given its generator.  Acceptance outcomes of the
last step ride on the returned state so that run_chain can aggregate them.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Optional

import numpy as np


class DensityError(ValueError):
    """A density evaluated to zero or a non-finite value inside an acceptance ratio."""

    def __init__(self, factor: str, value: float):
        super().__init__(f"factor {factor!r} evaluated to {value!r}")
        self.factor = factor


@dataclass
class RngStream:
    """Named, seeded, indexed random stream; identical triples replay bit-exactly."""

    algorithm: str
    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.stream < 0:
            raise ValueError("stream index must be nonnegative")
        tag = zlib.crc32(self.algorithm.encode())
        seq = np.random.SeedSequence(entropy=(self.seed, self.stream, tag))
        self.generator = np.random.Generator(np.random.PCG64(seq))


class BlockDraws:
    """Block-draw view of a Generator (``BlockDraws(stream.generator)``).

    Scalar ``standard_normal()`` calls are served from pre-drawn blocks of
    BLOCK normals, refilled from the wrapped generator when one runs out, so
    the output still depends only on the seed and the order of calls.  Every
    other method is the wrapped generator's own.
    """

    BLOCK = 4096

    def __init__(self, gen: np.random.Generator):
        self._generator = gen
        self._normals = iter(())

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        if size is not None or dtype is not np.float64 or out is not None:
            return self._generator.standard_normal(size, dtype, out)
        try:
            return next(self._normals)
        except StopIteration:
            self._normals = iter(self._generator.standard_normal(self.BLOCK).tolist())
            return next(self._normals)

    def __getattr__(self, name):
        return getattr(self._generator, name)


def choice_cdf(p) -> list:
    """The CDF that ``Generator.choice(len(p), p=p)`` searches: running sums,
    left to right, divided by the last one.  ``bisect_right(cdf, gen.random())``
    then draws the same index as ``gen.choice`` from the same stream position.
    Plain floats: numpy's per-call overhead dwarfs a few additions."""
    cdf = list(accumulate(map(float, p)))
    return [c / cdf[-1] for c in cdf]


@dataclass(frozen=True)
class Refresh:
    """Sampleable refresh kernel R with log-density r(y, u)."""

    sample: Callable[[np.random.Generator, Any], Any]
    log_density: Callable[[Any, Any], float]


@dataclass(frozen=True)
class CheckRefresh:
    """Factorized refresh: sampleable rcheck plus log-weights known up to a
    y-independent constant (r = rcheck * w)."""

    sample: Callable[[np.random.Generator, Any], Any]
    log_density: Callable[[Any, Any], float]
    log_weight: Callable[[Any, Any], float]


@dataclass(frozen=True)
class ProposalS:
    sample: Callable[[np.random.Generator, Any, Any], Any]
    log_density: Callable[[Any, Any, Any], float]       # (y, u, yhat)


@dataclass(frozen=True)
class ProposalT:
    sample: Callable[[np.random.Generator, Any, Any, Any], Any]
    log_density: Callable[[Any, Any, Any, Any], float]  # (y, u, yhat, uhat)


@dataclass(frozen=True)
class MarginalProposal:
    sample: Callable[[np.random.Generator, Any], Any]
    log_density: Callable[[Any, Any], float]            # (y, yhat)


@dataclass(frozen=True)
class AugmentedTargetModel:
    """Unnormalized augmented target pi(y, u) = pi_star(y) R(y, u) with
    instrumental proposal kernels S and T."""

    log_pi_star: Callable[[Any], float]
    S: ProposalS
    T: ProposalT
    refresh: Optional[Refresh] = None
    check_refresh: Optional[CheckRefresh] = None

    def __post_init__(self):
        if self.refresh is None and self.check_refresh is None:
            raise ValueError("a refresh kernel (R or rcheck/w) is required")

    def log_r(self, y, u) -> float:
        if self.refresh is not None:
            return self.refresh.log_density(y, u)
        return (self.check_refresh.log_density(y, u)
                + self.check_refresh.log_weight(y, u))


@dataclass
class ChainState:
    y: Any
    u: Any = None
    accepts: dict = field(default_factory=dict)  # last-step outcome per step kind


@dataclass
class ChainTrace:
    states: list
    accept_counts: dict  # step kind -> (accepted, proposed)

    def __len__(self) -> int:
        return len(self.states)

    def values(self, f: Callable[[Any], float]) -> np.ndarray:
        return np.array([f(s) for s in self.states], dtype=float)


def _checked(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DensityError(name, value)
    return value


def log_ratio_freeze(m: AugmentedTargetModel, y, u, yh, uh) -> float:
    """Unclamped log acceptance ratio of the freeze move."""
    forward = (_checked("pi_star(y)", m.log_pi_star(y))
               + _checked("r(y,u)", m.log_r(y, u))
               + _checked("s(y,u;yhat)", m.S.log_density(y, u, yh))
               + _checked("t(y,u,yhat;uhat)", m.T.log_density(y, u, yh, uh)))
    backward = (_checked("pi_star(yhat)", m.log_pi_star(yh))
                + _checked("r(yhat,uhat)", m.log_r(yh, uh))
                + _checked("s(yhat,uhat;y)", m.S.log_density(yh, uh, y))
                + _checked("t(yhat,uhat,y;u)", m.T.log_density(yh, uh, y, u)))
    return backward - forward


def acceptance_ratio_freeze(m: AugmentedTargetModel, y, u, yh, uh) -> float:
    """Clamped acceptance probability of the freeze move, in [0, 1]."""
    return math.exp(min(0.0, log_ratio_freeze(m, y, u, yh, uh)))


def _freeze_move(m: AugmentedTargetModel, y, u, gen) -> tuple:
    """Propose (yhat, uhat) and accept/reject; returns (y', u', accepted)."""
    yh = m.S.sample(gen, y, u)
    uh = m.T.sample(gen, y, u, yh)
    alpha = acceptance_ratio_freeze(m, y, u, yh, uh)
    if gen.random() < alpha or alpha >= 1.0:
        return yh, uh, True
    return y, u, False


def freeze_step(m: AugmentedTargetModel, state: ChainState,
                gen: np.random.Generator) -> ChainState:
    """Freeze scheme: the auxiliary variable is carried ("frozen") across steps."""
    if state.u is None:
        raise ValueError("freeze step requires an auxiliary component in the state")
    y, u, ok = _freeze_move(m, state.y, state.u, gen)
    return ChainState(y=y, u=u, accepts={"move": ok})


def systematic_refresh_step(m: AugmentedTargetModel, state: ChainState,
                            gen: np.random.Generator) -> ChainState:
    """Systematic refreshment: redraw u ~ R(y, .) every step; the Markov state
    is y alone."""
    if m.refresh is None:
        raise ValueError("R not sampleable: only (rcheck, w) is configured")
    u = m.refresh.sample(gen, state.y)
    y, _, ok = _freeze_move(m, state.y, u, gen)
    return ChainState(y=y, u=None, accepts={"move": ok})


def random_refresh_step(m: AugmentedTargetModel, state: ChainState,
                        gen: np.random.Generator) -> ChainState:
    """Random refreshment: refresh u through rcheck with the weight-ratio acceptance,
    then do a freeze move from (y, u_check).

    The refreshed u_check is committed even when the subsequent move is
    rejected.
    """
    if m.check_refresh is None:
        raise ValueError("random refreshment requires the (rcheck, w) form")
    if state.u is None:
        raise ValueError("random refresh step requires an auxiliary component")
    y, u = state.y, state.u
    u_new = m.check_refresh.sample(gen, y)
    log_rho = (m.check_refresh.log_weight(y, u_new)
               - m.check_refresh.log_weight(y, u))
    refreshed = log_rho >= 0.0 or gen.random() < math.exp(log_rho)
    u_check = u_new if refreshed else u
    y2, u2, ok = _freeze_move(m, y, u_check, gen)
    return ChainState(y=y2, u=u2, accepts={"refresh": refreshed, "move": ok})


def noisy_step(m: AugmentedTargetModel, state: ChainState,
               gen: np.random.Generator) -> ChainState:
    """The noisy (MCWM-style) variant: refresh through rcheck unconditionally,
    then accept with the weight-corrected freeze ratio.  Generally not
    pi_star-reversible."""
    if m.check_refresh is None:
        raise ValueError("the noisy step requires the (rcheck, w) form")
    u = m.check_refresh.sample(gen, state.y)
    y, _, ok = _freeze_move(m, state.y, u, gen)
    return ChainState(y=y, u=None, accepts={"move": ok})


def marginal_mh_step(k: MarginalProposal, log_pi_star: Callable[[Any], float],
                     state: ChainState, gen: np.random.Generator) -> ChainState:
    """Classical MH on Y with the marginalized proposal density k."""
    y = state.y
    yh = k.sample(gen, y)
    log_ratio = (_checked("pi_star(yhat)", log_pi_star(yh))
                 + _checked("k(yhat,y)", k.log_density(yh, y))
                 - _checked("pi_star(y)", log_pi_star(y))
                 - _checked("k(y,yhat)", k.log_density(y, yh)))
    ok = log_ratio >= 0.0 or gen.random() < math.exp(log_ratio)
    return ChainState(y=yh if ok else y, accepts={"move": ok})


def run_chain(stepper, m, initial: ChainState, n: int, rng: RngStream) -> ChainTrace:
    """Run n steps of stepper(m, state, gen), gen being rng.generator; the
    trace has length n + 1 and replays bit-exactly from the same stream.
    Draws made from rng.generator before the call are part of that stream."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    gen = rng.generator
    counts: dict = {}
    states = [initial]
    state = initial
    for _ in range(n):
        state = stepper(m, state, gen)
        for kind, ok in state.accepts.items():
            acc, tot = counts.get(kind, (0, 0))
            counts[kind] = (acc + int(ok), tot + 1)
        states.append(state)
    return ChainTrace(states=states, accept_counts=counts)
