"""Test-only helpers: independent oracles and random inputs for the suite.

Nothing in the package, its scenarios or its benchmark calls these, so they
live next to the tests that use them rather than in the library.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from varorder.kernels import (FiniteKernel, FunctionVector, ProbVector,
                              StateSpace, metropolis)
from varorder.special_cases import RmcmcModel


def lazy_pair(P: FiniteKernel, a: float) -> tuple[FiniteKernel, FiniteKernel]:
    """Dominated pair (P0, P1) with P1 = P and P0 the a-lazy version of P."""
    if not 0.0 < a < 1.0:
        raise ValueError("laziness parameter must lie in (0, 1)")
    P0 = FiniteKernel((1.0 - a) * P.matrix + a * np.eye(P.size), P.space)
    return P0, P


def lag_one_autocov(P: FiniteKernel, pi: ProbVector, f: FunctionVector) -> float:
    """<f, Pf> = sum_i pi_i f_i (Pf)_i (uncentered lag-one moment)."""
    return float(np.sum(pi.weights * f.values * (P.matrix @ f.values)))


def random_reversible_kernel(rng: np.random.Generator, n: int,
                             pi: Optional[ProbVector] = None
                             ) -> tuple[FiniteKernel, ProbVector]:
    """Random pi-reversible Metropolis kernel (and a random positive pi unless given)."""
    if pi is None:
        w = rng.uniform(0.2, 1.0, size=n)
        pi = ProbVector(w / w.sum())
    K = rng.uniform(0.05, 1.0, size=(n, n))
    return FiniteKernel(metropolis(K / K.sum(axis=1, keepdims=True), pi.weights),
                        pi.space), pi


def simulate_q0_trace(eps: float, n: int, rng: np.random.Generator,
                      x0: int = 1) -> np.ndarray:
    """Vectorized length-(n+1) trace of the Q0(eps) chain on {-1, 1}.

    Each step flips with probability 1 - eps/2, so the path is x0 times a
    cumulative product of signs.
    """
    flips = rng.random(n) < (1.0 - eps / 2.0)
    signs = np.where(flips, -1.0, 1.0)
    return np.concatenate([[float(x0)], float(x0) * np.cumprod(signs)])


def empirical_one_step_frequencies(states: list, sp: StateSpace) -> np.ndarray:
    """Row-normalized transition counts of a trace over labeled states."""
    n = sp.size
    idx = {label: i for i, label in enumerate(sp.labels)}
    counts = np.zeros((n, n))
    for a, b in itertools.pairwise(states):
        counts[idx[a], idx[b]] += 1.0
    rows = counts.sum(axis=1, keepdims=True)
    rows[rows == 0] = 1.0
    return counts / rows


def check_involution(model: RmcmcModel, points: Sequence, tol: float = 1e-10) -> None:
    """Verify f(f(u)) = u and the Jacobian chain rule on sample points."""
    for u in points:
        uu = model.involution(model.involution(u))
        if np.max(np.abs(np.asarray(uu) - np.asarray(u))) > tol:
            raise ValueError(f"involution contract violated at {u!r}")
        chain = model.log_jacobian(u) + model.log_jacobian(model.involution(u))
        if abs(chain) > 1e-8:
            raise ValueError(f"Jacobian chain rule violated at {u!r}")
