"""Test-only helpers: independent oracles and random inputs for the suite.

Nothing in the package, its scenarios or its benchmark calls these, so they
live next to the tests that use them rather than in the library.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from varorder.kernels import (FiniteKernel, FunctionVector, ProbVector,
                              StateSpace, metropolis)
from varorder.special_cases import GmtmModel, RmcmcModel, gmtm_log_ratio


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


def gmtm_exact_kernel_loop(m: GmtmModel) -> FiniteKernel:
    """Exact GMTM y-kernel by the direct loop: one gmtm_log_ratio call per
    (start y, candidate tuple, selected slot, shadow tuple), each mass added
    in turn, the rejected mass on the diagonal."""
    support = m.support
    pmf = {y: {v: math.exp(m.log_rcheck(y, v)) for v in support} for y in support}
    idx = {lab: i for i, lab in enumerate(support)}
    K = np.zeros((len(support), len(support)))
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


def asvar_alternating_two_systems(P: np.ndarray, Q: np.ndarray, pi: np.ndarray,
                                  f: np.ndarray) -> np.ndarray:
    """Alternating-chain variances by two systems: the X_0 tails solved with
    Z_PQ = I - PQ + 1 pi^T and the X_1 tails with Z_QP, the product QP formed
    (stacks as in asvar_alternating_stack; no summability gate).  Lags 2k give
    <fbar, (K - 1 pi^T)^k fbar> (k >= 1), lags 2k + 1 <fbar, (K - 1 pi^T)^k
    (L - 1 pi^T) fbar> (k >= 0), for (K, L) = (PQ, P) from X_0 and (QP, Q)
    from X_1."""
    D = np.stack([P, Q], axis=-3)
    pi_rows = pi[..., None, None, :]
    centred = D @ D[..., ::-1, :, :] - pi_rows  # PQ and QP
    fbar = f - np.sum(pi * f, axis=-1, keepdims=True)
    fcol = fbar[..., None, :, None]
    rhs = np.concatenate([centred @ fcol, (D - pi_rows) @ fcol], axis=-1)
    tails = np.linalg.solve(np.eye(P.shape[-1]) - centred, rhs)
    w = pi * fbar
    values = np.sum(w * fbar, axis=-1) + np.einsum("...i,...aib->...", w, tails)
    return np.maximum(values, 0.0)
