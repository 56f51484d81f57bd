"""Exact transition matrices for the augmented-target samplers on finite toys.

Given a finite model with enumerable proposal randomness, every sampler in
this package reduces to a dense transition matrix obtained by summing
acceptance-weighted proposal probabilities, with the rejection mass assigned
to the diagonal.  These matrices are the ground truth behind the package's
exact reversibility and variance-ordering checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import (ENTRY_TOL, FiniteKernel, ProbVector, StateSpace,
                      _mh_acceptance, check_stochastic, lumped)
from .variance import _doeblin_gate, _fundamental_solve, check_invariant

MAX_JOINT_STATES = 256

ALGORITHMS = ("freeze", "systematic", "random_refresh", "noisy", "marginal_mh")


class ReducibleKernelError(ValueError):
    """Eigenvalue 1 is not simple: no unique stationary law."""


@dataclass(frozen=True)
class FiniteAugmentedModel:
    """Finite augmented target: pi(y, u) = pi_star(y) r(y, u).

    The refresh kernel is given in exactly one form: r, or the pseudo-marginal
    factorization (rcheck, w), stored as r = rcheck * w.  S maps (y, u) to a
    distribution over proposed y; T maps (y, u, yhat) to a distribution
    over proposed u.
    """

    Y: StateSpace
    U: StateSpace
    pi_star: np.ndarray
    S: np.ndarray                      # (ny, nu, ny)
    T: np.ndarray                      # (ny, nu, ny, nu)
    r: Optional[np.ndarray] = None     # (ny, nu)
    rcheck: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None

    def __post_init__(self):
        ny, nu = self.Y.size, self.U.size
        if ny * nu > MAX_JOINT_STATES:
            raise ValueError(f"joint space too large ({ny * nu} > {MAX_JOINT_STATES})")
        tables = ("pi_star", "r", "rcheck", "S", "T")
        for name in tables + ("w",):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        given = tuple(getattr(self, name) is not None for name in ("r", "rcheck", "w"))
        if given not in ((True, False, False), (False, True, True)):
            raise ValueError("give exactly one refresh form: r, or (rcheck, w)")
        if self.rcheck is not None:
            object.__setattr__(self, "r", self.rcheck * self.w)
        # pi_star and every row of r, rcheck, S (over yhat) and T (over uhat) are distributions
        for name in tables:
            if getattr(self, name) is not None:
                try:
                    check_stochastic(getattr(self, name))
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from exc
        if not np.all(self.pi_star > 0):
            raise ValueError("pi_star must be strictly positive")

    @property
    def joint_space(self) -> StateSpace:
        return StateSpace([(y, u) for y in self.Y.labels for u in self.U.labels])

    @property
    def joint_pi(self) -> ProbVector:
        flat = (self.pi_star[:, None] * self.r).reshape(-1)
        return ProbVector(flat / flat.sum(), self.joint_space)

    @property
    def pi_star_vector(self) -> ProbVector:
        return ProbVector(self.pi_star, self.Y)


@dataclass(frozen=True)
class ExtractedKernel:
    kernel: FiniteKernel
    algorithm: str


def freeze_acceptance_table(m: FiniteAugmentedModel) -> np.ndarray:
    """alpha[y, u, yhat, uhat] for the freeze move, clamped at 1."""
    # flux[y, u, yh, uh] = pi(y, u) S[y, u, yh] T[y, u, yh, uh]; as a joint-space
    # matrix, the reverse flux of a move is its transposed entry
    flux = (m.pi_star[:, None] * m.r)[:, :, None, None] * m.S[:, :, :, None] * m.T
    n = m.Y.size * m.U.size
    return _mh_acceptance(flux.reshape(n, n)).reshape(flux.shape)


def accept_kernel(m: FiniteAugmentedModel) -> FiniteKernel:
    """The freeze accept/reject kernel Q on the joint space."""
    n = m.Y.size * m.U.size
    # proposal probability of (yhat, uhat) from (y, u), thinned by acceptance
    K = (m.S[:, :, :, None] * m.T * freeze_acceptance_table(m)).reshape(n, n)
    # rejection mass stays put; computed as a complement so rows are stochastic
    K[np.diag_indices(n)] += 1.0 - K.sum(axis=1)
    return FiniteKernel(K, m.joint_space)


def _refresh_blocks(m: FiniteAugmentedModel, probs: Optional[np.ndarray],
                    w: Optional[np.ndarray] = None) -> np.ndarray:
    """Diagonal blocks B[y, u, u'] of the block-diagonal refresh
    (y, u) -> (y, u') with u' ~ probs[y, .].

    With weights w the proposal is accepted with 1 ^ w[y,u']/w[y,u] and the
    rejected mass stays on (y, u).
    """
    if probs is None:
        raise ValueError("model has no (rcheck, w) refresh")
    ny, nu = m.Y.size, m.U.size
    blocks = np.broadcast_to(probs[:, None, :], (ny, nu, nu))
    if w is not None:
        blocks = blocks * np.minimum(1.0, w[:, None, :] / w[:, :, None])
        blocks[:, np.arange(nu), np.arange(nu)] += 1.0 - blocks.sum(axis=2)
    return blocks


def _refresh_kernel(m: FiniteAugmentedModel, probs: Optional[np.ndarray],
                    w: Optional[np.ndarray] = None) -> FiniteKernel:
    """The dense block-diagonal refresh kernel of _refresh_blocks."""
    ny, nu = m.Y.size, m.U.size
    K = np.zeros((ny, nu, ny, nu))
    K[np.arange(ny), :, np.arange(ny), :] = _refresh_blocks(m, probs, w)
    return FiniteKernel(K.reshape(ny * nu, ny * nu), m.joint_space)


def systematic_refresh_kernel(m: FiniteAugmentedModel) -> FiniteKernel:
    """P2: (y, u) -> (y, u') with u' ~ R(y, .); first coordinate held fixed."""
    return _refresh_kernel(m, m.r)


def random_refresh_kernel(m: FiniteAugmentedModel) -> FiniteKernel:
    """P3: propose u' ~ rcheck(y, .), accept with 1 ^ w[y,u']/w[y,u]."""
    return _refresh_kernel(m, m.rcheck, m.w)


def marginal_mh_proposal(m: FiniteAugmentedModel) -> np.ndarray:
    """k(y, yhat) = sum_u r(y, u) S[y, u, yhat] (the marginalized proposal)."""
    return np.einsum("yu,yuz->yz", m.r, m.S)


def marginal_mh_exact_kernel(m: FiniteAugmentedModel) -> FiniteKernel:
    """Classical MH kernel on Y with the marginalized proposal k."""
    k = marginal_mh_proposal(m)
    K = k * _mh_acceptance(m.pi_star[:, None] * k)
    K[np.diag_indices(m.Y.size)] += 1.0 - K.sum(axis=1)
    return FiniteKernel(K, m.Y)


def extract_kernel(algorithm: str, m: FiniteAugmentedModel) -> ExtractedKernel:
    """Exact transition matrix of the named sampler on the finite model.

    freeze / systematic / random_refresh / noisy are returned on the joint
    space (the product-kernel embeddings P_i Q); marginal_mh lives on Y.  A
    refresh R is block-diagonal, so R Q is one (ny, nu, nu) @ (ny, nu, n)
    product per y: ny nu^2 n multiply-adds instead of n^3.
    """
    # noisy refreshes unconditionally through rcheck (its step (i))
    refresh = {"systematic": (m.r,), "noisy": (m.rcheck,),
               "random_refresh": (m.rcheck, m.w)}
    if algorithm == "freeze":
        K = accept_kernel(m)
    elif algorithm in refresh:
        blocks, n = _refresh_blocks(m, *refresh[algorithm]), m.Y.size * m.U.size
        Q = accept_kernel(m).matrix.reshape(m.Y.size, m.U.size, n)
        K = FiniteKernel((blocks @ Q).reshape(n, n), m.joint_space)
    elif algorithm == "marginal_mh":
        K = marginal_mh_exact_kernel(m)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    return ExtractedKernel(kernel=K, algorithm=algorithm)


def marginal_kernel(K: ExtractedKernel, m: FiniteAugmentedModel) -> FiniteKernel:
    """Y-marginal kernel K_Y(y, yhat) = sum_u r(y, u) sum_uhat K(y,u; yhat,uhat).

    For a kernel that leaves pi_star * r invariant, pi_star(y) K_Y(y, yhat) is
    the one-step stationary y-flow.  K_Y is the y-chain's kernel when the
    y-process is Markov (systematic refreshment, noisy, marginal MH).
    """
    ny, nu = m.Y.size, m.U.size
    J = K.kernel.matrix.reshape(ny, nu, ny, nu)
    KY = np.einsum("yu,yuzv->yz", m.r, J)
    return FiniteKernel(KY / KY.sum(axis=1, keepdims=True), m.Y)


def stationary_distribution(K: FiniteKernel) -> ProbVector:
    """Unique pi with pi K = pi, by one of two routes (eps is K's Doeblin coefficient).

    Ratio route, for kernels variance._doeblin_gate certifies.  A
    pi-reversible K has pi(y) K(y, c) = pi(c) K(c, y), so the candidate is
    x(y) proportional to K(c, y) / K(y, c), O(n^2) with the check; c is the
    column with the largest minimum, so K(., c) >= eps / n > 0.  With
    Z_pi = I - K + 1 pi^T and r = x K - x, x Z_pi = pi - r, so
    x - pi = -r Z_pi^{-1}, and Dobrushin's ||K^t(y, .) - pi||_1 <= 2 (1 - eps)^t
    gives ||Z_pi^{-1}||_inf <= (2 - eps) / eps.  x is returned when
    ||r||_1 (2 - eps) / eps <= ENTRY_TOL, which caps ||x - pi||_1 at ENTRY_TOL
    and |x K - x| at INVARIANCE_TOL.  Caveat: r is the computed residual; its
    own rounding (about n machine epsilons of x K) and rows summing to 1 only
    within ENTRY_TOL are outside the bound.

    LU route, for every other kernel (not reversible, or not certified):
    pi (I - K + 1 u^T) = u^T for uniform u through variance._fundamental_solve,
    one factorisation.  A certified K with runs of equal rows (K.row_runs:
    systematic refreshment, the noisy step) lumps instead: mu, the law of
    kernels.lumped(K) by these same routes, gives pi = mu W, W K's distinct
    rows.  Raises ReducibleKernelError when its gate finds
    ||(I - K + 1 u^T)^-1||_1 above 1 / EIGENVALUE_ONE_TOL (the eigenvalue 1
    of K is not simple), or when the clipped, renormalized pi fails
    variance.check_invariant.  The ratio route is taken only where the
    LU route's gate passes, so both routes accept and reject the same kernels.
    """
    return ProbVector(_stationary_weights(K), K.space)


def _stationary_weights(K: FiniteKernel) -> np.ndarray:
    """The weights of stationary_distribution(K); the lumped route recurses
    here, so stationary_distribution is entered once per law."""
    M, n, eps = K.matrix, K.size, K.doeblin_coefficient
    u = np.full(n, 1.0 / n)
    certified = _doeblin_gate(K)[1]
    if certified:
        c = int(np.argmax(M.min(axis=0)))
        x = np.maximum(M[c] / M[:, c], 0.0)
        x = x / x.sum()
        if np.sum(np.abs(x @ M - x)) * (2.0 - eps) / eps <= ENTRY_TOL:
            return x
    try:
        if certified and K.row_runs is not None:
            pi = _stationary_weights(lumped(K)) @ M[K.row_runs]
        else:
            pi = _fundamental_solve(K, u, u[:, None], transposed=True)[0][:, 0]
        pi = np.maximum(pi, 0.0)
        pi = pi / pi.sum()
        check_invariant(pi, M, "K")
    except ValueError as exc:  # ReducibleChainError or check_invariant's
        raise ReducibleKernelError(f"reducible kernel: {exc}") from exc
    return pi


def total_variation(p: ProbVector, q: ProbVector) -> float:
    return 0.5 * float(np.sum(np.abs(p.weights - q.weights)))


def y_marginal_of(pi: ProbVector, m: FiniteAugmentedModel) -> ProbVector:
    """Project a joint-space distribution onto Y."""
    flat = pi.weights.reshape(m.Y.size, m.U.size).sum(axis=1)
    return ProbVector(flat / flat.sum(), m.Y)
