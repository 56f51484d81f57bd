"""Finite-state Markov kernel algebra, reversibility and efficiency orderings.

All exact analysis in this package runs through the small set of types
defined here: a labeled finite state space, probability vectors, row
stochastic kernels, and real-valued functions on the space.  Tolerances
are absolute: 1e-12 on matrix/vector entries, 1e-10 on eigenvalues and
inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional, Sequence

import numpy as np

ENTRY_TOL = 1e-12
SPECTRAL_TOL = 1e-10


class StateSpaceMismatchError(ValueError):
    """Raised when an operation mixes kernels on different state spaces."""


class NotReversibleError(ValueError):
    """Raised when a reversible kernel is required but detailed balance fails."""


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateSpace:
    """Finite labeled state space."""

    labels: tuple

    def __init__(self, labels: Sequence):
        object.__setattr__(self, "labels", tuple(labels))
        if self.size < 1:
            raise ValueError("state space must contain at least one state")
        if len(set(self.labels)) != self.size:
            raise ValueError("state labels must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)


def space(n_or_labels) -> StateSpace:
    """Build a StateSpace from a size (labels 0..n-1) or a label sequence."""
    if isinstance(n_or_labels, int):
        return StateSpace(range(n_or_labels))
    return StateSpace(n_or_labels)


@dataclass(frozen=True)
class ProbVector:
    weights: np.ndarray
    space: StateSpace

    def __init__(self, weights, space_: Optional[StateSpace] = None):
        arr = _frozen_array(weights)
        if arr.ndim != 1:
            raise ValueError("probability vector must be one-dimensional")
        sp = space_ if space_ is not None else space(arr.shape[0])
        if arr.shape[0] != sp.size:
            raise ValueError("weight count does not match state space size")
        if not np.all(arr >= 0):  # NaN fails here too
            raise ValueError("probability weights must be nonnegative")
        if not abs(arr.sum() - 1.0) <= ENTRY_TOL:
            raise ValueError(f"weights sum to {arr.sum()!r}, not 1")
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "space", sp)


@dataclass(frozen=True)
class FunctionVector:
    values: np.ndarray
    space: StateSpace

    def __init__(self, values, space_: Optional[StateSpace] = None):
        arr = _frozen_array(values)
        if arr.ndim != 1:
            raise ValueError("function vector must be one-dimensional")
        sp = space_ if space_ is not None else space(arr.shape[0])
        if arr.shape[0] != sp.size:
            raise ValueError("value count does not match state space size")
        if not np.all(np.isfinite(arr)):
            raise ValueError("function values must be finite")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "space", sp)


@dataclass(frozen=True)
class FiniteKernel:
    """Row-stochastic transition matrix over a labeled finite state space."""

    matrix: np.ndarray
    space: StateSpace

    def __init__(self, matrix, space_: Optional[StateSpace] = None):
        arr = _frozen_array(matrix)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("kernel matrix must be square")
        sp = space_ if space_ is not None else space(arr.shape[0])
        if arr.shape[0] != sp.size:
            raise ValueError("matrix size does not match state space size")
        object.__setattr__(self, "matrix", check_stochastic(arr))
        object.__setattr__(self, "space", sp)

    @property
    def size(self) -> int:
        return self.space.size

    @cached_property
    def doeblin_coefficient(self) -> float:
        """_doeblin_coefficient of the matrix, computed once (matrix is a read-only copy)."""
        return float(_doeblin_coefficient(self.matrix))

    @cached_property
    def row_runs(self) -> Optional[np.ndarray]:
        """First row of each run of equal consecutive rows, or None when no two
        consecutive rows are equal, computed once.  Whole rows are compared only
        where the first column ties, so a kernel without runs costs O(n).  Rows
        that differ in one bit start a new run: a missed run costs speed, never
        correctness."""
        M = self.matrix
        tie = np.flatnonzero(M[1:, 0] == M[:-1, 0])
        same = tie[np.all(M[tie + 1] == M[tie], axis=1)] if tie.size else tie
        if same.size == 0:
            return None
        first = np.ones(self.size, dtype=bool)
        first[same + 1] = False
        return np.flatnonzero(first)


def lumped(K: FiniteKernel) -> FiniteKernel:
    """L = W E for a kernel K = E W with runs (K.row_runs): W the distinct rows
    and E the 0/1 map from states to runs, so L sums W's columns over each run.
    K's chain lumps exactly onto the runs (Kemeny & Snell, Finite Markov
    Chains, 1960, 6.3): a law mu with mu L = mu gives pi = mu W with pi K = pi,
    and mu = pi E.  L's Doeblin coefficient is at least K's."""
    starts = K.row_runs
    return FiniteKernel(np.add.reduceat(K.matrix[starts], starts, axis=1))


def _doeblin_coefficient(M: np.ndarray) -> np.ndarray:
    """eps = sum_y min_x M(x, y), the Doeblin coefficient of kernels M
    (..., n, n); 0 where eps < 0 or M is not stochastic within ENTRY_TOL.  O(n^2)."""
    column_min = M.min(axis=-2)
    stochastic = ((column_min.min(axis=-1) >= -ENTRY_TOL)
                  & (np.max(np.abs(M.sum(axis=-1) - 1.0), axis=-1) <= ENTRY_TOL))
    return np.where(stochastic, np.maximum(column_min.sum(axis=-1), 0.0), 0.0)


def check_stochastic(arr: np.ndarray) -> np.ndarray:
    """arr, once every row along its last axis (kernels, stacks of them, or
    distributions) lies in [0, 1] and sums to 1 within ENTRY_TOL; otherwise
    ValueError naming the worst row, counted across the stack."""
    if not np.all((arr >= -ENTRY_TOL) & (arr <= 1.0 + ENTRY_TOL)):
        raise ValueError("kernel entries must lie in [0, 1]")
    rowsums = arr.sum(axis=-1).ravel()
    bad = np.argmax(np.abs(rowsums - 1.0))
    if abs(rowsums[bad] - 1.0) > ENTRY_TOL:
        raise ValueError(f"row {bad} sums to {rowsums[bad]!r}, not 1")
    return arr


def identity_kernel(sp: StateSpace) -> FiniteKernel:
    return FiniteKernel(np.eye(sp.size), sp)


def constant_kernel(pi: ProbVector) -> FiniteKernel:
    """The kernel with every row equal to pi (i.i.d. sampling from pi)."""
    n = pi.space.size
    return FiniteKernel(np.tile(pi.weights, (n, 1)), pi.space)


@dataclass(frozen=True)
class OrderingCertificate:
    """Outcome of an ordering/detailed-balance check.

    value is the figure compared with the tolerance: the largest entry gap, or
    the smallest eigenvalue.  witness is present exactly when the check fails:
    either the offending eigenvalue, or a (i, j, margin) triple locating the
    worst entry.
    """

    holds: bool
    value: float
    witness: Any = None

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a passing certificate carries no witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing certificate must carry a witness")


def _require_same_space(*kernels_: FiniteKernel):
    sp = kernels_[0].space
    for k in kernels_[1:]:
        if k.space.labels != sp.labels:
            raise StateSpaceMismatchError("kernels live on different state spaces")
    return sp


def compose(P: FiniteKernel, Q: FiniteKernel) -> FiniteKernel:
    """Kernel composition PQ (apply P first, then Q)."""
    sp = _require_same_space(P, Q)
    prod = P.matrix @ Q.matrix
    # renormalize the tiny float drift so downstream invariants stay exact
    prod = prod / prod.sum(axis=1, keepdims=True)
    return FiniteKernel(prod, sp)


def detailed_balance_check(P: FiniteKernel, pi: ProbVector,
                           tol: float = ENTRY_TOL) -> OrderingCertificate:
    """Check pi_i P_ij == pi_j P_ji entrywise.

    pi must be strictly positive; states with zero mass are the caller's
    responsibility to exclude.
    """
    if np.any(pi.weights <= 0):
        raise ValueError("pi must be strictly positive on all states")
    flow = pi.weights[:, None] * P.matrix
    gap = np.abs(flow - flow.T)
    return _worst_entry(gap, tol)


def covariance_order_check(P0: FiniteKernel, P1: FiniteKernel, pi: ProbVector,
                           tol: float = SPECTRAL_TOL) -> OrderingCertificate:
    """Decide <f, P1 f> <= <f, P0 f> for every f.

    On a finite space the quadratic form difference is f^T D_pi (P0 - P1) f,
    so the ordering holds iff that symmetric matrix is positive semidefinite.
    The matrix is explicitly symmetrized to suppress round-off asymmetry.
    """
    _require_same_space(P0, P1)
    for P in (P0, P1):
        if not detailed_balance_check(P, pi, tol=1e-9).holds:
            raise NotReversibleError("covariance ordering requires pi-reversible kernels")
    D = pi.weights[:, None] * (P0.matrix - P1.matrix)
    D = (D + D.T) / 2.0
    lam_min = float(np.linalg.eigvalsh(D)[0])
    holds = lam_min >= -tol
    return OrderingCertificate(holds=holds, value=lam_min, witness=None if holds else lam_min)


def _worst_entry(gap: np.ndarray, tol: float) -> OrderingCertificate:
    """Holds when every entry of gap is at most tol; else the worst (i, j, gap) is the witness."""
    i, j = np.unravel_index(np.argmax(gap), gap.shape)
    worst = float(gap[i, j])
    return OrderingCertificate(holds=worst <= tol, value=worst,
                               witness=None if worst <= tol else (int(i), int(j), worst))


def off_diagonal_order_check(P0: FiniteKernel, P1: FiniteKernel,
                             tol: float = ENTRY_TOL) -> OrderingCertificate:
    """Peskun ordering: P1 puts at least as much mass off-diagonal as P0."""
    _require_same_space(P0, P1)
    gap = P0.matrix - P1.matrix  # positive entries off-diagonal violate the order
    np.fill_diagonal(gap, -np.inf)
    return _worst_entry(gap, tol)


def _mh_acceptance(flow: np.ndarray) -> np.ndarray:
    """Metropolis-Hastings acceptance 1 ^ flow_ji / flow_ij over the last two
    axes; 1 where flow_ij = 0, a move that is never proposed."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(flow > 0, np.minimum(1.0, np.swapaxes(flow, -1, -2) / flow), 1.0)


def metropolis(K: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Metropolis kernels for stochastic proposals K (..., n, n) and positive
    targets pi (..., n): the acceptance rule enforces detailed balance
    exactly (up to float round-off far below ENTRY_TOL)."""
    P = K * _mh_acceptance(pi[..., :, None] * K)
    diag = np.arange(K.shape[-1])
    P[..., diag, diag] = 0.0
    P[..., diag, diag] = 1.0 - P.sum(axis=-1)
    return P
