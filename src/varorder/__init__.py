"""varorder: exact and simulated efficiency comparisons for data-augmentation
MCMC refreshment schemes.

The package computes asymptotic variances of finite-state chains in closed
form, extracts exact transition matrices for the freeze / refreshment /
pseudo-marginal sampler family, checks reversibility and efficiency
orderings, and runs the corresponding simulators on general state spaces.
"""

from . import ergodicity, exactify, special_cases
from .kernels import (FiniteKernel, FunctionVector, OrderingCertificate,
                      ProbVector, StateSpace, covariance_order_check,
                      detailed_balance_check, off_diagonal_order_check)
from .samplers import (AugmentedTargetModel, ChainState, ChainTrace, Proposal,
                       RngStream)
from .variance import (AlternatingModel, VarianceReport, asvar_alternating,
                       asvar_homogeneous, batch_means_variance)

__version__ = "0.1.0"

__all__ = [
    "AlternatingModel", "AugmentedTargetModel", "ChainState", "ChainTrace",
    "FiniteKernel", "FunctionVector", "OrderingCertificate", "ProbVector",
    "Proposal", "RngStream", "StateSpace", "VarianceReport", "asvar_alternating",
    "asvar_homogeneous", "batch_means_variance", "covariance_order_check",
    "detailed_balance_check", "off_diagonal_order_check",
]
