"""Geometric-decay certificates and the covariance-bound verification."""

import numpy as np
import pytest

from varorder import exactify, toys
from varorder.ergodicity import (DriftCertificate, GeometricFitError,
                                 drift_check, fit_certificate,
                                 geometric_bound_fit, summability_certificate,
                                 v_norm_distance)
from varorder.kernels import (FiniteKernel, FunctionVector, ProbVector,
                              constant_kernel)


def registry_pieces():
    m = toys.registry_toy()
    pi = m.joint_pi
    V = FunctionVector(1.0 / (pi.weights / pi.weights.max()), pi.space)
    return m, pi, V


# ---- norms and drift ----

def test_v_norm_distance_requires_v_at_least_one():
    sp = toys.two_state_space()
    with pytest.raises(ValueError):
        v_norm_distance(np.array([0.1, -0.1]), FunctionVector([0.5, 2.0], sp))


def test_v_norm_distance_value():
    sp = toys.two_state_space()
    V = FunctionVector([1.0, 3.0], sp)
    assert v_norm_distance(np.array([0.2, -0.1]), V) == pytest.approx(0.5)


def test_drift_check_minimal_b():
    pi = ProbVector([0.5, 0.5])
    P = constant_kernel(pi)
    V = FunctionVector([1.0, 3.0], pi.space)
    holds, b = drift_check(P, V, lam=0.5)
    # PV = 2 everywhere; the binding state is V = 1
    assert holds and b == pytest.approx(1.5)
    holds2, b2 = drift_check(P, V, lam=0.9)
    assert holds2 and b2 < b


def test_drift_check_validates_inputs():
    pi = ProbVector([0.5, 0.5])
    V = FunctionVector([1.0, 3.0], pi.space)
    with pytest.raises(ValueError):
        drift_check(constant_kernel(pi), V, lam=1.5)


# ---- geometric fit ----

def test_geometric_fit_bound_extends_beyond_fit_horizon():
    """(C, rho) fitted on n <= 60 keep bounding the V-distance at n <= 200,
    because rho deliberately exceeds the second eigenvalue modulus."""
    m, pi, V = registry_pieces()
    K = exactify.extract_kernel("systematic", m).kernel
    C, rho = geometric_bound_fit(K, pi, V, n_max=60)
    assert 0 < rho < 1
    Pn = np.eye(K.size)
    for n in range(200):
        for x in range(K.size):
            dist = v_norm_distance(Pn[x] - pi.weights, V)
            assert dist <= C * rho ** n * V.values[x] * (1 + 1e-9) + 1e-12
        Pn = Pn @ K.matrix


def test_geometric_fit_requires_v_at_least_one():
    m, pi, _ = registry_pieces()
    K = exactify.extract_kernel("systematic", m).kernel
    V = FunctionVector(np.full(pi.space.size, 0.5), pi.space)
    with pytest.raises(ValueError, match="V must be >= 1"):
        geometric_bound_fit(K, pi, V)


def test_reducible_kernel_has_no_certificate():
    sp = toys.two_state_space()
    pi = toys.uniform_two_state()
    V = FunctionVector([1.0, 1.0], sp)
    with pytest.raises(GeometricFitError):
        geometric_bound_fit(FiniteKernel(np.eye(2), sp), pi, V)


def test_periodic_kernel_has_no_certificate():
    pi = toys.uniform_two_state()
    V = FunctionVector([1.0, 1.0], pi.space)
    with pytest.raises(GeometricFitError):
        geometric_bound_fit(toys.flip_kernel(), pi, V)


def test_fit_certificate_document_roundtrip():
    m, pi, V = registry_pieces()
    K = exactify.extract_kernel("systematic", m).kernel
    cert = fit_certificate(K, pi, V, lam=0.95)
    assert isinstance(cert, DriftCertificate)
    doc = cert.to_document()
    assert set(doc) == {"V", "lambda", "b", "C", "rho"}
    assert doc["rho"] == cert.rho


# ---- covariance bounds ----

def test_summability_certificate_holds_on_registry_toy():
    m, pi, V = registry_pieces()
    P = exactify.random_refresh_kernel(m)
    Q = exactify.accept_kernel(m)
    rng = np.random.default_rng(77)
    for _ in range(5):
        f = FunctionVector(rng.normal(size=pi.space.size), pi.space)
        report = summability_certificate(P, Q, pi, f, V, n_horizon=50)
        assert report.holds
        assert report.max_bound_slack >= 0.0
        assert report.scale >= max(report.f_vhalf_norm, report.pf_vhalf_norm) - 1e-12


def test_summability_certificate_document():
    m, pi, V = registry_pieces()
    P = exactify.systematic_refresh_kernel(m)
    Q = exactify.accept_kernel(m)
    f = FunctionVector(np.arange(pi.space.size, dtype=float), pi.space)
    doc = summability_certificate(P, Q, pi, f, V).to_document()
    assert doc["holds"] is True
    assert "certificate" in doc and "rho" in doc["certificate"]


def test_summability_certificate_rejects_periodic_product():
    pi = toys.uniform_two_state()
    V = FunctionVector([1.0, 1.0], pi.space)
    f = FunctionVector([-1.0, 1.0], pi.space)
    flip = toys.flip_kernel()
    with pytest.raises(GeometricFitError):
        summability_certificate(flip, flip, pi, f, V)
