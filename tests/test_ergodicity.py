"""Geometric-decay certificates and the covariance-bound verification."""

import numpy as np
import pytest

from varorder import exactify, toys
from varorder.ergodicity import (DEFAULT_N_MAX, NOISE_FLOOR, RHO_MARGIN,
                                 DriftCertificate, GeometricFitError, _slem,
                                 drift_check, fit_certificate,
                                 geometric_bound_fit, summability_certificate)
from varorder.kernels import (FiniteKernel, FunctionVector, ProbVector,
                              constant_kernel, random_reversible_kernel)
from test_exactify import random_model


def registry_pieces():
    m = toys.registry_toy()
    pi = m.joint_pi
    V = FunctionVector(1.0 / (pi.weights / pi.weights.max()), pi.space)
    return m, pi, V


# ---- drift ----

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
    C, rho, _ = geometric_bound_fit(K, pi, V, n_max=60)
    assert 0 < rho < 1
    Pn = np.eye(K.size)
    for n in range(200):
        for x in range(K.size):
            dist = np.sum(np.abs(Pn[x] - pi.weights) * V.values)  # ||P^n(x,.) - pi||_V
            assert dist <= C * rho ** n * V.values[x] * (1 + 1e-9) + 1e-12
        Pn = Pn @ K.matrix


def test_geometric_fit_requires_v_at_least_one():
    m, pi, _ = registry_pieces()
    K = exactify.extract_kernel("systematic", m).kernel
    V = FunctionVector(np.full(pi.space.size, 0.5), pi.space)
    with pytest.raises(ValueError, match="V must be >= 1"):
        geometric_bound_fit(K, pi, V)


def full_horizon_fit(P, pi, V, n_max=200):
    """The fit without its exit, examining every step up to n_max.  Returns
    (C, rho), the first step at which no row is live, max(C, 1) over the
    steps before that one, and whether a row was live again after it."""
    rho = _slem(P) + RHO_MARGIN
    C, C_before, first_dead, rose = 0.0, None, None, False
    Pn = np.eye(P.size)
    for step in range(n_max + 1):
        dist = np.sum(np.abs(Pn - pi.weights) * V.values, axis=-1)
        live = dist > NOISE_FLOOR
        if live.any():
            C = max(C, float(np.max(dist[live] / (rho ** step * V.values[live]))))
            rose = rose or first_dead is not None
        elif first_dead is None:
            first_dead, C_before = step, max(C, 1.0)
        Pn = Pn @ P.matrix
    return max(C, 1.0), rho, first_dead, C_before, rose


def fit_cases():
    """The registry toy's pi-invariant kernels and products, then 52 seeded
    random reversible kernels of 4 to 256 states."""
    m, pi, V = registry_pieces()
    Q = exactify.accept_kernel(m)
    cases = [(exactify.extract_kernel(a, m).kernel, pi, V)
             for a in ("freeze", "systematic", "random_refresh")]
    cases += [(FiniteKernel(P.matrix @ Q.matrix, pi.space), pi, V)
              for P in (exactify.systematic_refresh_kernel(m),
                        exactify.random_refresh_kernel(m))]
    for seed, n in enumerate([4, 5, 6, 8, 12, 16, 24, 32, 48, 64] * 5 + [128, 256]):
        K, pi_r = random_reversible_kernel(np.random.default_rng(seed), n)
        cases.append((K, pi_r, FunctionVector(pi_r.weights.max() / pi_r.weights, pi_r.space)))
    return cases


def test_geometric_fit_equals_the_full_horizon_fit():
    """Stopping at the first step with no live row leaves (C, rho) bit-identical."""
    for i, (K, pi, V) in enumerate(fit_cases()):
        C, rho, horizon = geometric_bound_fit(K, pi, V)
        C_full, rho_full, first_dead, _, _ = full_horizon_fit(K, pi, V)
        assert (C, rho) == (C_full, rho_full), i
        assert horizon == (DEFAULT_N_MAX if first_dead is None else first_dead), i


def test_geometric_fit_stops_before_round_off_rises():
    """On this kernel the V-distance reaches the floor (at step 24) and later
    climbs back above it: the stored rows sum to 1 only within about 3e-16,
    and P^n compounds that defect step by step.  Fitting those steps divides
    round-off by rho^n and inflates C past 1e100; the fit stops at the floor
    and keeps the C of the steps before it."""
    m = random_model(np.random.default_rng(2649), 2, 5)
    pi = m.joint_pi
    V = FunctionVector(pi.weights.max() / pi.weights, pi.space)
    K = exactify.extract_kernel("systematic", m).kernel
    C, rho, horizon = geometric_bound_fit(K, pi, V)
    C_full, rho_full, first_dead, C_before, rose = full_horizon_fit(K, pi, V)
    assert rose and horizon == first_dead
    assert (C, rho) == (C_before, rho_full)
    assert C < 10.0 and C_full > 1e20 * C


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
    assert set(doc) == {"V", "lambda", "b", "C", "rho", "horizon"}
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


def lag_by_lag_slack(P, Q, pi, g, C, rho, piV, n_horizon):
    """min over lags of bound - |cov|, one lag at a time."""
    def cov(u):
        return abs(float(np.sum(pi.weights * g * u)))
    A, slack = P.matrix @ Q.matrix, np.inf
    vec, vec_p = g.copy(), P.matrix @ g
    for n in range(n_horizon + 1):
        bound = (2.0 * C * rho ** n) ** 0.5 * piV
        if n >= 1:  # X0-anchored lag 2n; lag 0 is the variance
            slack = min(slack, bound - cov(vec))
        slack = min(slack, bound - cov(vec_p))  # X0-anchored lag 2n+1
        if n < n_horizon:  # X1-anchored lags 2n+2, 2n+3 share the bound
            slack = min(slack, bound - cov(Q.matrix @ vec), bound - cov(Q.matrix @ vec_p))
        vec, vec_p = A @ vec, A @ vec_p
    return slack


def test_summability_slack_equals_the_lag_by_lag_minimum():
    m, pi, V = registry_pieces()
    Q = exactify.accept_kernel(m)
    rng = np.random.default_rng(5)
    piV = float(np.sum(pi.weights * V.values))
    for P in (exactify.systematic_refresh_kernel(m), exactify.random_refresh_kernel(m)):
        for n_horizon in (0, 1, 4, 50):
            f = FunctionVector(rng.normal(size=pi.space.size), pi.space)
            report = summability_certificate(P, Q, pi, f, V, n_horizon=n_horizon)
            fbar = f.values - float(np.sum(pi.weights * f.values))
            expected = lag_by_lag_slack(P, Q, pi, fbar / report.scale, report.certificate.C,
                                        report.certificate.rho, piV, n_horizon)
            assert report.max_bound_slack == pytest.approx(expected, rel=1e-15, abs=0.0)


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
