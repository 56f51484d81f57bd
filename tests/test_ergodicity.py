"""Geometric-decay certificates and the covariance-bound verification."""

import math

import numpy as np
import pytest

from varorder import ergodicity, exactify, toys
from varorder.ergodicity import (SLACK_TOL, DriftCertificate, GeometricFitError,
                                 UndecidableHorizonError, drift_check, fit_certificate,
                                 summability_certificate)
from varorder.kernels import (FiniteKernel, FunctionVector, ProbVector,
                              constant_kernel)
from varorder.samplers import RngStream
from varorder.variance import alternating_autocov
from oracles import random_reversible_kernel
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


# ---- geometric certificate ----

def v_distances(P, pi, V, n_max):
    """Rows ||P^n(x,.) - pi||_V for n = 0..n_max, by repeated dense products."""
    out, Pn = [], np.eye(P.size)
    for _ in range(n_max + 1):
        out.append(np.sum(np.abs(Pn - pi.weights) * V.values, axis=-1))
        Pn = Pn @ P.matrix
    return np.array(out)


def assert_bound_dominates(cert, P, pi, V, n_max):
    """C rho^n V(x), plus round-off of (n + 1) 1e-12, bounds every row at every n <= n_max."""
    n = np.arange(n_max + 1)[:, None]
    bound = cert.C * cert.rho ** n * V.values + (n + 1) * 1e-12
    dist = v_distances(P, pi, V, n_max)
    assert np.all(dist <= bound), np.argwhere(dist > bound)[:3]


def test_geometric_fit_bound_extends_beyond_fit_horizon():
    """The certificate has no horizon: the entrywise bound it rests on,
    |P^n(x,y) - pi(y)| <= rho^n sqrt(pi(y)/pi(x)), holds at every n <= 400."""
    m, pi, V = registry_pieces()
    K = exactify.extract_kernel("systematic", m).kernel
    rho = fit_certificate(K, pi, V).rho
    assert 0 < rho < 1
    ratio = np.sqrt(pi.weights[None, :] / pi.weights[:, None])
    Pn = K.matrix.copy()
    for n in range(1, 401):
        assert np.all(np.abs(Pn - pi.weights) <= rho ** n * ratio + 1e-14), n
        Pn = Pn @ K.matrix


def test_geometric_fit_requires_v_at_least_one():
    m, pi, _ = registry_pieces()
    K = exactify.extract_kernel("systematic", m).kernel
    V = FunctionVector(np.full(pi.space.size, 0.5), pi.space)
    with pytest.raises(ValueError, match="V must be >= 1"):
        fit_certificate(K, pi, V)


def test_certificate_requires_an_invariant_pi():
    m, pi, V = registry_pieces()
    K = exactify.extract_kernel("systematic", m).kernel
    other = ProbVector(np.full(pi.space.size, 1.0 / pi.space.size), pi.space)
    with pytest.raises(ValueError, match="not invariant"):
        fit_certificate(K, other, V)


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


def test_certificate_dominates_the_v_distance_at_every_step():
    """Against the 200-step V-distance oracle: C rho^n V(x) bounds every row,
    and rho lies between the spectral radius of P - Pi and 1."""
    for i, (K, pi, V) in enumerate(fit_cases()):
        cert = fit_certificate(K, pi, V)
        spectral_radius = np.max(np.abs(np.linalg.eigvals(K.matrix - pi.weights)))
        assert spectral_radius <= cert.rho * (1 + 1e-12) and cert.rho < 1.0, i
        assert_bound_dominates(cert, K, pi, V, 200)


def test_certificate_constants_match_their_definitions():
    """rho^2 is the second eigenvalue of Fill's multiplicative reversibilization
    P P*, with P*(x,y) = pi(y) P(y,x) / pi(x), and C is the state-by-state
    maximum of sum_y sqrt(pi(y)/pi(x)) V(y)/V(x)."""
    for i, (K, pi, V) in enumerate(fit_cases()):
        cert = fit_certificate(K, pi, V)
        w, P = pi.weights, K.matrix
        reversal = P.T * w[None, :] / w[:, None]
        eigs = np.sort(np.linalg.eigvals(P @ reversal).real)
        assert cert.rho ** 2 == pytest.approx(eigs[-2], rel=1e-10, abs=1e-14), i
        C = max(sum(np.sqrt(w[y] / w[x]) * V.values[y] / V.values[x] for y in range(K.size))
                for x in range(K.size))
        assert cert.C == pytest.approx(C, rel=1e-12), i


def test_certificate_is_unmoved_by_round_off():
    """On this kernel the V-distance reaches its round-off plateau (about
    1e-13) by step 24 and then climbs, as P^n compounds the rows' 3e-16
    defect from summing to 1.  A fit over those steps would divide the
    round-off by rho^n; the closed form never looks at P^n, and its bound
    stays above the plateau's slow climb up to step 200."""
    m = random_model(np.random.default_rng(2649), 2, 5)
    pi = m.joint_pi
    V = FunctionVector(pi.weights.max() / pi.weights, pi.space)
    K = exactify.extract_kernel("systematic", m).kernel
    cert = fit_certificate(K, pi, V)
    dist = v_distances(K, pi, V, 200).max(axis=1)
    assert dist[24] < 1e-12 and dist[200] > dist[24]
    assert cert.C < 100.0 and cert.rho < 1.0
    assert_bound_dominates(cert, K, pi, V, 200)


def test_reducible_kernel_has_no_certificate():
    sp = toys.two_state_space()
    pi = toys.uniform_two_state()
    V = FunctionVector([1.0, 1.0], sp)
    with pytest.raises(GeometricFitError):
        fit_certificate(FiniteKernel(np.eye(2), sp), pi, V)


def test_periodic_kernel_has_no_certificate():
    pi = toys.uniform_two_state()
    V = FunctionVector([1.0, 1.0], pi.space)
    with pytest.raises(GeometricFitError):
        fit_certificate(toys.flip_kernel(), pi, V)


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
        assert report.min_bound_slack >= 0.0
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
            assert report.min_bound_slack == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_relative_slack_is_the_lag_by_lag_minimum_of_one_minus_the_ratio():
    """min_relative_slack is the minimum over lags l and start parities p of
    1 - |cov(l, p)| / bound((l - p) // 2), with the first (l, p) that attains
    it, recomputed from variance.alternating_autocov one lag at a time.  For
    the ergodicity-certificates scenario's f at seeds 1, 7 and 42 it lies in
    (0.9, 1), although min_bound_slack is the size of the last lag's bound."""
    m, pi, V = registry_pieces()
    Q = exactify.accept_kernel(m)
    piV = float(np.sum(pi.weights * V.values))
    for P in (exactify.systematic_refresh_kernel(m), exactify.random_refresh_kernel(m)):
        for seed in (1, 7, 42):
            gen = RngStream("ergodicity-certificates", seed).generator
            f = FunctionVector(gen.normal(size=pi.space.size), pi.space)
            report = summability_certificate(P, Q, pi, f, V, n_horizon=50)
            C, rho = report.certificate.C, report.certificate.rho
            fbar = f.values - float(np.sum(pi.weights * f.values))
            cov = alternating_autocov(P.matrix, Q.matrix, pi.weights, fbar / report.scale, 102)
            best = (np.inf, None, None)
            for lag in range(1, 102):
                for parity in range(2) if lag <= 100 else (0,):
                    bound = (2.0 * C * rho ** ((lag - parity) // 2)) ** 0.5 * piV
                    best = min(best, (1.0 - abs(cov[lag, parity]) / bound, lag, parity),
                               key=lambda entry: entry[0])
            doc = report.to_document()["min_relative_slack"]
            assert doc["value"] == pytest.approx(best[0], rel=1e-12, abs=0.0)
            assert (doc["lag"], doc["parity"]) == best[1:]
            assert 0.9 < doc["value"] < 1.0 and report.min_bound_slack < 1e-7


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


def test_summability_certificate_rejects_a_negative_horizon():
    m, pi, V = registry_pieces()
    f = FunctionVector(np.arange(pi.space.size, dtype=float), pi.space)
    with pytest.raises(ValueError, match="n_horizon"):
        summability_certificate(exactify.systematic_refresh_kernel(m),
                                exactify.accept_kernel(m), pi, f, V, n_horizon=-1)


class CovarianceComputed(Exception):
    pass


def no_covariance(*args):
    raise CovarianceComputed


@pytest.mark.parametrize("refresh, decidable", [(exactify.systematic_refresh_kernel, 77),
                                               (exactify.random_refresh_kernel, 78)])
def test_undecidable_horizon_is_refused_before_any_covariance(monkeypatch, refresh,
                                                              decidable):
    """Past the last lag whose bound exceeds SLACK_TOL the check could not
    fail, so summability_certificate refuses the horizon from the fitted
    certificate alone, naming that lag, for every caller."""
    m, pi, V = registry_pieces()
    P, Q = refresh(m), exactify.accept_kernel(m)
    f = FunctionVector(np.arange(pi.space.size, dtype=float), pi.space)
    assert summability_certificate(P, Q, pi, f, V, n_horizon=decidable).holds
    monkeypatch.setattr(ergodicity, "alternating_autocov", no_covariance)
    for n_horizon in (decidable + 1, 500_000):
        with pytest.raises(UndecidableHorizonError,
                           match=f"horizon must be <= {decidable}, got {n_horizon}:"):
            summability_certificate(P, Q, pi, f, V, n_horizon=n_horizon)


def test_refusal_lag_matches_the_closed_form(monkeypatch):
    """The refusal lag is the last k with (2 C rho^k)^(1/2) pi(V) > SLACK_TOL,
    ceil(log(SLACK_TOL^2 / (2 C pi(V)^2)) / log rho) - 1, on random
    pi-reversible pairs sharing one pi with V = max pi / pi."""
    monkeypatch.setattr(ergodicity, "alternating_autocov", no_covariance)
    rng = np.random.default_rng(31)
    for n in (3, 5, 8):
        for _ in range(4):
            P, pi = random_reversible_kernel(rng, n)
            Q, _ = random_reversible_kernel(rng, n, pi)
            V = FunctionVector(pi.weights.max() / pi.weights, pi.space)
            f = FunctionVector(rng.normal(size=n), pi.space)
            cert = fit_certificate(FiniteKernel(P.matrix @ Q.matrix, P.space), pi, V)
            piV = float(np.sum(pi.weights * V.values))
            decidable = math.ceil(math.log(SLACK_TOL ** 2 / (2.0 * cert.C * piV ** 2))
                                  / math.log(cert.rho)) - 1
            with pytest.raises(CovarianceComputed):
                summability_certificate(P, Q, pi, f, V, n_horizon=decidable)
            with pytest.raises(UndecidableHorizonError,
                               match=f"horizon must be <= {decidable}, "):
                summability_certificate(P, Q, pi, f, V, n_horizon=decidable + 1)
