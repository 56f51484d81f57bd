"""Property tests over random finite models and kernels."""

import functools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import varorder
from varorder.ergodicity import fit_certificate
from varorder.exactify import (ALGORITHMS, FiniteAugmentedModel, extract_kernel,
                               stationary_distribution)
from varorder import cli, toys
from varorder.kernels import (ENTRY_TOL, FiniteKernel, FunctionVector, ProbVector,
                              StateSpace, metropolis)
from varorder.variance import (EIGENVALUE_ONE_TOL, AlternatingModel, ReducibleChainError,
                               _fundamental_solve, asvar_alternating_stack,
                               asvar_homogeneous_stack, truncated_autocov_series)
from oracles import asvar_alternating_two_systems, random_reversible_kernel
from test_ergodicity import assert_bound_dominates


@st.composite
def positive_models(draw):
    ny, nu = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def table(*shape):
        return draw(hnp.arrays(float, shape, elements=st.floats(0.05, 1.0)))

    pi, rcheck, raw_w = table(ny), table(ny, nu), table(ny, nu)
    S, T = table(ny, nu, ny), table(ny, nu, ny, nu)
    rcheck /= rcheck.sum(axis=1, keepdims=True)
    return FiniteAugmentedModel(
        Y=StateSpace(range(ny)), U=StateSpace(range(nu)),
        pi_star=pi / pi.sum(), S=S / S.sum(axis=2, keepdims=True),
        T=T / T.sum(axis=3, keepdims=True), rcheck=rcheck,
        w=raw_w / (rcheck * raw_w).sum(axis=1, keepdims=True))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(positive_models())
def test_extracted_kernels_are_stochastic_with_the_target_law(m):
    for alg in ALGORITHMS:
        K = extract_kernel(alg, m).kernel
        assert np.min(K.matrix) >= -ENTRY_TOL, alg
        assert np.max(np.abs(K.matrix.sum(axis=1) - 1.0)) <= ENTRY_TOL, alg
        if alg == "noisy":
            continue  # the noisy chain does not leave the target invariant
        target = m.pi_star if alg == "marginal_mh" else m.joint_pi.weights
        assert np.max(np.abs(stationary_distribution(K).weights - target)) <= ENTRY_TOL, alg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_certificate_of_a_reversible_product_dominates_its_v_distance(n, seed):
    """P and Q pi-reversible on a shared pi: the certificate of PQ has
    rho <= 1 and bounds ||(PQ)^n(x,.) - pi||_V for n <= 50."""
    rng = np.random.default_rng(seed)
    P, pi = random_reversible_kernel(rng, n)
    Q, _ = random_reversible_kernel(rng, n, pi)
    PQ = FiniteKernel(P.matrix @ Q.matrix, pi.space)
    V = FunctionVector(pi.weights.max() / pi.weights, pi.space)
    cert = fit_certificate(PQ, pi, V)
    assert cert.rho <= 1.0
    assert_bound_dominates(cert, PQ, pi, V, 50)


@st.composite
def gate_inputs(draw):
    """A stochastic M on n = 2-8 states with a random zero pattern, whose two
    diagonal blocks are coupled by weight delta, 0 (reducible) or 10^e for e
    in [-13, -2], a law u (uniform or random), a right-hand side and an
    orientation."""
    n = draw(st.integers(2, 8))
    weights = draw(hnp.arrays(float, (n, n), elements=st.floats(0.05, 1.0)))
    weights[weights < draw(st.floats(0.0, 0.7))] = 0.0
    block = np.arange(n) < draw(st.integers(1, n - 1))
    delta = draw(st.floats(-14.0, -2.0).map(lambda e: 10.0 ** e if e >= -13.0 else 0.0))
    weights = np.where(block[:, None] == block[None, :], weights, delta)
    empty = weights.sum(axis=1) == 0.0
    weights[empty] = np.eye(n)[empty]
    M = weights / weights.sum(axis=1, keepdims=True)
    u = (np.full(n, 1.0 / n) if draw(st.booleans()) else
         draw(hnp.arrays(float, n, elements=st.floats(0.05, 1.0))))
    rhs = draw(hnp.arrays(float, (n, 1), elements=st.floats(-1.0, 1.0)))
    return M, u / u.sum(), rhs, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gate_inputs())
def test_gate_rejects_exactly_when_the_inverse_norm_is_too_large(inputs):
    """_fundamental_solve raises ReducibleChainError exactly when
    ||Z^{-1}||_1 from np.linalg.inv exceeds 1 / EIGENVALUE_ONE_TOL, and
    otherwise returns x with a relative residual ||A x - rhs||_inf below
    1e-12 (A = Z, or Z^T when transposed); norms within rounding of the
    limit are skipped."""
    M, u, rhs, transposed = inputs
    n = M.shape[0]
    Z = np.eye(n) - M + u[None, :]
    try:
        norm = np.linalg.norm(np.linalg.inv(Z), 1)
    except np.linalg.LinAlgError:
        norm = np.inf
    assume(not abs(norm * EIGENVALUE_ONE_TOL - 1.0) <= 1e-6)
    if not norm <= 1.0 / EIGENVALUE_ONE_TOL:
        with pytest.raises(ReducibleChainError):
            _fundamental_solve(FiniteKernel(M), u, rhs, transposed)
        return
    x, _ = _fundamental_solve(FiniteKernel(M), u, rhs, transposed)
    A = Z.T if transposed else Z
    scale = np.max(np.abs(A).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    assert np.max(np.abs(A @ x - rhs)) <= 1e-12 * scale


@st.composite
def row_repeating_kernels(draw):
    """K = E W: m = 1-6 positive rows W on n = m+1 to 24 states, row j
    repeated over a run of random length, and k = 1-3 functions."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m + 1, 24))
    W = draw(hnp.arrays(float, (m, n), elements=st.floats(0.05, 1.0)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1)))
    lengths = np.diff([0, *cuts, n])
    F = draw(hnp.arrays(float, (draw(st.integers(1, 3)), n), elements=st.floats(-1.0, 1.0)))
    return np.repeat(W / W.sum(axis=1, keepdims=True), lengths, axis=0), F


@settings(max_examples=100, deadline=None, derandomize=True)
@given(row_repeating_kernels())
def test_lumped_solves_match_the_full_lu_route(inputs):
    """On a kernel with runs of equal rows, the stationary law and the
    variances from the lumped kernel lie within 1e-12 relative of the full
    kernel's LU route (of Var(f) where v is near 0), and the record names
    the lumped size."""
    M, F = inputs
    K = FiniteKernel(M)
    runs, n = K.row_runs, K.size
    u = np.full(n, 1.0 / n)
    reference = np.maximum(_fundamental_solve(K, u, u[:, None], transposed=True)[0][:, 0], 0.0)
    reference /= reference.sum()
    law = stationary_distribution(K)
    assert np.all(np.abs(law.weights - reference) <= 1e-12 * reference)
    values, _, gate = asvar_homogeneous_stack(K, law, F)
    pi = law.weights
    fbar = F - np.sum(pi * F, axis=-1, keepdims=True)
    g, _ = _fundamental_solve(K, pi, M @ fbar.T)
    w = pi * fbar
    lu = np.maximum(np.sum(w * fbar, axis=-1) + 2.0 * np.sum(w * g.T, axis=-1), 0.0)
    assert np.all(np.abs(values - lu) <= 1e-12 * np.maximum(lu, np.sum(w * fbar, axis=-1)))
    assert gate["solver"] == "lu" and gate["lumped_states"] == runs.size


@st.composite
def alternating_pairs(draw):
    """A pi-invariant pair (P, Q), its pi and an f, of one of three kinds:
    "lazy", a pair from a random lazy quadruple on 2-8 states; "augmented",
    two of the freeze, systematic and random-refresh kernels of a random
    positive augmented model (the refresh products R Q are not reversible);
    "ring", lazy Metropolis walks on a ring of 6-8 states, whose product has
    zero column minima, so the Doeblin gate leaves it to eigvals."""
    kind = draw(st.sampled_from(["lazy", "augmented", "ring"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lazy":
        P0, P1, Q0, Q1, pi, f = (x[0] for x in toys.lazy_quadruples(
            [toys.lazy_quadruple_draws(rng, draw(st.integers(2, 8)))]))
        P, Q = draw(st.sampled_from([(P0, Q0), (P1, Q1), (P0, Q1)]))
        return kind, P, Q, pi, f
    if kind == "augmented":
        m = draw(positive_models())
        P, Q = (extract_kernel(alg, m).kernel.matrix for alg in
                draw(st.sampled_from([("random_refresh", "freeze"),
                                      ("systematic", "freeze"),
                                      ("random_refresh", "systematic")])))
        pi = m.joint_pi.weights
        return kind, P, Q, pi, rng.normal(size=pi.size)
    n = draw(st.integers(6, 8))
    w = rng.uniform(0.2, 1.0, size=n)
    pi = w / w.sum()
    i = np.arange(n)
    ring = np.isin((i[:, None] - i[None, :]) % n, (1, n - 1)) * rng.uniform(0.5, 1.0, (n, n))
    walk = metropolis(ring / ring.sum(axis=1, keepdims=True), pi)
    P, Q = ((1.0 - lazy) * walk + lazy * np.eye(n) for lazy in rng.uniform(0.2, 0.8, 2))
    return kind, P, Q, pi, rng.normal(size=n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alternating_pairs())
def test_one_factorisation_matches_the_two_system_oracle(pair):
    """asvar_alternating_stack's single solve by Z_PQ agrees with the
    oracle's two systems (Z_PQ and Z_QP, the product QP formed) within 1e-12
    relative, and with the truncated covariance series within its
    remainder bound."""
    kind, P, Q, pi, f = pair
    value, _, certified = asvar_alternating_stack(P, Q, pi, f)
    assert certified == (kind != "ring")
    oracle = asvar_alternating_two_systems(P, Q, pi, f)
    assert abs(value - oracle) <= 1e-12 * oracle
    sp = StateSpace(range(pi.size))
    m = AlternatingModel(FiniteKernel(P, sp), FiniteKernel(Q, sp), ProbVector(pi, sp),
                         FunctionVector(f, sp))
    series = truncated_autocov_series(m, 400)
    assert abs(value - series.value) <= series.diagnostics["remainder_bound"] + 1e-10 * value


# the edge values each stand as their own branch, so they come up often
_json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=4),
                         *map(st.just, (math.inf, -math.inf, math.nan, 2 ** 1100)))
_json_values = st.recursive(_json_leaves, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                            max_leaves=4)


@st.composite
def config_documents(draw):
    """JSON-like documents: mostly a known scenario and known keys, with
    values that are ints, floats (inf and nan included), strings, lists and
    dicts; now and then an arbitrary key, or no object at all."""
    keys = st.sampled_from(["scenario", "seed", "params", *cli.TOP_LEVEL_PARAMS])
    values = _json_leaves | _json_values
    doc = draw(st.dictionaries(keys, values, max_size=4))
    often = st.sampled_from([True] * 4 + [False])
    if draw(often):
        doc["scenario"] = draw(st.sampled_from(sorted(cli._REGISTRY)))
    if draw(st.booleans()):
        doc["params"] = draw(st.dictionaries(st.sampled_from(sorted(cli.PARAM_PARSERS)),
                                             values, max_size=2))
    for target in (doc, doc.get("params")):
        if isinstance(target, dict) and not draw(often):
            target[draw(st.text(max_size=6))] = draw(values)
    return doc if draw(often) else draw(values)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(config_documents())
def test_any_config_document_loads_or_is_a_config_error(doc):
    """config_from_document returns a ScenarioConfig or raises ConfigError,
    never another exception; no scenario runs."""
    try:
        cfg = cli.config_from_document(doc)
    except cli.ConfigError:
        return
    assert isinstance(cfg, cli.ScenarioConfig)
    assert set(cfg.params) == set(cli._REGISTRY[cfg.scenario].defaults)


# small valid values of each param, so that a fuzzed run stays short
_RUN_VALID = {"seed": st.integers(0, 2**32), "horizon": st.integers(1, 5),
              "pairs": st.integers(1, 5), "functions": st.integers(1, 3),
              "tries": st.integers(1, 3), "step": st.floats(0.1, 3.0),
              "h": st.floats(0.5, 2.0),
              "epsilons": st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
              "chain_length": st.integers(200, 1000), "replicates": st.integers(1, 3)}
_RUN_INVALID = [0, -1, -3, 1.5, "2", "x", math.inf, -math.inf, math.nan, 2**1100]
_RUN_MAXIMA = {"chain_length": cli.MAX_CHAIN_LENGTH, "horizon": cli.MAX_COUNT,
               "pairs": cli.MAX_COUNT, "functions": cli.MAX_COUNT,
               "tries": cli.MAX_COUNT, "replicates": cli.MAX_COUNT}


@st.composite
def run_documents(draw):
    """A config of any scenario whose seed and params are small and valid or
    left out, with at most one of them invalid or one past its maximum;
    chain_length is never left out, as its default is 100 000 steps."""
    name = draw(st.sampled_from(sorted(cli._REGISTRY)))
    keys = ("seed", *cli._REGISTRY[name].defaults)
    values = {key: draw(_RUN_VALID[key]) for key in keys
              if key == "chain_length" or draw(st.booleans())}
    bad = draw(st.sampled_from([None, *keys]))
    if bad is not None:
        values[bad] = draw(st.sampled_from(
            [*_RUN_INVALID, *([_RUN_MAXIMA[bad] + 1] if bad in _RUN_MAXIMA else [])]))
    top = ("seed", *cli.TOP_LEVEL_PARAMS)
    return {"scenario": name, **{k: v for k, v in values.items() if k in top},
            "params": {k: v for k, v in values.items() if k not in top}}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(run_documents())
@example({"scenario": "abc-random-refresh", "chain_length": 2**1100})
@example({"scenario": "rmcmc-gaussian", "chain_length": 1000, "replicates": 2**1100})
@example({"scenario": "abc-random-refresh", "chain_length": 1000, "params": {"h": 0.01}})
def test_any_small_run_exits_with_a_documented_code(doc):
    """A whole run of any generated config returns 0, 1, 2 or 3 and raises
    nothing: a value that breaks the run inside it is a config error at load.
    A run that exits 0 or 3 reports all_hold as its exit code says, and each
    assertion record names a function of the package and holds exactly when
    its fields say it does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = cli.main(["run", path, "--out-dir", os.path.join(tmp, "out")])
        assert code in (0, 1, 2, 3)
        if code not in (0, 3):
            return
        with open(os.path.join(tmp, "out", "report.json")) as fh:
            report = json.load(fh)
    assert report["all_hold"] is (code == 0)
    assert report["all_hold"] is (bool(report["assertions"])
                                  and all(a["holds"] for a in report["assertions"]))
    for record in report["assertions"]:
        assert record["holds"] is _record_holds(record), record
        assert callable(functools.reduce(getattr, record["called"].split("."), varorder))


def _record_holds(record) -> bool:
    """Whether value stands in relation to limit within tol, by comparisons."""
    value, limit, tol = record["value"], record["limit"], record["tol"]
    if value is None:
        assert record["margin"] is None
        return False
    assert math.isfinite(value) and math.isfinite(record["margin"])
    return {"<=": value <= limit + tol, "<": value < limit + tol,
            ">=": value - limit >= -tol, ">": value - limit > -tol,
            "==": abs(value - limit) <= tol}[record["relation"]]
