import math

import numpy as np
import pytest

from gkpkit import gaussian
from gkpkit.errors import InvalidArgumentError
from gkpkit.fock import displacement_matrix, expectation, quadrature_matrix
from gkpkit.gaussian import (
    GaussianPureParams,
    covariance_from_params,
    gaussian_bound,
    gaussian_expectation,
    minimize,
    minimize_over_gaussians,
    squeezed_vacuum_fock,
)
from gkpkit.operators import gkp_operator

S2 = 1 / math.sqrt(2)
S3 = 1 / math.sqrt(3)


def test_covariance_vacuum():
    for theta in (0.0, 0.7, -1.2):
        sxx, sxp, spp = covariance_from_params(GaussianPureParams(0, 0, 0, theta))
        assert (sxx, sxp, spp) == pytest.approx((0.5, 0.0, 0.5), abs=1e-15)


def test_covariance_squeezed():
    sxx, sxp, spp = covariance_from_params(GaussianPureParams(0, 0, 1.0, 0.0))
    assert sxx == pytest.approx(math.exp(-2) / 2)
    assert sxp == pytest.approx(0.0, abs=1e-15)
    assert spp == pytest.approx(math.exp(2) / 2)


def test_variance_x_minus_p_minimized_at_diagonal_angle():
    sxx, sxp, spp = covariance_from_params(GaussianPureParams(0, 0, 1.0, -math.pi / 4))
    assert sxx - 2 * sxp + spp == pytest.approx(math.exp(-2))


def test_purity_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        g = GaussianPureParams(*rng.uniform(-2, 2, size=4))
        sxx, sxp, spp = covariance_from_params(g)
        assert sxx * spp - sxp**2 == pytest.approx(0.25, abs=1e-10)


def test_gaussian_R_vacuum():
    g = GaussianPureParams(0, 0, 0, 0)
    ref = (2 * math.exp(-math.pi) + math.exp(-2 * math.pi)) / 3 + math.exp(
        -math.pi / 4
    )
    assert gaussian_expectation(g, (0, 0, 1)) == pytest.approx(2 - ref, abs=1e-12)


def test_gaussian_R_infinite_squeezing_limit():
    g = GaussianPureParams(0, 0, 18.0, 0.0)
    assert 2 - gaussian_expectation(g, (0, 0, 1)) == pytest.approx(4 / 3, abs=1e-9)


def test_gaussian_expectation_matches_fock_route():
    # squeezed vacuum at theta = 0; truncation absorbed by the tolerance
    for r in (0.0, 0.5, 1.0):
        state = squeezed_vacuum_fock(r, 200)
        for u in ((0, 0, 1), (S2, S2, 0)):
            fock_val = expectation(gkp_operator(u, 200), state)
            closed = gaussian_expectation(GaussianPureParams(0, 0, r, 0), u)
            assert abs(fock_val - closed) < 2e-3


def test_gaussian_R_matches_displaced_rotated_squeezed_fock_states():
    # D(alpha) R(phi) S(|r|)|0> with alpha = (x0 + i p0) / sqrt(2); the
    # rotation e^(-i phi n) takes phi = -theta for r > 0, pi/2 - theta for r < 0
    kept, padded = 260, 460
    levels = np.arange(padded)
    x, p = quadrature_matrix(1, 0, kept), quadrature_matrix(0, 1, kept)
    rng = np.random.default_rng(7)
    for _ in range(12):
        x0, p0, r = rng.uniform((-2, -2, -1), (2, 2, 1))
        theta = rng.uniform(-math.pi, math.pi)
        phi = -theta if r > 0 else math.pi / 2 - theta
        squeezed = squeezed_vacuum_fock(abs(r), padded) * np.exp(-1j * phi * levels)
        state = displacement_matrix((x0 + 1j * p0) / math.sqrt(2), padded) @ squeezed
        state = state[:kept]
        mean_x, mean_p = expectation(x, state), expectation(p, state)
        fock_cov = (
            expectation(x @ x, state) - mean_x**2,
            expectation((x @ p + p @ x) / 2, state) - mean_x * mean_p,
            expectation(p @ p, state) - mean_p**2,
        )
        g = GaussianPureParams(x0, p0, r, theta)
        assert np.max(np.abs(np.subtract(fock_cov, covariance_from_params(g)))) <= 1e-12
        assert max(abs(mean_x - x0), abs(mean_p - p0)) <= 1e-12
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        fock_val = expectation(gkp_operator(u, kept), state)
        assert abs(fock_val - gaussian_expectation(g, u)) <= 1e-12


def test_squeezed_vacuum_variance():
    state = squeezed_vacuum_fock(1.0, 120)
    n = np.arange(120)
    # <x^2> from the tridiagonal x matrix elements
    x_off = np.sqrt((n[:-1] + 1) / 2)
    mean_x2 = np.sum(np.abs(state) ** 2 * (2 * n + 1) / 2) + 2 * np.sum(
        (state[:-2].conj() * state[2:]).real * x_off[:-1] * x_off[1:]
    )
    assert mean_x2 == pytest.approx(math.exp(-2) / 2, abs=1e-8)


def test_gaussian_bound_values():
    assert gaussian_bound((0, 0, 1)) == pytest.approx(2 / 3)
    assert gaussian_bound((S2, S2, 0)) == pytest.approx(5 / 3 - S2)
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        assert 5 / 3 - 1 - 1e-12 <= gaussian_bound(u) <= 5 / 3 - S3 + 1e-12


@pytest.mark.parametrize(
    "u",
    [(0, 0, 1), (S2, S2, 0), (S3, S3, S3)],
)
def test_minimize_reaches_analytic_bound(u):
    (value,), params = minimize_over_gaussians([u], budget=150, seed=0)
    assert abs(value - gaussian_bound(u)) <= 1e-3
    assert value >= gaussian_bound(u) - 1e-9
    assert abs(params.r[0]) <= gaussian.R_MAX


def test_minimize_rejects_small_budget():
    for budget in (50, 107):
        with pytest.raises(InvalidArgumentError, match="budget must be >= 108"):
            minimize_over_gaussians([(0, 0, 1)], budget=budget)


def test_rmax_saturation(monkeypatch):
    assert gaussian.R_MAX == 6.0
    v6, _ = minimize_over_gaussians([(0, 0, 1)], budget=120, seed=0)
    monkeypatch.setattr(gaussian, "R_MAX", 8.0)
    v8, _ = minimize_over_gaussians([(0, 0, 1)], budget=120, seed=0)
    assert abs(v6[0] - v8[0]) < 1e-4


def test_non_gaussian_ground_state_beats_bound():
    from gkpkit.fock import ground_state

    u = np.array([0, 0, 1.0])
    _, psi = ground_state(gkp_operator(u, 50))
    val = expectation(gkp_operator(u, 50), psi)
    assert val < gaussian_bound(u)


def _clipped_expectation(points, u):
    x0, p0, r, theta = np.asarray(points, dtype=float).T
    r = np.clip(r, -gaussian.R_MAX, gaussian.R_MAX)
    return gaussian_expectation(GaussianPureParams(x0, p0, r, theta), u)


def test_lockstep_nelder_mead_matches_scipy_lane_by_lane(monkeypatch):
    from scipy.optimize import minimize as scipy_minimize

    rng = np.random.default_rng(11)
    targets = np.array([(0, 0, 1.0), (S2, S2, 0), (S3, -S3, S3)])
    starts = rng.uniform((0, 0, 0, -math.pi / 2), (4, 4, 6, math.pi / 2), size=(40, 4))
    x0 = np.tile(starts, (len(targets), 1))
    owner = np.repeat(np.arange(len(targets)), len(starts))
    calls = np.zeros(len(x0), dtype=int)

    def objective(points, lanes):
        np.add.at(calls, lanes, 1)
        return _clipped_expectation(points, targets[owner[lanes]])

    result = minimize(objective, x0, xatol=1e-7, fatol=1e-10, maxiter=2000)
    assert result.nfev == calls.sum()
    # Once r is clipped or a term underflows, simplex values tie exactly, and
    # numpy's default argsort orders ties differently on hosts with SIMD
    # sorts; the oracle runs with the stable order the lockstep search uses.
    argsort = np.argsort
    monkeypatch.setattr(
        np, "argsort", lambda a, axis=-1, **_: argsort(a, axis=axis, kind="stable")
    )
    same_nfev = 0
    for lane, start in enumerate(x0):
        seen = []

        def scalar(vec, u=targets[owner[lane]]):
            seen.append(_clipped_expectation(vec, u))
            return seen[-1]

        ref = scipy_minimize(
            scalar, start, method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 2000},
        )
        # the final vertex is the lowest value the lane ever evaluated
        assert ref.fun == min(seen)
        assert abs(result.fun[lane] - ref.fun) <= 1e-9
        same_nfev += calls[lane] == ref.nfev
    assert same_nfev >= 0.95 * len(x0)


@pytest.mark.parametrize("budget", [200, 120, 108])
def test_batched_search_equals_single_target_calls(budget):
    targets = np.array([(0, 0, 1.0), (S2, S2, 0), (S3, S3, S3), (0.6, -0.8, 0)])
    values, params = minimize_over_gaussians(targets, budget=budget, seed=3)
    for i in range(len(targets)):
        row = targets[i : i + 1]
        value, single = minimize_over_gaussians(row, budget=budget, seed=3)
        assert value[0] == values[i]
        for field in ("x0", "p0", "r", "theta"):
            assert getattr(single, field)[0] == getattr(params, field)[i]


def test_batched_search_shapes():
    targets = np.array([(0, 0, 1.0), (S2, 0, S2)])
    values, params = minimize_over_gaussians(targets, budget=108, seed=0)
    assert values.shape == (2,)
    for field in ("x0", "p0", "r", "theta"):
        assert np.shape(getattr(params, field)) == (2,)
