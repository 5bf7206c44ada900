import math

import numpy as np
import pytest

from gkpkit import gaussian
from gkpkit.bloch import core_states
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


def test_minimize_converges_on_every_lane():
    # sum_i cosh(y_i), y = (x - c) M, has its one minimum, 4, at x = c, with
    # the non-diagonal Hessian M M^T there: every lane gets there from its
    # own start, and nfev counts every point evaluated
    mix = np.array([[2.0, 1, 0, 0], [0, 1, 0.5, 0], [0, 0, 3, 1], [1, 0, 0, 0.5]])
    rng = np.random.default_rng(2)
    centres = rng.uniform(-1, 1, size=(6, 4))
    sizes = []

    def objective(points, lanes):
        sizes.append(len(points))
        return np.cosh((points - centres[lanes]) @ mix).sum(axis=1)

    result = minimize(objective, centres + rng.uniform(-2, 2, size=(6, 4)))
    assert result.nfev == sum(sizes)
    assert np.max(np.abs(result.x - centres)) <= 1e-6
    assert np.max(np.abs(result.fun - 4)) <= 1e-12


def _scalar_expectation(vec, u):
    # <O_GKP(u)> of one Gaussian in plain floats, with r clipped as the
    # search clips it: each quadrature q in (x, x - p, p), with mean a and
    # variance s, adds e^(-2 pi s) cos(2 sqrt(pi) a) / 3 + u_q e^(-pi s / 2)
    # cos(sqrt(pi) a) to the sum subtracted from 2
    x0, p0, r, theta = vec
    r = min(max(r, -gaussian.R_MAX), gaussian.R_MAX)
    c, s = math.cos(theta), math.sin(theta)
    em, ep = math.exp(-2 * r), math.exp(2 * r)
    sxx, spp = 0.5 * (em * c * c + ep * s * s), 0.5 * (em * s * s + ep * c * c)
    sxp = 0.5 * (em - ep) * s * c
    total = 0.0
    for var, mean, weight in ((sxx, x0, u[2]), (sxx - 2 * sxp + spp, x0 - p0, u[1]),
                              (spp, p0, u[0])):
        total += math.exp(-2 * math.pi * var) * math.cos(2 * math.sqrt(math.pi) * mean) / 3
        total += weight * math.exp(-math.pi * var / 2) * math.cos(math.sqrt(math.pi) * mean)
    return 2 - total


def test_search_reaches_scipy_nelder_mead_minimum():
    # an independent search from the same 108 grid starts: scipy's
    # Nelder-Mead on a plain-float copy of the clipped objective
    from scipy.optimize import minimize as scipy_minimize

    u = np.random.default_rng(5).standard_normal(3)
    targets = np.array([(0, 0, 1.0), (S2, S2, 0), (S3, S3, S3), u / np.linalg.norm(u)])
    values, _ = minimize_over_gaussians(targets, budget=108, seed=0)
    starts = gaussian._start_grid()
    for value, u in zip(values, targets):
        exact = gaussian_expectation(GaussianPureParams(*starts.T), u)
        assert np.allclose([_scalar_expectation(s, u) for s in starts], exact,
                           rtol=0, atol=1e-12)
        best = min(
            scipy_minimize(
                _scalar_expectation, start, args=(u,), method="Nelder-Mead",
                options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 2000},
            ).fun
            for start in starts
        )
        assert value <= best + 1e-9


# minima of the multi-start Nelder-Mead that the Newton search replaced, at
# budget 200: the state workload's targets 0, H, T and its seeded vector
# (seeds 0 and 1), and the 26 core states (seed 0)
NM_MIN = {"0L": 0.6666779264501534, "iL": 0.6666891860830721,
          "-iL": 0.666689186109739, "H": 0.9595697318659475, "T": 1.089325617704466}
NM_STATE = {
    0: ((0.5184546133047977, -0.7688759869743359, -0.374211879283934), 0.8978109684711892),
    1: ((0.6639146003258037, 0.7470264646718457, 0.0341886611921574), 0.9196602799220699),
}


def _nm_core_minimum(label):
    # each H and each T state shares one minimum; so do 0L, 1L, +L and -L
    return NM_MIN.get(label, NM_MIN.get(label[0], NM_MIN["0L"]))


@pytest.mark.parametrize("seed", [0, 1])
def test_search_keeps_nelder_mead_minima_of_state_targets(seed):
    vector, minimum = NM_STATE[seed]
    targets = np.array([(0, 0, 1.0), (S2, S2, 0), (S3, S3, S3), vector])
    values, _ = minimize_over_gaussians(targets, budget=200, seed=seed)
    expected = [NM_MIN["0L"], NM_MIN["H"], NM_MIN["T"], minimum]
    assert np.max(np.abs(values - expected)) <= 1e-9
    assert all(v >= gaussian_bound(u) - 1e-9 for v, u in zip(values, targets))


def test_hessian_floor_keeps_the_search_short(monkeypatch):
    # the state targets at budget 200 take 302,280 points; with the
    # eigenvalue floor dropped, Newton steps climb along negative curvature
    # and the same minima take about 419,000
    nfev = []
    search = gaussian.minimize

    def counted(objective, x0):
        result = search(objective, x0)
        nfev.append(result.nfev)
        return result

    monkeypatch.setattr(gaussian, "minimize", counted)
    targets = np.array([(0, 0, 1.0), (S2, S2, 0), (S3, S3, S3), NM_STATE[0][0]])
    minimize_over_gaussians(targets, budget=200, seed=0)
    assert nfev[0] <= 330_000


def test_search_keeps_nelder_mead_minima_of_core_states():
    states = core_states()
    values, _ = minimize_over_gaussians(np.array([u for _, u in states]), budget=200)
    expected = [_nm_core_minimum(label) for label, _ in states]
    assert np.max(np.abs(values - expected)) <= 1e-9
    assert all(v >= gaussian_bound(u) - 1e-9 for v, (_, u) in zip(values, states))


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


def test_lane_blocks_do_not_change_the_search(monkeypatch):
    targets = np.array([(0, 0, 1.0), (0.6, -0.8, 0)])
    whole = minimize_over_gaussians(targets, budget=120, seed=2)
    monkeypatch.setattr(gaussian, "BLOCK_LANES", 7)
    blocked = minimize_over_gaussians(targets, budget=120, seed=2)
    assert np.array_equal(whole[0], blocked[0])
    for field in ("x0", "p0", "r", "theta"):
        assert np.array_equal(getattr(whole[1], field), getattr(blocked[1], field))


def test_batched_search_shapes():
    targets = np.array([(0, 0, 1.0), (S2, 0, S2)])
    values, params = minimize_over_gaussians(targets, budget=108, seed=0)
    assert values.shape == (2,)
    for field in ("x0", "p0", "r", "theta"):
        assert np.shape(getattr(params, field)) == (2,)
