import math

import numpy as np
import pytest

from gkpkit.errors import InvalidArgumentError, NumericalFailureError
from gkpkit.fock import exp_of_quadrature, expectation, ground_state, hermitize
from gkpkit.gaussian import gaussian_bound, squeezed_vacuum_fock
from gkpkit.homodyne import (
    MEASUREMENT_ANGLES,
    default_grid,
    estimate_witness,
    measure_quadratures,
    rotated_wavefunction,
    sample_quadrature,
    wavefunction,
)
from gkpkit.operators import gkp_operator
from gkpkit.sweep import ground_states

SQRT_PI = math.sqrt(math.pi)

VACUUM = np.array([1.0 + 0j])


def _vacuum_wavefunction(grid):
    return np.pi ** (-0.25) * np.exp(-0.5 * grid**2)


def test_vacuum_rotation_invariant():
    grid = np.linspace(-6, 6, 801)
    for angle in (0.0, 0.9, -math.pi / 4):
        psi = rotated_wavefunction(VACUUM, angle, grid)
        np.testing.assert_allclose(psi, _vacuum_wavefunction(grid), atol=1e-12)


def test_fock_one_wavefunction():
    grid = np.linspace(-7, 7, 1001)
    state = np.array([0.0, 1.0], dtype=complex)
    psi = rotated_wavefunction(state, 0.0, grid)
    ref = np.pi ** (-0.25) * math.sqrt(2) * grid * np.exp(-0.5 * grid**2)
    np.testing.assert_allclose(psi, ref, atol=1e-12)


def _mp_wavefunction(mpmath, state, t):
    """sum_n c_n phi_n(t) from the closed form in 40-digit arithmetic."""
    with mpmath.workdps(40):
        t = mpmath.mpf(float(t))
        total = mpmath.mpc(0)
        for n, c in enumerate(state):
            norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
            phi = mpmath.hermite(n, t) * mpmath.exp(-t * t / 2) / norm
            total += mpmath.mpc(c.real, c.imag) * phi
        return complex(total)


@pytest.mark.parametrize("level", [0, 1, 17, 400, 799])
def test_wavefunction_fock_levels_match_mpmath(level):
    # points far outside the classically allowed region, where e^(-t^2/2)
    # alone underflows, test the rescaled recurrence
    import mpmath

    state = np.zeros(level + 1, dtype=complex)
    state[level] = 1.0
    points = np.array([0.3, -7.5, 25.0, 39.0, -39.9, 45.0, 60.0])
    got = wavefunction(state, points)
    for t, value in zip(points, got):
        ref = _mp_wavefunction(mpmath, state, t)
        assert abs(value - ref) <= 1e-12 * abs(ref) + 1e-300, (level, t)


def test_wavefunction_random_state_any_shape():
    import mpmath

    rng = np.random.default_rng(40)
    state = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    state /= np.linalg.norm(state)
    points = rng.uniform(-12, 12, (2, 3, 4))
    got = wavefunction(state, points)
    assert got.shape == points.shape
    for t, value in zip(points.ravel(), got.ravel()):
        assert abs(value - _mp_wavefunction(mpmath, state, t)) <= 1e-13


def test_grid_comb_structure():
    # the |0_L> approximation concentrates near even multiples of sqrt(pi)
    _, psi = ground_state(gkp_operator((0, 0, 1), 150))
    grid = default_grid(psi)
    pdf = np.abs(rotated_wavefunction(psi, 0.0, grid)) ** 2
    peaks = np.interp([0, 2 * SQRT_PI, -2 * SQRT_PI], grid, pdf)
    valleys = np.interp([SQRT_PI, -SQRT_PI, 3 * SQRT_PI], grid, pdf)
    assert peaks.min() > 10 * valleys.max()


def test_mass_deficit_error():
    with pytest.raises(NumericalFailureError) as err:
        rotated_wavefunction(VACUUM, 0.0, np.linspace(-0.5, 0.5, 64))
    assert 0 < err.value.diagnostics["captured_mass"] < 1


def test_vacuum_sample_variance():
    samples = sample_quadrature(VACUUM, 0.0, 100_000, seed=0)
    assert samples.var() == pytest.approx(0.5, abs=0.01)


def test_squeezed_sample_variance():
    state = squeezed_vacuum_fock(1.0, 120)
    samples = sample_quadrature(state, 0.0, 100_000, seed=1)
    assert samples.var() == pytest.approx(math.exp(-2) / 2, abs=0.01)


def test_sampling_determinism():
    a = sample_quadrature(VACUUM, 0.0, 1000, seed=5)
    b = sample_quadrature(VACUUM, 0.0, 1000, seed=5)
    np.testing.assert_array_equal(a, b)


def test_sampling_keeps_draw_order():
    # the lookups run on sorted uniforms; each outcome must still be the one
    # of its own draw, which the witness (blind to order) cannot check
    state = np.array([0.6, 0.5j, -0.4, 0.3 + 0.2j, 0.1])
    state /= np.linalg.norm(state)
    angle, count, seed = 0.7, 5000, 9
    grid = default_grid(state)
    pdf = np.abs(rotated_wavefunction(state, angle, grid)) ** 2
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(grid) * (pdf[1:] + pdf[:-1]))))
    cdf /= cdf[-1]
    expected = np.interp(np.random.default_rng(seed).random(count), cdf, grid)
    np.testing.assert_array_equal(sample_quadrature(state, angle, count, seed), expected)


def test_witness_vacuum_oracle():
    ref = 2 - (
        (2 * math.exp(-math.pi) + math.exp(-2 * math.pi)) / 3 + math.exp(-math.pi / 4)
    )
    est = estimate_witness(measure_quadratures(VACUUM, 100_000, seed=0), (0, 0, 1))
    assert abs(est.value - ref) <= 4 * est.std_error
    assert est.std_error > 0
    assert len(est.per_term) == 6


def test_witness_certifies_non_gaussianity():
    u = np.array([0, 0, 1.0])
    _, psi = ground_state(gkp_operator(u, 150))
    exact = expectation(gkp_operator(u, 150), psi)
    est = estimate_witness(measure_quadratures(psi, 100_000, seed=0), u)
    assert abs(est.value - exact) <= 4 * est.std_error
    assert est.value < gaussian_bound(u) - 4 * est.std_error


def test_witness_pairs_each_row_with_its_bloch_component():
    # the u-weighted term of +L comes only from the p row (u_x), that of iL
    # only from the x - p row (u_y); swapping the two coefficients moves these
    # estimates by over 100 sigma
    targets = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, -0.5, 0.8]])
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    states, result = ground_states(targets, 80)
    for i, u in enumerate(targets):
        est = estimate_witness(measure_quadratures(states[i], 20_000, seed=0), u)
        assert abs(est.value - result.expectation[i, i]) <= 4 * est.std_error, u


def test_witness_rejects_non_unit():
    with pytest.raises(InvalidArgumentError):
        estimate_witness(measure_quadratures(VACUUM, 100, seed=0), (1, 1, 0))


def test_measure_quadratures_seeds_each_angle_in_turn():
    samples = measure_quadratures(VACUUM, 50, seed=7)
    assert samples.shape == (3, 50)
    for k, row in enumerate(samples):
        alone = sample_quadrature(VACUUM, MEASUREMENT_ANGLES[k], 50, seed=7 + k)
        np.testing.assert_array_equal(row, alone)


def test_witness_rejects_non_finite_samples():
    for bad in (np.nan, np.inf):
        samples = measure_quadratures(VACUUM, 10, seed=0)
        samples[1, 3] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            estimate_witness(samples, (0, 0, 1))


def test_witness_rejects_samples_not_in_three_rows():
    samples = measure_quadratures(VACUUM, 10, seed=0)
    for bad in (samples[0], samples[:2], np.vstack((samples, samples[:1]))):
        with pytest.raises(InvalidArgumentError, match="shape"):
            estimate_witness(bad, (0, 0, 1))


def test_rotated_wavefunction_rejects_non_finite_grid():
    for bad in (np.nan, np.inf):
        grid = np.linspace(-6, 6, 101)
        grid[50] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            rotated_wavefunction(VACUUM, 0.0, grid)


def test_non_finite_state_is_rejected_before_sampling():
    # a NaN or infinite amplitude gives a NaN mass, which passed the mass check
    # and came back as NaN samples
    for bad in (np.nan, np.inf):
        state = np.array([bad, 0.0, 0.0])
        with pytest.raises(InvalidArgumentError, match="finite"):
            rotated_wavefunction(state, 0.0, np.linspace(-6, 6, 101))
        with pytest.raises(InvalidArgumentError, match="finite"):
            sample_quadrature(state, 0.0, 5, 0)


def test_witness_rejects_single_sample_sets():
    # one sample has no sample variance, so the standard error would be NaN
    samples = measure_quadratures(VACUUM, 10, seed=0)
    for count in (1, 0):
        with pytest.raises(InvalidArgumentError, match="at least 2 samples"):
            estimate_witness(samples[:, :count], (0, 0, 1))
    for count in (1, 0, -3):
        with pytest.raises(InvalidArgumentError, match="at least 2 samples"):
            measure_quadratures(VACUUM, count, seed=0)
        with pytest.raises(InvalidArgumentError, match="at least 2 samples"):
            sample_quadrature(VACUUM, 0.0, count, seed=0)


def test_error_scaling():
    errs = {
        count: estimate_witness(
            measure_quadratures(VACUUM, count, seed=3), (0, 0, 1)
        ).std_error
        for count in (1_000, 10_000, 100_000)
    }
    assert errs[1_000] / errs[10_000] == pytest.approx(math.sqrt(10), rel=0.2)
    assert errs[10_000] / errs[100_000] == pytest.approx(math.sqrt(10), rel=0.2)


def test_unbiasedness_over_repetitions():
    ref = 2 - (
        (2 * math.exp(-math.pi) + math.exp(-2 * math.pi)) / 3 + math.exp(-math.pi / 4)
    )
    estimates = [
        estimate_witness(measure_quadratures(VACUUM, 2_000, seed=s), (0, 0, 1))
        for s in range(100)
    ]
    values = np.array([e.value for e in estimates])
    pooled = estimates[0].std_error / math.sqrt(len(estimates))
    assert abs(values.mean() - ref) < 3 * pooled


def test_angle_correctness_across_states():
    rng = np.random.default_rng(8)
    superpos = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    superpos /= np.linalg.norm(superpos)
    states = [
        VACUUM,
        np.array([0, 1.0], dtype=complex),
        squeezed_vacuum_fock(0.8, 80),
        ground_state(gkp_operator((0, 0, 1), 80))[1],
        superpos,
    ]
    for i, state in enumerate(states):
        n = state.size
        matrix_val = expectation(
            hermitize(exp_of_quadrature(1, 0, SQRT_PI, n, max(n, 20))), state
        )
        samples = sample_quadrature(state, 0.0, 200_000, seed=100 + i)
        vals = np.cos(SQRT_PI * samples)
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - matrix_val) < 5 * stderr + 1e-4
