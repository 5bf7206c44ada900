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
    rotated_wavefunction,
    sample_quadrature,
    wavefunction,
)
from gkpkit.operators import gkp_operator

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
    assert samples.values.var() == pytest.approx(0.5, abs=0.01)


def test_squeezed_sample_variance():
    state = squeezed_vacuum_fock(1.0, 120)
    samples = sample_quadrature(state, 0.0, 100_000, seed=1)
    assert samples.values.var() == pytest.approx(math.exp(-2) / 2, abs=0.01)


def test_sampling_determinism():
    a = sample_quadrature(VACUUM, 0.0, 1000, seed=5)
    b = sample_quadrature(VACUUM, 0.0, 1000, seed=5)
    np.testing.assert_array_equal(a.values, b.values)


def test_witness_vacuum_oracle():
    ref = 2 - (
        (2 * math.exp(-math.pi) + math.exp(-2 * math.pi)) / 3 + math.exp(-math.pi / 4)
    )
    est = estimate_witness(VACUUM, (0, 0, 1), count_per_quadrature=100_000, seed=0)
    assert abs(est.value - ref) <= 4 * est.std_error
    assert est.std_error > 0
    assert len(est.per_term) == 6


def test_witness_certifies_non_gaussianity():
    u = np.array([0, 0, 1.0])
    _, psi = ground_state(gkp_operator(u, 150))
    exact = expectation(gkp_operator(u, 150), psi)
    est = estimate_witness(psi, u, count_per_quadrature=100_000, seed=0)
    assert abs(est.value - exact) <= 4 * est.std_error
    assert est.value < gaussian_bound(u) - 4 * est.std_error


def test_witness_rejects_non_unit():
    with pytest.raises(InvalidArgumentError):
        estimate_witness(VACUUM, (1, 1, 0))


def test_witness_accepts_prebuilt_samples():
    samples = [
        sample_quadrature(VACUUM, angle, 20_000, seed=i)
        for i, angle in enumerate(MEASUREMENT_ANGLES)
    ]
    direct = estimate_witness(samples, (0, 0, 1))
    from_state = estimate_witness(VACUUM, (0, 0, 1), count_per_quadrature=20_000, seed=0)
    assert direct.value == pytest.approx(from_state.value, abs=1e-12)


def test_witness_rejects_single_sample_sets():
    # one sample has no sample variance, so the standard error would be NaN
    big = [
        sample_quadrature(VACUUM, angle, 10, seed=i)
        for i, angle in enumerate(MEASUREMENT_ANGLES)
    ]
    for k in range(3):
        samples = list(big)
        samples[k] = sample_quadrature(VACUUM, MEASUREMENT_ANGLES[k], 1, seed=k)
        with pytest.raises(InvalidArgumentError, match="at least 2 samples"):
            estimate_witness(samples, (0, 0, 1))
    with pytest.raises(InvalidArgumentError, match="at least 2 samples"):
        estimate_witness(VACUUM, (0, 0, 1), count_per_quadrature=1)


def test_error_scaling():
    errs = {
        count: estimate_witness(
            VACUUM, (0, 0, 1), count_per_quadrature=count, seed=3
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
        estimate_witness(VACUUM, (0, 0, 1), count_per_quadrature=2_000, seed=s)
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
        vals = np.cos(SQRT_PI * samples.values)
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - matrix_val) < 5 * stderr + 1e-4
