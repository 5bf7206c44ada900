import numpy as np
import pytest
from scipy.special import factorial, genlaguerre

from gkpkit.errors import InvalidArgumentError
from gkpkit.fock import (
    displacement_matrix,
    exp_of_quadrature,
    expectation,
    ground_state,
    hermitize,
    quadrature_matrix,
)

SQRT_PI = np.sqrt(np.pi)


def test_quadrature_matrix_x_2x2():
    mat = quadrature_matrix(1, 0, 2)
    np.testing.assert_allclose(mat, [[0, 1 / np.sqrt(2)], [1 / np.sqrt(2), 0]])


def test_quadrature_matrix_p_2x2():
    mat = quadrature_matrix(0, 1, 2)
    np.testing.assert_allclose(mat, [[0, -1j / np.sqrt(2)], [1j / np.sqrt(2), 0]])


def test_quadrature_commutator_interior():
    # truncation only breaks [x, p] = i at the last basis state
    n = 64
    x = quadrature_matrix(1, 0, n)
    p = quadrature_matrix(0, 1, n)
    comm = x @ p - p @ x
    interior = comm[: n - 1, : n - 1] - 1j * np.eye(n - 1)
    assert np.abs(interior).max() < 1e-12


def test_quadrature_matrix_rejects_small_cutoff():
    with pytest.raises(InvalidArgumentError):
        quadrature_matrix(1, 0, 1)
    with pytest.raises(InvalidArgumentError):
        quadrature_matrix(0, 0, 8)


def test_cosine_zero_scale_is_identity():
    mat = hermitize(exp_of_quadrature(1, 0, 0.0, 17))
    np.testing.assert_allclose(mat, np.eye(17), atol=1e-12)


def test_cosine_vacuum_entry():
    # <0|cos(sqrt(pi) x)|0> = e^(-pi/4) for vacuum variance 1/2
    mat = hermitize(exp_of_quadrature(1, 0, SQRT_PI, 100, 100))
    assert mat[0, 0].real == pytest.approx(np.exp(-np.pi / 4), abs=1e-8)


def test_cosine_matches_displacement_route():
    # cos(sqrt(pi)(x - p)) vs Hermitian part of D(sqrt(pi/2)(1+1j))
    spectral = hermitize(exp_of_quadrature(1, -1, SQRT_PI, 60, 80))
    disp = displacement_matrix(np.sqrt(np.pi / 2) * (1 + 1j), 60)
    herm = 0.5 * (disp + disp.conj().T)
    assert np.abs(spectral - herm).max() < 1e-8


def test_cos_squared_plus_sin_squared():
    # e^(i theta) e^(-i theta) = cos^2 + sin^2 for the commuting parts of e^(i theta)
    exp = exp_of_quadrature(1, 0.5, SQRT_PI, 64, 64)
    combo = exp @ exp.conj().T
    # the matrix product itself is truncated, so only the interior is clean
    assert np.abs(combo[:32, :32] - np.eye(64)[:32, :32]).max() < 1e-8


def test_displacement_zero_is_identity():
    np.testing.assert_array_equal(displacement_matrix(0, 5), np.eye(5))


def test_displacement_vacuum_overlap():
    mat = displacement_matrix(np.sqrt(np.pi / 2), 1)
    assert mat[0, 0].real == pytest.approx(np.exp(-np.pi / 4), abs=1e-12)


def test_displacement_matches_closed_form():
    alpha = 0.7 - 0.3j
    cutoff = 9
    got = displacement_matrix(alpha, cutoff)
    ref = np.zeros((cutoff, cutoff), complex)
    for m in range(cutoff):
        for n in range(cutoff):
            if m >= n:
                a, lo, hi = alpha, n, m
            else:
                # <m|D(a)|n> = conj(<n|D(-a)|m>) via D(a)^dag = D(-a)
                a, lo, hi = -np.conj(alpha), m, n
            ref[m, n] = (
                np.sqrt(factorial(lo) / factorial(hi))
                * a ** (hi - lo)
                * np.exp(-abs(alpha) ** 2 / 2)
                * genlaguerre(lo, hi - lo)(abs(alpha) ** 2)
            )
    np.testing.assert_allclose(got, ref, atol=1e-12)


def _mp_displacement_element(mpmath, alpha, m, n):
    """<m|D(alpha)|n> from the closed form in 40-digit arithmetic."""
    if m < n:
        # <m|D(a)|n> = conj(<n|D(-a)|m>) via D(a)^dag = D(-a), which is the
        # closed form below taken at -conj(a)
        return _mp_displacement_element(mpmath, -np.conj(alpha), n, m)
    with mpmath.workdps(40):
        a = mpmath.mpc(alpha.real, alpha.imag)
        x = abs(a) ** 2
        value = (
            mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m))
            * a ** (m - n)
            * mpmath.exp(-x / 2)
            * mpmath.laguerre(n, m - n, x)
        )
        return complex(value)


@pytest.mark.parametrize("cutoff", [150, 400, 800])
def test_displacement_matches_mpmath_oracle(cutoff):
    import mpmath

    rng = np.random.default_rng(cutoff)
    last = cutoff - 1
    edge = rng.integers(0, cutoff, 4)
    elements = [(0, 0), (0, last), (last, 0), (last, last)]
    for j in edge:
        elements += [(0, j), (last, j), (j, 0), (j, last)]
    elements += [tuple(pair) for pair in rng.integers(0, cutoff, (16, 2))]
    # stabilizer amplitudes of X, Z, Y and their doubles (the O_1 terms)
    for alpha in SQRT_PI / np.sqrt(2) * np.array([1, 1j, 1 + 1j, 2, 2j, 2 + 2j]):
        mat = displacement_matrix(alpha, cutoff)
        for m, n in elements:
            ref = _mp_displacement_element(mpmath, alpha, m, n)
            assert abs(mat[m, n] - ref) <= 1e-13, (alpha, m, n)


def test_displacement_unitary_on_interior():
    d = displacement_matrix(np.sqrt(np.pi / 2), 128)
    defect = (d.conj().T @ d - np.eye(128))[:64, :64]
    assert np.abs(defect).max() < 1e-10


def test_displacement_no_overflow_at_large_cutoff():
    d = displacement_matrix(np.sqrt(2 * np.pi) * (1 + 1j), 512)
    assert np.all(np.isfinite(d.real)) and np.all(np.isfinite(d.imag))
    assert np.abs(d).max() <= 1.0 + 1e-9


def test_exp_route_matches_displacement():
    # e^(-i sqrt(pi) p) = D(sqrt(pi/2)), verified numerically
    spectral = exp_of_quadrature(0, 1, -SQRT_PI, 60, 80)
    disp = displacement_matrix(np.sqrt(np.pi / 2), 60)
    assert np.abs(spectral - disp).max() < 1e-8


def test_ground_state_diagonal():
    val, vec = ground_state(np.diag([1.0, -1.0]).astype(complex))
    assert val == pytest.approx(-1.0)
    np.testing.assert_allclose(vec, [0, 1], atol=1e-12)


def test_ground_state_qubit_operator():
    # 1 - sigma_z has ground pair (0, |0>)
    op = np.eye(2, dtype=complex) - np.diag([1.0, -1.0])
    val, vec = ground_state(op)
    assert val == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(vec, [1, 0], atol=1e-12)


def test_ground_state_eigenpair_residual():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    op = 0.5 * (mat + mat.conj().T)
    val, vec = ground_state(op)
    residual = np.linalg.norm(op @ vec - val * vec)
    assert residual <= 1e-8 * np.linalg.norm(op, 2)


def test_ground_state_phase_convention():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    op = 0.5 * (mat + mat.conj().T)
    _, vec = ground_state(op)
    peak = vec[np.argmax(np.abs(vec))]
    assert peak.imag == pytest.approx(0.0, abs=1e-12)
    assert peak.real > 0


def test_expectation_identity():
    state = np.array([0.6, 0.8j], dtype=complex)
    assert expectation(np.eye(2, dtype=complex), state) == pytest.approx(1.0)


def test_expectation_cutoff_mismatch():
    with pytest.raises(InvalidArgumentError):
        expectation(np.eye(3, dtype=complex), np.array([1.0, 0.0]))


def test_produced_matrices_are_hermitian():
    for mat in (
        quadrature_matrix(0.3, -1.2, 25),
        hermitize(exp_of_quadrature(1, 1, SQRT_PI, 25)),
    ):
        assert np.abs(mat - mat.conj().T).max() <= 1e-12
