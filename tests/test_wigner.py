import logging
import math
import sys

import numpy as np
import pytest

from gkpkit import wigner as wigner_module
from gkpkit.errors import InvalidArgumentError
from gkpkit.fock import displacement_matrix, ground_state
from gkpkit.homodyne import rotated_wavefunction
from gkpkit.operators import gkp_operator
from gkpkit.wigner import marginal_x, wigner

SQRT_PI = math.sqrt(math.pi)


def _brute_force(state, xs, ps, padding=40):
    """Displaced-parity evaluation in a padded space, entry by entry."""
    state = np.asarray(state, dtype=complex)
    dim = state.size + padding
    padded = np.zeros(dim, dtype=complex)
    padded[: state.size] = state
    parity = np.diag((-1.0) ** np.arange(dim))
    values = np.empty((xs.size, ps.size))
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            alpha = (x + 1j * p) / math.sqrt(2)
            d = displacement_matrix(2 * alpha, dim)
            values[i, j] = np.vdot(padded, d @ (parity @ padded)).real / math.pi
    return values


def _random_state(size, seed):
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return state / np.linalg.norm(state)


def _assert_matches_brute_force_at(grid, state, pairs):
    for i, j in pairs:
        ref = _brute_force(state, grid.xs[i : i + 1], grid.ps[j : j + 1], padding=0)
        assert abs(grid.values[i, j] - ref[0, 0]) <= 1e-10, (grid.xs[i], grid.ps[j])


def test_matches_brute_force_at_cutoff_150():
    # displacement_matrix gives exact elements of the infinite operator, so
    # the unpadded brute force is exact for a state inside the cutoff; only
    # the x-axis need be evenly spaced, so the p-axis stays random
    _, psi = ground_state(gkp_operator((1 / math.sqrt(2), 1 / math.sqrt(2), 0), 150))
    rng = np.random.default_rng(150)
    xs = np.linspace(-15, 15, 30)
    ps = np.sort(rng.uniform(-15, 15, 30))
    grid = wigner(psi, xs, ps)
    _assert_matches_brute_force_at(grid, psi, zip(range(30), rng.permutation(30)))


def test_matches_brute_force_random_state_both_parities():
    state = _random_state(30, seed=30)
    assert np.linalg.norm(state[0::2]) > 0.5 and np.linalg.norm(state[1::2]) > 0.5
    xs = np.linspace(-7, 7, 11)
    ps = np.linspace(-6, 6, 9)
    grid = wigner(state, xs, ps)
    np.testing.assert_allclose(
        grid.values, _brute_force(state, xs, ps, padding=0), rtol=0, atol=1e-10
    )


def test_asymmetric_axes_and_single_p_column():
    state = _random_state(12, seed=12)
    xs = np.linspace(-5, 7, 13)
    for ps in (np.linspace(-2, 5, 6), np.array([0.7])):
        grid = wigner(state, xs, ps)
        assert grid.values.shape == (xs.size, ps.size)
        np.testing.assert_allclose(
            grid.values, _brute_force(state, xs, ps, padding=0), rtol=0, atol=1e-10
        )


def test_no_aliasing_for_wide_momentum_axis():
    # a p-axis reaching far past the support of an N = 50 state: values
    # inside stay exact, and nothing folds back into the empty region
    state = _random_state(50, seed=50)
    xs = np.linspace(-8, 8, 9)
    ps = np.linspace(-30, 30, 61)
    grid = wigner(state, xs, ps)
    np.testing.assert_allclose(
        grid.values, _brute_force(state, xs, ps, padding=0), rtol=0, atol=1e-10
    )
    beyond = np.abs(ps) > math.sqrt(2 * 50 + 1) + 6
    assert beyond.sum() >= 20
    assert np.abs(grid.values[:, beyond]).max() < 1e-12


def test_vacuum_closed_form():
    xs = np.linspace(-3, 3, 41)
    ps = np.linspace(-3, 3, 37)
    grid = wigner(np.array([1.0 + 0j]), xs, ps)
    ref = np.exp(-(xs[:, None] ** 2) - ps[None, :] ** 2) / math.pi
    np.testing.assert_allclose(grid.values, ref, atol=1e-12)
    assert grid.values.max() == pytest.approx(1 / math.pi)


def test_fock_one_origin_value():
    xs = np.linspace(-4, 4, 33)
    ps = np.linspace(-4, 4, 33)
    grid = wigner(np.array([0.0, 1.0], dtype=complex), xs, ps)
    assert grid.values[16, 16] == pytest.approx(-1 / math.pi, abs=1e-12)


def test_matches_brute_force_superposition():
    rng = np.random.default_rng(2)
    state = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    state /= np.linalg.norm(state)
    xs = np.linspace(-3, 3, 9)
    ps = np.linspace(-2, 2, 7)
    grid = wigner(state, xs, ps)
    np.testing.assert_allclose(grid.values, _brute_force(state, xs, ps), atol=1e-10)


@pytest.mark.parametrize(
    "u",
    [(0, 0, 1), (1, 0, 0), (1 / math.sqrt(2), 1 / math.sqrt(2), 0)],
)
def test_normalization_and_bound(u):
    _, psi = ground_state(gkp_operator(u, 50))
    axis = np.linspace(-12, 12, 361)
    grid = wigner(psi, axis, axis)
    assert abs(grid.mass() - 1.0) < 1e-4
    assert np.abs(grid.values).max() <= 1 / math.pi + 1e-9


def test_marginal_matches_rotated_wavefunction():
    _, psi = ground_state(gkp_operator((0, 0, 1), 50))
    axis = np.linspace(-12, 12, 481)
    grid = wigner(psi, axis, axis)
    pdf = np.abs(rotated_wavefunction(psi, 0.0, axis)) ** 2
    assert np.abs(marginal_x(grid) - pdf).max() < 1e-4


def test_interference_peak_lattice():
    # peaks of |W| along the x axis sit near multiples of sqrt(pi)/2
    _, psi = ground_state(gkp_operator((1 / math.sqrt(2), 1 / math.sqrt(2), 0), 50))
    xs = np.linspace(-3 * SQRT_PI, 3 * SQRT_PI, 601)
    grid = wigner(psi, xs, np.array([0.0]))
    trace = np.abs(grid.values[:, 0])
    peaks = xs[1:-1][(trace[1:-1] > trace[:-2]) & (trace[1:-1] > trace[2:])]
    strong = peaks[np.interp(peaks, xs, trace) > 0.1 * trace.max()]
    spacing = SQRT_PI / 2
    offsets = np.abs(strong / spacing - np.round(strong / spacing))
    assert strong.size >= 5
    assert offsets.max() < 0.2


def _wavefunction_spy(monkeypatch):
    """The shapes of the point arrays wigner hands to homodyne.wavefunction."""
    shapes = []

    def spy(state, points):
        shapes.append(np.shape(points))
        return evaluate(state, points)

    evaluate = wigner_module.wavefunction
    monkeypatch.setattr(wigner_module, "wavefunction", spy)
    return shapes


@pytest.mark.parametrize(
    "size, xs, q",
    [
        # N = 30 reaches R = sqrt(61) + 6, so the y-step cap over
        # |p| <= 6 is pi / (R + 6) = 0.159
        (30, np.linspace(-7, 7, 141), 1),  # h = 0.1
        (30, np.linspace(-7, 7, 11), 9),  # h = 1.4
        (150, np.linspace(-18, 18, 271), 2),  # the benchmark's axis, h = 0.133
    ],
)
def test_lattice_path_matches_general_path(monkeypatch, size, xs, q):
    # the general evaluation is the displaced-parity brute force
    state = _random_state(size, seed=size)
    ps = np.linspace(-6, 6, 25)
    shapes = _wavefunction_spy(monkeypatch)
    grid = wigner(state, xs, ps)
    reach = math.sqrt(2 * size + 1) + 6
    dy = (xs[1] - xs[0]) / q
    last = math.ceil(reach / dy)
    # overlapping windows: psi is evaluated on the whole lattice span, once
    assert shapes == [((xs.size - 1) * q + 2 * last + 1,)]
    rng = np.random.default_rng(size)
    pairs = zip(rng.integers(xs.size, size=30), rng.integers(ps.size, size=30))
    _assert_matches_brute_force_at(grid, state, pairs)


def test_one_point_x_axis_takes_the_lattice_path(monkeypatch):
    state = _random_state(30, seed=31)
    xs = np.linspace(-7, 7, 141)
    ps = np.linspace(-6, 6, 25)
    shapes = _wavefunction_spy(monkeypatch)
    for i in (0, 70, 140):
        row = wigner(state, xs[i : i + 1], ps).values
        ref = _brute_force(state, xs[i : i + 1], ps, padding=0)
        np.testing.assert_allclose(row, ref, rtol=0, atol=1e-10)
    assert all(len(shape) == 1 for shape in shapes)


@pytest.mark.parametrize(
    "xs",
    [np.array([-100.0, 0.0, 100.0]), np.linspace(-60, 60, 5), np.array([3.0, 40.0])],
)
def test_sparse_even_axis_evaluates_only_the_windows(monkeypatch, xs):
    # N = 12 reaches R = 11, so psi is needed only within 11 of each x_i:
    # the windows do not overlap, and the lattice between them is skipped
    state = _random_state(12, seed=13)
    ps = np.linspace(-2, 2, 5)
    shapes = _wavefunction_spy(monkeypatch)
    grid = wigner(state, xs, ps)
    reach = 11.0
    q = math.ceil((xs[1] - xs[0]) * (reach + 2) / math.pi)
    last = math.ceil(reach * q / (xs[1] - xs[0]))
    assert 2 * last + 1 < q
    span = q * (xs.size - 1) + 2 * last + 1
    assert len(shapes) == 1 and len(shapes[0]) == 1
    assert shapes[0][0] <= min(span, 2 * xs.size * (last + 1))
    np.testing.assert_allclose(
        grid.values, _brute_force(state, xs, ps, padding=0), rtol=0, atol=1e-10
    )


def test_rejects_uneven_x_axis():
    state = _random_state(12, seed=14)
    ps = np.linspace(-2, 2, 5)
    nudged = np.linspace(-7, 7, 141)
    nudged[71] += 1e-9 * (nudged[1] - nudged[0])
    for xs in (np.array([-1.0, 0.0, 0.5]), nudged):
        with pytest.raises(InvalidArgumentError, match="evenly spaced"):
            wigner(state, xs, ps)


def test_rejects_non_finite_or_empty_input():
    vacuum = np.array([1.0 + 0j])
    axis = np.linspace(-1, 1, 5)
    for bad in (np.nan, np.inf):
        broken = axis.copy()
        broken[2] = bad
        for xs, ps in ((broken, axis), (axis, broken), (broken[2:3], axis)):
            with pytest.raises(InvalidArgumentError, match="finite"):
                wigner(vacuum, xs, ps)
    for xs, ps in ((axis[:0], axis), (axis, axis[:0])):
        with pytest.raises(InvalidArgumentError, match="non-empty"):
            wigner(vacuum, xs, ps)
    with pytest.raises(InvalidArgumentError, match="normalized"):
        wigner(np.array([np.nan, 0.0], dtype=complex), axis, axis)


def test_rejects_bad_grid_and_state():
    xs = np.linspace(-1, 1, 5)
    with pytest.raises(InvalidArgumentError):
        wigner(np.array([1.0 + 0j]), xs[::-1], xs)
    with pytest.raises(InvalidArgumentError):
        wigner(np.array([1.0, 1.0], dtype=complex), xs, xs)


def test_coarse_grid_warning_blames_the_grid_not_lost_mass(caplog):
    # the vacuum lies well inside x in [-30, 30]; its trapezoid sum over these
    # five-point axes is 8.375 only because the steps are far too wide
    vacuum = np.zeros(12, dtype=complex)
    vacuum[0] = 1.0
    with caplog.at_level(logging.WARNING, logger="gkpkit.wigner"):
        grid = wigner(vacuum, np.linspace(-30, 30, 5), np.linspace(-2, 2, 5))
    assert grid.mass() == pytest.approx(8.375089, abs=1e-6)
    [message] = [r.getMessage() for r in caplog.records if r.name == "gkpkit.wigner"]
    assert "too narrow or too coarse" in message
    assert "captures" not in message and "deficit" not in message


def test_package_attribute_is_the_wigner_submodule():
    import gkpkit

    assert gkpkit.wigner is sys.modules["gkpkit.wigner"]
