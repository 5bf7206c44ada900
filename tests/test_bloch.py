import math

import numpy as np
import pytest

from gkpkit.bloch import (
    Atlas,
    angular_distance,
    core_states,
    infidelity_matrix,
    order_greedy,
    sample_sphere,
)
from gkpkit.errors import InvalidArgumentError

S2 = 1 / math.sqrt(2)
S3 = 1 / math.sqrt(3)


def test_core_states_count_and_members():
    states = core_states()
    assert len(states) == 26
    table = {label: tuple(vec) for label, vec in states}
    assert table["0L"] == (0, 0, 1)
    assert table["T+++"] == pytest.approx((S3, S3, S3))
    assert table["H+x+y"] == pytest.approx((S2, S2, 0))


def test_core_states_unit_and_distinct():
    points = np.array([vec for _, vec in core_states()])
    np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-12)
    assert np.unique(np.round(points, 12), axis=0).shape[0] == 26


def test_sample_sphere_fine_delta_size():
    atlas = sample_sphere(0.1, seed=0)
    assert math.ceil(16 / 0.1**2) == 1600
    # order of a thousand points at delta = 0.1; the random greedy filter
    # saturates near 600 of the 1600 candidates
    assert 500 <= len(atlas) <= 1600


def test_sample_sphere_contains_cores():
    atlas = sample_sphere(math.pi / 3, seed=1)
    cores = np.array([vec for _, vec in core_states()])
    for core in cores:
        assert np.min(np.linalg.norm(atlas.points - core, axis=1)) < 1e-12


def test_sample_sphere_determinism():
    a = sample_sphere(0.4, seed=7)
    b = sample_sphere(0.4, seed=7)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.labels == b.labels


def test_sample_sphere_separation():
    atlas = sample_sphere(0.5, seed=3)
    core_count = 26
    points = atlas.points
    for i in range(core_count, len(atlas)):
        for j in range(len(atlas)):
            if i == j:
                continue
            assert angular_distance(points[i], points[j]) >= 0.5 - 1e-12


def test_sample_sphere_rejects_bad_delta():
    with pytest.raises(InvalidArgumentError):
        sample_sphere(0.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        sample_sphere(4.0, seed=0)


def test_order_greedy_single_point():
    atlas = Atlas(points=np.array([[0.0, 0.0, 1.0]]), labels=["0L"])
    ordered = order_greedy(atlas)
    np.testing.assert_array_equal(ordered.points, atlas.points)


def test_order_greedy_south_first():
    atlas = Atlas(
        points=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), labels=["a", "b"]
    )
    ordered = order_greedy(atlas)
    assert ordered.labels == ["b", "a"]


def test_order_greedy_is_permutation():
    atlas = sample_sphere(0.4, seed=5)
    ordered = order_greedy(atlas)
    assert len(ordered) == len(atlas)
    orig = set(map(tuple, np.round(atlas.points, 12)))
    perm = set(map(tuple, np.round(ordered.points, 12)))
    assert orig == perm
    assert ordered.points[0, 2] == atlas.points[:, 2].min()


def test_order_greedy_jumps_grow_near_the_end():
    # the greedy tour paints itself into corners, so late jumps dominate
    ordered = order_greedy(sample_sphere(0.3, seed=0))
    steps = np.linalg.norm(np.diff(ordered.points, axis=0), axis=1)
    third = steps.size // 3
    assert np.median(steps[:third]) < steps[-third:].max()


def test_logical_infidelity_values():
    row = infidelity_matrix(np.array([(0, 0, 1), (0, 0, -1), (1, 0, 0)]))[0]
    assert row[0] == 0
    assert row[1] == 1
    assert row[2] == 0.5


def test_infidelity_matrix_symmetry():
    points = sample_sphere(0.8, seed=2).points
    mat = infidelity_matrix(points)
    np.testing.assert_allclose(mat, mat.T, atol=1e-14)
    np.testing.assert_allclose(np.diag(mat), 0.0, atol=1e-14)
    assert mat.min() >= 0 and mat.max() <= 1
