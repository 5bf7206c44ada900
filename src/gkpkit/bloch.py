"""Bloch-sphere geometry: core states, lattice sampling, ordering, infidelity."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def core_states():
    """The 26 reference logical targets: 6 stabilizer, 12 H-type, 8 T-type."""
    s2 = 1 / math.sqrt(2)
    s3 = 1 / math.sqrt(3)
    states = [
        ("0L", (0.0, 0.0, 1.0)),
        ("1L", (0.0, 0.0, -1.0)),
        ("+L", (1.0, 0.0, 0.0)),
        ("-L", (-1.0, 0.0, 0.0)),
        ("iL", (0.0, 1.0, 0.0)),
        ("-iL", (0.0, -1.0, 0.0)),
    ]
    # H-type: one zero coordinate, two entries of magnitude 1/sqrt(2)
    h_axes = [("x", "y"), ("x", "z"), ("y", "z")]
    idx = {"x": 0, "y": 1, "z": 2}
    for a, b in h_axes:
        for sa in (1, -1):
            for sb in (1, -1):
                vec = [0.0, 0.0, 0.0]
                vec[idx[a]] = sa * s2
                vec[idx[b]] = sb * s2
                name = "H" + ("+" if sa > 0 else "-") + a + ("+" if sb > 0 else "-") + b
                states.append((name, tuple(vec)))
    # T-type: all coordinates +-1/sqrt(3)
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                name = "T" + "".join("+" if s > 0 else "-" for s in (sx, sy, sz))
                states.append((name, (sx * s3, sy * s3, sz * s3)))
    return [(label, np.array(vec)) for label, vec in states]


@dataclass
class Atlas:
    """Ordered Bloch-vector samples; labels mark the core states."""

    points: np.ndarray
    labels: list = field(default_factory=list)
    delta: float = 0.0
    seed: int = 0

    def __len__(self):
        return self.points.shape[0]


def angular_distance(u, v):
    """Great-circle angle between unit vectors, safe near |dot| = 1."""
    return math.acos(min(1.0, max(-1.0, float(np.dot(u, v)))))


def fibonacci_lattice(count):
    """Fibonacci spherical spiral with count points."""
    j = np.arange(count)
    theta = np.arccos(np.clip(1 - (2 * j + 0.5) / count, -1.0, 1.0))
    phi = 2 * np.pi * j / GOLDEN_RATIO
    return np.column_stack(
        (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    )


def sample_sphere(delta, seed):
    """Evenly sample the Bloch sphere with minimum angular separation delta.

    Seeds with the 26 core states (which are exempt from the separation
    constraint among themselves), then greedily accepts shuffled Fibonacci
    lattice candidates that keep angular distance >= delta to everything
    already accepted.
    """
    if not 0 < delta < math.pi:
        raise InvalidArgumentError(f"delta must lie in (0, pi), got {delta}")
    cores = core_states()
    labels = [label for label, _ in cores]
    accepted = np.array([vec for _, vec in cores])
    n_max = math.ceil(16 / delta**2)
    candidates = fibonacci_lattice(n_max)
    rng = np.random.default_rng(seed)
    candidates = candidates[rng.permutation(n_max)]
    cos_delta = math.cos(delta)
    for cand in candidates:
        # dot > cos(delta) <=> angle < delta
        if np.max(accepted @ cand) <= cos_delta:
            accepted = np.vstack([accepted, cand])
            labels.append("")
    return Atlas(points=accepted, labels=labels, delta=delta, seed=seed)


def order_greedy(atlas):
    """Greedy nearest-neighbor path, starting from the south-most point.

    Ties (equal u_z at the start, equal distances along the path) are broken
    by lowest original index.
    """
    if len(atlas) == 0:
        raise InvalidArgumentError("cannot order an empty atlas")
    points = atlas.points
    m = len(atlas)
    visited = np.zeros(m, dtype=bool)
    current = int(np.argmin(points[:, 2]))
    order = [current]
    visited[current] = True
    for _ in range(m - 1):
        diffs = points - points[current]
        dists = np.einsum("ij,ij->i", diffs, diffs)
        dists[visited] = np.inf
        current = int(np.argmin(dists))  # argmin takes the lowest index on ties
        order.append(current)
        visited[current] = True
    order = np.array(order)
    return Atlas(
        points=points[order],
        labels=[atlas.labels[i] for i in order] if atlas.labels else [],
        delta=atlas.delta,
        seed=atlas.seed,
    )


def infidelity_matrix(points):
    """Pairwise logical infidelities 1 - F = (1 - u_i . u_j) / 2 of unit Bloch
    vectors, symmetric with zero diagonal."""
    gram = points @ points.T
    return np.clip(0.5 * (1.0 - gram), 0.0, 1.0)

