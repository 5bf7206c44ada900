"""Regression, mutual information and slope extrapolation for sweep records."""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError

log = logging.getLogger(__name__)


@dataclass
class RegressionStats:
    slope: float
    intercept: float
    correlation_error: float  # 1 - Pearson r
    mutual_information: float  # nats


@dataclass
class ExtrapolationResult:
    m_infinity: float
    amplitude: float
    rate: float
    window_mean: float
    window_std: float
    failed_windows: list  # {"start": N, "reason": text} per window not fitted


KSG_BLOCK = 256  # points per neighbour scan; bounds its memory whatever M is


def _kth_neighbour_distance(xs, ys, k):
    """Exact max-norm distance from each point to its k-th nearest other point.

    The points are sorted along the coordinate with the larger range, called
    x here, and scanned KSG_BLOCK at a time. Each round merges the next w
    index offsets on both sides into every unfinished point's k best, with
    w = 16 KSG_BLOCK // (unfinished points in the block): a round holds at
    most 32 KSG_BLOCK distances, and a block's last points reach far in few
    rounds. A point is done once its k-th best is <= |dx| at the next offset
    on both sides, as |dx| only grows further out; indices past either end
    read x = +-inf. So neither the axis, the block nor the rounds change a
    distance."""
    if np.ptp(ys) > np.ptp(xs):
        xs, ys = ys, xs
    m, order = xs.size, np.argsort(xs, kind="stable")
    x, y = (np.append(v[order], (np.inf, -np.inf)) for v in (xs, ys))
    kth = np.empty(m)
    for first in range(0, m, KSG_BLOCK):
        active = np.arange(first, min(first + KSG_BLOCK, m))
        best, r = np.full((active.size, k), np.inf), 1
        while active.size:
            offsets = np.arange(r, r + 16 * KSG_BLOCK // active.size)
            r += offsets.size
            j = (active[:, None] + np.concatenate((offsets, -offsets))).clip(-1, m)
            d = np.maximum(abs(x[j] - x[active, None]), abs(y[j] - y[active, None]))
            best = np.partition(np.hstack((best, d)), k - 1, axis=1)[:, :k]
            gap = np.minimum(
                x[(active + r).clip(max=m)] - x[active],
                x[active] - x[(active - r).clip(min=-1)],
            )
            done = best[:, k - 1] <= gap
            kth[order[active[done]]] = best[done, k - 1]
            active, best = active[~done], best[~done]
    return kth


def _count_within(values, radius):
    """For each entry v, the number of entries s with |s - v| <= radius, as
    written. searchsorted finds the ends to within rounding; |s - v| is
    monotone on each side of v, so the ends then step over distinct values.
    The queries go in sorted order, where searchsorted is fastest, and the
    counts are scattered back."""
    order = np.argsort(values, kind="stable")
    values, radius = values[order], radius[order]
    u, counts = np.unique(values, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)))
    mid = np.searchsorted(u, values)
    lo = np.minimum(np.searchsorted(u, values - radius), mid)
    hi = np.maximum(np.searchsorted(u, values + radius, "right"), mid + 1)

    def near(j):
        return abs(u[j.clip(0, u.size - 1)] - values) <= radius

    while True:
        new_lo = lo - ((lo > 0) & near(lo - 1)) + ((lo < mid) & ~near(lo))
        new_hi = hi + ((hi < u.size) & near(hi)) - ((hi > mid + 1) & ~near(hi - 1))
        if (new_lo == lo).all() and (new_hi == hi).all():
            within = np.empty_like(lo)
            within[order] = starts[hi] - starts[lo]
            return within
        lo, hi = new_lo, new_hi


def ksg_mutual_information(xs, ys, k=4):
    """KSG (variant 1) mutual information estimate in nats.

    I = psi(k) + psi(M) - <psi(n_x + 1) + psi(n_y + 1)>, where n_x and n_y
    count strict max-norm neighbors within the k-th joint neighbor distance;
    psi(n) = H_(n-1) - gamma, and the gamma terms cancel, leaving harmonic
    numbers H. Duplicate joint points are broken by a 1e-12 seeded jitter.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise InvalidArgumentError("xs and ys must have the same length")
    m = xs.size
    if not 1 <= k < m:
        raise InvalidArgumentError(f"need 1 <= k < samples, got k = {k}, {m} samples")
    joint = np.column_stack((xs, ys))
    sx, sy = joint[np.lexsort((ys, xs))].T  # -0.0 and 0.0 tie, as in np.unique
    if np.any((sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])):
        log.info("duplicate sample points; applying 1e-12 jitter")
        rng = np.random.default_rng(0)
        joint = joint + 1e-12 * rng.standard_normal(joint.shape)
        xs, ys = joint[:, 0], joint[:, 1]
    radius = _kth_neighbour_distance(xs, ys, k) - 1e-15
    n_x = _count_within(xs, radius) - 1
    n_y = _count_within(ys, radius) - 1
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, m + 1))))
    return float(
        harmonic[k - 1] + harmonic[m - 1] - np.mean(harmonic[n_x] + harmonic[n_y])
    )


def regression_per_cutoff(record):
    """Per-cutoff linear fit of expectation vs infidelity over all pairs."""
    x = record.infidelity.ravel()
    if x.size < 3:
        raise InvalidArgumentError("need at least 3 state pairs for regression")
    stats = {}
    for cutoff in record.cutoffs:
        y = record.results[cutoff].expectation.ravel()
        slope, intercept = np.polyfit(x, y, 1)
        r = np.corrcoef(x, y)[0, 1]
        mi = ksg_mutual_information(x, y)
        stats[cutoff] = RegressionStats(
            slope=float(slope),
            intercept=float(intercept),
            correlation_error=float(1.0 - r),
            mutual_information=mi,
        )
    return stats


_RATE_BOUNDS = (0.1, 10.0)


def _project(ns, ms, rates):
    """Least-squares m_inf, A and residual sum of squares of m = m_inf - A n^(-d)
    at each rate d, by a centred regression on n^(-d) (variable projection)."""
    x = ns ** -rates[:, None]
    xc = x - x.mean(axis=1, keepdims=True)
    yc = ms - ms.mean()
    amplitude = -(xc @ yc) / np.sum(xc * xc, axis=1)
    resid = yc + amplitude[:, None] * xc
    return ms.mean() + amplitude * x.mean(axis=1), amplitude, np.sum(resid**2, axis=1)


def _fit_window(ns, ms):
    """(m_inf, A, d) of one window, or RuntimeError. d comes from a log grid over
    _RATE_BOUNDS and four zoom grids over the cells beside the best point, each
    200 times narrower (a fifth moves window_mean on the desk slopes by 1e-14)."""
    rates = np.geomspace(*_RATE_BOUNDS, 401)
    best = int(np.argmin(_project(ns, ms, rates)[2]))
    if best in (0, rates.size - 1):
        raise RuntimeError(f"saturation rate {rates[best]:.3g} pinned at bound")
    for _ in range(4):
        rates = np.linspace(rates[best - 1], rates[best + 1], 401)
        m_inf, amplitude, rss = _project(ns, ms, rates)
        best = int(np.argmin(rss))
    if not amplitude[best] > 0:
        raise RuntimeError(f"amplitude {amplitude[best]:.3g} is not positive")
    return m_inf[best], amplitude[best], rates[best]


def extrapolate_slope(slopes):
    """Saturating power-law extrapolation m(N) = m_inf - A N^(-d).

    Fits every window [start, max N] with a start above N = 20 and at least
    five cutoffs (all cutoffs when no start qualifies). The headline m_inf,
    A and d are those of the widest window fitted; window_mean and
    window_std are taken over the windows fitted. A window whose best d
    sits at an end of [0.1, 10], or whose best A is not positive, goes to
    `failed_windows` with its reason.
    """
    ns = np.array(sorted(slopes), dtype=float)
    ms = np.array([slopes[int(n)] for n in ns])
    if ns.size < 5:
        raise InvalidArgumentError(
            f"need at least 5 cutoffs for extrapolation, got {ns.size}"
        )
    window_starts = [n for n in ns if n > 20 and np.sum(ns >= n) >= 5] or [ns[0]]
    winners, failed = [], []
    for start in window_starts:
        try:
            winners.append(_fit_window(ns[ns >= start], ms[ns >= start]))
        except RuntimeError as exc:
            log.warning("power-law fit failed for window start %d: %s", start, exc)
            failed.append({"start": int(start), "reason": str(exc)})
    if not winners:
        raise NumericalFailureError(
            "power-law fit failed for every window", windows=len(window_starts)
        )
    m_infs = np.array([w[0] for w in winners])
    head = winners[0]
    return ExtrapolationResult(
        m_infinity=float(head[0]),
        amplitude=float(head[1]),
        rate=float(head[2]),
        window_mean=float(m_infs.mean()),
        window_std=float(m_infs.std()),
        failed_windows=failed,
    )
