"""Level sets of vertex fields and isoperimetric ratio checks.

Every level-set quantity goes through :class:`LevelSweep`, built once per
field: level curves are extracted by linear interpolation along cell edges,
and superlevel measures integrate the same piecewise-linear interpolant
exactly, so boundary and bulk stay mutually consistent: the two sides of the
isoperimetric comparison see the same discrete geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import SPHERE_MEASURE, _unique_edges, cap_boundary, cap_radius, total_measure
from .pspectral import ScalarField, coordinate_field


@dataclass
class LevelSetCurve:
    """Level set {u = t}: polyline segments for n=2, crossing points for n=1.

    ``measure`` is the H^{n-1} content (total segment length, or the
    crossing count under the counting measure). ``closed`` reports whether
    every crossed cell edge is shared by exactly two crossed cells, which
    holds for level sets on closed surfaces (even crossing count in 1-D).
    """

    t: float
    segments: np.ndarray
    measure: float
    closed: bool


class LevelSweep:
    """Exact level-set sums of one vertex field over any batch of thresholds.

    A cell is crossed by the level t when min <= t < max over its vertices;
    only those (cell, threshold) pairs are evaluated, and cells wholly above
    t contribute their full weight through suffix sums over the sorted cell
    minima. Pairs are reduced in cell-index order, so a batch returns
    bitwise the same numbers as one threshold at a time.
    """

    def __init__(self, field):
        self.mesh = field.mesh
        self._uc = field.values[self.mesh.cells]
        self._srt = np.sort(self._uc, axis=1)
        self._by_min = np.argsort(self._srt[:, 0], kind="stable")
        self._min_sorted = self._srt[self._by_min, 0]

    def _pairs(self, ts):
        ts = np.asarray(ts, dtype=float)
        order = np.argsort(ts, kind="stable")
        srt = ts[order]
        first = np.searchsorted(srt, self._srt[:, 0], side="left")
        count = np.searchsorted(srt, self._srt[:, -1], side="left") - first
        cell = np.repeat(np.arange(len(count)), count)
        k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
        return cell, order[first[cell] + k], ts

    def _crossings(self, cell, t):
        # interpolated level points of each crossed cell: the d edges from
        # the lone vertex (alone on its side of t; vertex 0 in 1-D) to the
        # others. Returns (k, d, 3) points and the (k, d, 2) crossed edges.
        d = self.mesh.dimension
        cc, uc = self.mesh.cells[cell], self._uc[cell]
        rows = np.arange(len(cell))
        lone = np.zeros(len(cell), dtype=np.int64)
        if d == 2:
            above = uc > t[:, None]
            lone = np.where(above.sum(1) == 1, np.argmax(above, 1), np.argmax(~above, 1))
        V = self.mesh.vertices
        base = cc[rows, lone]
        pts, edges = [], []
        for k in range(1, d + 1):
            oth = (lone + k) % (d + 1)
            w = (t - uc[rows, lone]) / (uc[rows, oth] - uc[rows, lone])
            pts.append(V[base] + w[:, None] * (V[cc[rows, oth]] - V[base]))
            edges.append(np.stack([base, cc[rows, oth]], 1))
        return np.stack(pts, 1), np.stack(edges, 1)

    def level(self, ts, weights=None):
        """Sum over cells of weight times level-set measure in the cell.

        The measure is the segment length for n=2 and the crossing count
        for n=1; the default weight is 1.
        """
        cell, tid, ts = self._pairs(ts)
        if self.mesh.dimension == 2:
            pts, _ = self._crossings(cell, ts[tid])
            size = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
        else:
            size = np.ones(len(cell))
        if weights is not None:
            size = size * np.asarray(weights, dtype=float)[cell]
        return np.bincount(tid, weights=size, minlength=len(ts))

    def superlevel(self, ts, weights=None):
        """Sum over cells of weight times the area fraction of {u > t}.

        The default weight is ``mesh.cell_measure``, giving H^n{u > t}.
        """
        w = self.mesh.cell_measure if weights is None else np.asarray(weights, dtype=float)
        cell, tid, ts = self._pairs(ts)
        t = ts[tid]
        srt = self._srt[cell]
        if self.mesh.dimension == 2:
            c_, b_, a_ = srt[:, 0], srt[:, 1], srt[:, 2]
            frac = np.empty(len(cell))
            m = t >= b_
            frac[m] = (a_[m] - t[m]) ** 2 / ((a_[m] - b_[m]) * (a_[m] - c_[m]))
            m = ~m
            frac[m] = 1.0 - (t[m] - c_[m]) ** 2 / ((a_[m] - c_[m]) * (b_[m] - c_[m]))
        else:
            b_, a_ = srt[:, 0], srt[:, 1]
            frac = (a_ - t) / (a_ - b_)
        whole = np.concatenate([np.cumsum(w[self._by_min][::-1])[::-1], [0.0]])
        above = whole[np.searchsorted(self._min_sorted, ts, side="right")]
        return above + np.bincount(tid, weights=frac * w[cell], minlength=len(ts))


def _field_range(field):
    u = field.values
    return float(u.min()), float(u.max())


def _require_interior_level(field, t):
    lo, hi = _field_range(field)
    t = np.asarray(t, dtype=float)
    bad = t[~((lo < t) & (t < hi))]
    if bad.size:
        raise ValueError(
            f"level {bad[0]} is not strictly inside the field range [{lo}, {hi}]"
        )


def level_curve(field, t):
    """Extract the level set {u = t} by linear edge interpolation."""
    _require_interior_level(field, t)
    sweep = LevelSweep(field)
    cell, tid, ts = sweep._pairs([t])
    pts, edges = sweep._crossings(cell, ts[tid])
    measure = float(sweep.level([t])[0])
    if field.mesh.dimension == 1:
        return LevelSetCurve(float(t), pts[:, 0], measure, len(pts) % 2 == 0)
    _, counts = _unique_edges(edges.reshape(-1, 2), len(field.mesh.vertices))
    return LevelSetCurve(float(t), pts, measure, bool(len(pts)) and bool((counts == 2).all()))


def level_boundary_measure(field, t):
    """H^{n-1} measure of the interpolated level set {u = t}."""
    _require_interior_level(field, t)
    return float(LevelSweep(field).level([t])[0])


def level_integral(field, t, cell_values):
    """Integral over the level set of a per-cell quantity.

    ``cell_values`` holds one value per mesh cell (constant on each cell,
    e.g. a function of the cell gradient); the integral weights it by the
    local level-segment measure.
    """
    _require_interior_level(field, t)
    return float(LevelSweep(field).level([t], cell_values)[0])


def superlevel_measure(field, t):
    """H^n measure of {u > t} integrated from the linear interpolant.

    Consistent with level_boundary_measure: the derivative of this measure
    in t matches the coarea integrand of the same interpolant, which keeps
    volume and boundary comparisons noise free.
    """
    return float(LevelSweep(field).superlevel([t])[0])


def gromov_ratio(field, t, beta):
    """Boundary measure of {u > t} over the matched-cap bound.

    The denominator is beta times the boundary of the model-sphere cap
    whose beta-scaled volume matches the superlevel measure. Ratios below 1
    violate the comparison at mesh resolution. An array of thresholds gives
    an array of ratios from one sweep of the field; a scalar gives a float.
    """
    _require_interior_level(field, t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    n = field.mesh.dimension
    sweep = LevelSweep(field)
    mu = sweep.superlevel(ts)
    if not np.all((mu > 0.0) & (mu < total_measure(field.mesh))):
        raise ValueError("superlevel set must be proper and nonempty")
    v = mu / beta
    if np.any(v > SPHERE_MEASURE[n] * (1.0 + 1e-9)):
        raise ValueError("scaled superlevel volume exceeds the model sphere")
    ratios = sweep.level(ts) / (beta * cap_boundary(cap_radius(v, n), n))
    return float(ratios[0]) if np.ndim(t) == 0 else ratios


# ---------------------------------------------------------------------------
# check batteries


def random_smooth_field(mesh, rng):
    """Random linear plus traceless quadratic combination of coordinates."""
    x = mesh.vertices
    lin = x @ rng.normal(size=3)
    q = rng.normal(size=(3, 3))
    q = 0.5 * (q + q.T)
    q -= np.eye(3) * np.trace(q) / 3.0
    return ScalarField(mesh, lin + np.einsum("vi,ij,vj->v", x, q, x))


def random_bump_field(mesh, rng):
    """Gaussian bump translated to a random vertex."""
    scale = np.sqrt(total_measure(mesh) / SPHERE_MEASURE[2])
    center = mesh.vertices[rng.integers(len(mesh.vertices))]
    sigma = rng.uniform(0.35, 0.9) * scale
    d2 = ((mesh.vertices - center) ** 2).sum(axis=1)
    return ScalarField(mesh, np.exp(-d2 / (2.0 * sigma**2)))


def domain_bump_battery(domain, rng, count):
    """Nonnegative bump fields cut off outside the domain interior."""
    mesh = domain.mesh
    fields = []
    for _ in range(count):
        bump = random_bump_field(mesh, rng)
        fields.append(ScalarField(mesh, np.where(domain.interior, bump.values, 0.0)))
    return fields


def check_battery(mesh, rng, count):
    """Deterministic field battery: coordinate, harmonics-like, bumps."""
    fields = [coordinate_field(mesh)]
    while len(fields) < count:
        fields.append(random_smooth_field(mesh, rng))
        if len(fields) < count:
            fields.append(random_bump_field(mesh, rng))
    return fields[:count]


@dataclass
class CrokeProfile:
    """Empirical sharpening profile of the isoperimetric ratio.

    ``min_ratio`` over the battery estimates the best constant available on
    this mesh; diameters below pi should push it strictly above the
    round-sphere value. ``histogram`` is (counts, bin_edges) over ratios
    clipped to the bin range.
    """

    diameter: float
    min_ratio: float
    ratios: np.ndarray
    histogram: tuple
    count: int

    @classmethod
    def from_ratios(cls, diameter, ratios):
        hist = np.histogram(np.clip(ratios, _HIST_BINS[0], _HIST_BINS[-1] - 1e-9), _HIST_BINS)
        return cls(diameter, float(ratios.min()), ratios, hist, len(ratios))


_HIST_BINS = np.linspace(0.9, 2.1, 25)


def battery_ratios(fields, rng, thresholds, beta):
    """Gromov ratios of a field battery, one sweep per field.

    Each field gets ``thresholds`` levels drawn from rng, uniform over the
    middle 70% of its range, in field order; the ratios are concatenated.
    """
    ratios = []
    for fld in fields:
        lo, hi = _field_range(fld)
        ts = lo + (hi - lo) * rng.uniform(0.15, 0.85, thresholds)
        ratios.append(gromov_ratio(fld, ts, beta))
    return np.concatenate(ratios)


def croke_profile(mesh, beta, diameter, count=50, thresholds=3, seed=0):
    """Minimum Gromov ratio and its histogram over a random field battery."""
    rng = np.random.default_rng(seed)
    ratios = battery_ratios(check_battery(mesh, rng, count), rng, thresholds, beta)
    return CrokeProfile.from_ratios(diameter, ratios)
