"""Level sets of vertex fields and isoperimetric ratio checks.

Every level-set quantity goes through :class:`LevelSweep`, which cuts one
field at one batch of thresholds: the crossed cells are found once per
batch, superlevel measures integrate the piecewise-linear interpolant
exactly, and level-set measures are the t-derivative of the same closed
form, so boundary and bulk stay mutually consistent: the two sides of the
isoperimetric comparison see the same discrete geometry.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .manifold import SPHERE_MEASURE, beta, cap_boundary, cap_radius, total_measure
from .pspectral import ScalarField, coordinate_field


_BLOCK = 8192


class LevelSweep:
    """One vertex field cut at one batch of thresholds: exact level-set sums.

    A cell is crossed by the level t when min <= t < max over its vertices;
    the (cell, threshold) pairs are enumerated once, at construction, and
    ``level`` and ``superlevel`` evaluate only those pairs, with any cell
    weights. Cells wholly above t contribute their full weight through
    suffix sums over the cell minima in sorted order. Pairs are evaluated
    in blocks of at most ``_BLOCK``, so memory stays bounded however many
    thresholds a batch has, into one per-pair array that a single bincount
    reduces in cell-index order: a batch returns bitwise the same numbers
    as one threshold at a time. Thresholds that are not a 1-D array, a NaN
    threshold, or weights that are not one per cell raise ValueError;
    infinite thresholds cross no cell.

    On a triangle the interpolant's area fraction above t is a closed form
    in t, and the level segment's length is |grad u| times the cell area
    times minus its t-derivative (the coarea formula on one cell), so both
    kernels evaluate the same branch of the same formula.

    The cell sort need not be stable. Tied minima are contiguous in any
    sorted order and a threshold's suffix starts at a group boundary, so
    every cell it sums is one it should; the order, and with it the
    rounding of the suffix sums, depends on the cell minima alone and not
    on the thresholds.
    """

    def __init__(self, field, ts):
        self.mesh = field.mesh
        self._u = field.values
        self._uc = field.values[self.mesh.cells]
        # sorted vertex values of each cell by a min/max network: lo, hi,
        # and the middle value of a triangle
        a, b = self._uc[:, 0], self._uc[:, 1]
        self._lo, self._hi = np.minimum(a, b), np.maximum(a, b)
        if self.mesh.dimension == 2:
            c = self._uc[:, 2]
            self._mid = np.maximum(self._lo, np.minimum(self._hi, c))
            self._lo, self._hi = np.minimum(self._lo, c), np.maximum(self._hi, c)
        self._cell, self._tid, self._ts = self._pairs(ts)

    @cached_property
    def _by_min(self):
        # (cell order, sorted minima) by cell minimum; only superlevel reads
        # it, so level()-only sweeps never sort
        order = np.argsort(self._lo)
        return order, self._lo[order]

    @cached_property
    def _denominators(self):
        # per-cell denominators of the two closed-form area fractions of a
        # triangle: (a - b)(a - c) above its middle value, (a - c)(b - c)
        # below it; either is zero on a cell with a tied edge. Computed
        # under the superlevel kernel's errstate, with its arithmetic
        a_, b_, c_ = self._hi, self._mid, self._lo
        with np.errstate(divide="ignore", invalid="ignore"):
            return (a_ - b_) * (a_ - c_), (a_ - c_) * (b_ - c_)

    def _pairs(self, ts):
        # searchsorted is monotone, so a cell's first and last crossing
        # thresholds are read off its min and max vertex
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError(f"thresholds must be a 1-D array, got shape {ts.shape}")
        if np.isnan(ts).any():
            raise ValueError("thresholds must not be NaN")
        order = np.argsort(ts, kind="stable")
        pos = np.searchsorted(ts[order], self._u, side="left")
        cols = np.stack([pos[c] for c in self.mesh.cells.T])
        first = np.minimum.reduce(cols)
        count = np.maximum.reduce(cols) - first
        cell = np.repeat(np.arange(len(count)), count)
        idx = np.arange(len(cell))
        idx -= np.repeat(np.cumsum(count) - count - first, count)
        return cell, order[idx], ts

    def _cell_weights(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.shape != self._lo.shape:
            raise ValueError(
                f"weights must hold one value per cell, shape {self._lo.shape}, got {w.shape}"
            )
        return w

    def level(self, weights=None):
        """Sum over cells of weight times level-set measure in the cell.

        One sum per threshold of the batch. The measure is the segment
        length for n=2 and the crossing count for n=1; the default weight
        is 1. A segment's length is the cell area times |grad u| times
        minus the t-derivative of the area fraction that ``superlevel``
        selects: K (hi - t) / ((hi - mid)(hi - lo)) when t >= mid, else
        K (t - lo) / ((hi - lo)(mid - lo)), where K = |(u2 - u0)(x1 - x0)
        - (u1 - u0)(x2 - x0)|, twice the cell area times |grad u|, comes
        from the cell's own vertices.
        """
        cell, tid, ts = self._cell, self._tid, self._ts
        if self.mesh.dimension == 2:
            size = np.empty(len(cell))
            for b in _blocks(len(cell)):
                cb, t = cell[b], ts[tid[b]]
                c_, b_, a_ = self._lo[cb], self._mid[cb], self._hi[cb]
                u0, u1, u2 = self._uc[cb].T
                x0, x1, x2 = self.mesh.vertices[self.mesh.cells[cb]].transpose(1, 0, 2)
                k = np.linalg.norm(
                    (u2 - u0)[:, None] * (x1 - x0) - (u1 - u0)[:, None] * (x2 - x0), axis=1
                )
                # the superlevel kernel's branches and denominators; the
                # branch not taken may divide by a zero edge
                with np.errstate(divide="ignore", invalid="ignore"):
                    upper = (a_ - t) / ((a_ - b_) * (a_ - c_))
                    lower = (t - c_) / ((a_ - c_) * (b_ - c_))
                size[b] = np.where(t >= b_, upper, lower) * k
        else:
            size = np.ones(len(cell))
        if weights is not None:
            size *= self._cell_weights(weights)[cell]
        return np.bincount(tid, weights=size, minlength=len(ts))

    def superlevel(self, weights=None):
        """Sum over cells of weight times the area fraction of {u > t}.

        One sum per threshold of the batch. The default weight is
        ``mesh.cell_measure``, giving H^n{u > t}.
        """
        w = self.mesh.cell_measure if weights is None else self._cell_weights(weights)
        by_min, min_sorted = self._by_min
        cell, tid, ts = self._cell, self._tid, self._ts
        part = np.empty(len(cell))
        for b in _blocks(len(cell)):
            cb, t = cell[b], ts[tid[b]]
            c_, a_ = self._lo[cb], self._hi[cb]
            if self.mesh.dimension == 2:
                # both closed forms over the whole block, then select: the
                # branch not taken may divide by a zero edge (a == b or
                # b == c), and its inf or nan is discarded
                b_ = self._mid[cb]
                den_upper, den_lower = self._denominators
                with np.errstate(divide="ignore", invalid="ignore"):
                    upper = (a_ - t) ** 2 / den_upper[cb]
                    lower = 1.0 - (t - c_) ** 2 / den_lower[cb]
                frac = np.where(t >= b_, upper, lower)
            else:
                frac = (a_ - t) / (a_ - c_)
            part[b] = frac * w[cb]
        whole = np.concatenate([np.cumsum(w[by_min][::-1])[::-1], [0.0]])
        above = whole[np.searchsorted(min_sorted, ts, side="right")]
        return above + np.bincount(tid, weights=part, minlength=len(ts))


def _blocks(n):
    # slices of at most _BLOCK pairs covering range(n): the kernels' per-pair
    # temporaries stay bounded however many pairs a batch has
    return (slice(s, s + _BLOCK) for s in range(0, n, _BLOCK))


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


def gromov_ratio(field, t):
    """Boundary measure of {u > t} over the matched-cap bound.

    The denominator is the mesh's beta times the boundary of the model-sphere
    cap whose beta-scaled volume matches the superlevel measure. Ratios below
    1 violate the comparison at mesh resolution. An array of thresholds gives
    an array of ratios from one sweep of the field; a scalar gives a float.
    """
    _require_interior_level(field, t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    n = field.mesh.dimension
    sweep = LevelSweep(field, ts)
    mu = sweep.superlevel()
    if not np.all((mu > 0.0) & (mu < total_measure(field.mesh))):
        raise ValueError("superlevel set must be proper and nonempty")
    bet = beta(field.mesh)
    ratios = sweep.level() / (bet * cap_boundary(cap_radius(mu / bet, n), n))
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


def battery_ratios(fields, rng, thresholds):
    """Gromov ratios of a field battery, one sweep per field.

    Each field gets ``thresholds`` levels drawn from rng, uniform over the
    middle 70% of its range, in field order; the ratios are concatenated.
    """
    ratios = []
    for fld in fields:
        lo, hi = _field_range(fld)
        ts = lo + (hi - lo) * rng.uniform(0.15, 0.85, thresholds)
        ratios.append(gromov_ratio(fld, ts))
    return np.concatenate(ratios)

