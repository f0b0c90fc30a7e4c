"""Cap symmetrization and rearrangement checks.

A vertex field is symmetrized by transporting its superlevel measures
onto concentric geodesic caps of the model unit sphere, after dividing the
measure by its mesh's volume ratio beta. The checks in this module confirm
the two defining properties numerically: scaled p-mass is preserved, and
the p-Dirichlet energy does not increase beyond the beta factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .manifold import beta, cap_boundary, cap_radius, cap_volume
from .isoperim import LevelSweep
from .pspectral import _fem

_CHECK_GRID = 256
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass
class RadialProfile:
    """Non-increasing radial function on model-sphere caps.

    Piecewise linear in the cap radius: ``knots`` ascend from 0, ``values``
    never increase. value_at is the monotone interpolant; the p-mass helpers
    integrate value^p weighted by the cap boundary measure, i.e. over the
    model sphere in polar coordinates, by one 8-point Gauss rule on every
    knot interval.
    """

    dimension: int
    knots: np.ndarray
    values: np.ndarray

    def value_at(self, r):
        return np.interp(r, self.knots, self.values)

    @cached_property
    def _gauss(self):
        # half-widths, profile values and cap boundary weights at the Gauss
        # nodes of every knot interval, evaluated once and shared by every p
        a, b = self.knots[:-1], self.knots[1:]
        half = 0.5 * (b - a)
        r = 0.5 * (a + b)[:, None] + half[:, None] * _GAUSS_NODES
        nodes = half, self.value_at(r), cap_boundary(r, self.dimension)
        for arr in nodes:
            arr.setflags(write=False)
        return nodes

    def _interval_masses(self, p):
        half, vals, bnd = self._gauss
        return half * ((vals**p * bnd) @ _GAUSS_WEIGHTS)

    def lp_mass(self, p):
        """Integral of value^p over the model sphere (polar coordinates)."""
        return float(self._interval_masses(p).sum())

    def knot_lp_masses(self, p):
        """Integral of value^p over the cap of radius ``knots[k]``, for every k.

        Cumulative sums of the knot intervals' masses, from 0 at the first
        knot; the cap of the k largest vertex values of a symmetrized field
        reaches out to ``knots[k]``.
        """
        return np.concatenate([[0.0], np.cumsum(self._interval_masses(p))])

    def knot_energies(self, p):
        """p-Dirichlet energy over the cap of radius ``knots[k]``, for every k.

        Cumulative sums, from 0 at the first knot, of |slope|^p times the
        volume of each knot interval's shell; a shell of zero width adds 0.
        """
        dr = np.diff(self.knots)
        slope = np.divide(np.diff(self.values), dr, out=np.zeros(len(dr)), where=dr > 0)
        shells = np.diff(cap_volume(self.knots, self.dimension))
        return np.concatenate([[0.0], np.cumsum(np.abs(slope) ** p * shells)])

    def rows(self):
        """(radius, value) pairs for tabular output."""
        return np.column_stack([self.knots, self.values])


def cap_profile(values, measures, mesh):
    """Cap rearrangement of a field on ``mesh`` at the given values.

    ``values`` never increase and ``measures``, the superlevel measures at
    them, never decrease from 0. Divided by the mesh's beta, each measure
    is matched to a cap of the model S^n, whose radius is the value's knot.
    """
    knots = cap_radius(np.asarray(measures) / beta(mesh), mesh.dimension)
    return RadialProfile(dimension=mesh.dimension, knots=knots, values=np.asarray(values))


def symmetrize(field):
    """Decreasing cap rearrangement of the positive part of a field.

    The lumped masses of the positive vertex values, in exact descending
    order with the higher vertex index first among equal values (the order
    of :func:`~pspec.harness.chain_audit`), fill caps out from knot 0. Knot
    0 holds the maximum and each later knot the mean of the two values
    whose shells meet there; the last shell's outer value is 0, or the
    last value on a positive field. The field must have a positive part.
    A mesh with beta above 1 draws a warning.
    """
    u = field.values
    m = field.mesh.vertex_measure
    if not (u > 0).any():
        raise ValueError("field has no positive part to rearrange")
    bet = beta(field.mesh)
    if bet > 1.0 + 1e-12:
        warnings.warn(
            f"measure ratio {bet} exceeds 1: the mesh is larger than the unit "
            "model sphere, so Bishop's bound fails and the Ric >= n - 1 "
            "comparisons need not hold",
            stacklevel=2,
        )
    order = np.argsort(u, kind="stable")[::-1]
    keep = u[order] > 0
    vals = u[order][keep]
    outer = np.append(vals, vals[-1] if keep.all() else 0.0)
    mass = np.append(0.0, np.cumsum(m[order][keep]))
    prof = cap_profile(np.append(vals[0], 0.5 * (outer[:-1] + outer[1:])), mass, field.mesh)
    assert (np.diff(prof.knots) >= 0).all()
    return prof


@dataclass
class CheckResult:
    """Two sides of one check and their signed gap (lhs - rhs) / lhs."""

    lhs: float
    rhs: float
    rel_gap: float


def lp_equimeasurability(field, profile, p):
    """Compare p-masses: positive part of the field vs beta of its mesh
    times the cap rearrangement on the model sphere. rel_gap is signed,
    relative to lhs."""
    u = field.values
    m = field.mesh.vertex_measure
    lhs = float(m @ np.where(u > 0, u, 0.0) ** p)
    rhs = beta(field.mesh) * profile.lp_mass(p)
    return CheckResult(lhs, rhs, (lhs - rhs) / lhs)


def polya_szego_check(field, p):
    """Energy comparison: p-Dirichlet energy of the positive part vs beta
    of its mesh times the energy of its cap rearrangement.

    The lhs is the solver's cell energy of the positive part
    (``_Operators.energy_mass``). The rearranged energy is the whole-sphere
    :meth:`RadialProfile.knot_energies` of the :func:`cap_profile` of a
    uniform level grid, from the maximum down to 0. Its caps match
    interpolated superlevel measures, not lumped ones: their t-derivative
    is the coarea integrand of the interpolant, so the slopes stay free of
    vertex-mass granularity noise. The rhs is beta times that energy, so
    rel_gap must be nonnegative up to mesh error; it divides by lhs, so a
    constant field, whose lhs is rounding noise, is rejected.
    """
    u = field.values
    if not (u > 0).any():
        raise ValueError("field has no positive part to compare")
    if u.max() <= u.min():
        raise ValueError("constant field has no level structure")
    lhs = _fem(field.mesh).energy_mass(np.where(u > 0, u, 0.0), p)[0]

    levels = np.linspace(0.0, float(u.max()), _CHECK_GRID + 1)[::-1]
    prof = cap_profile(levels, LevelSweep(field, levels).superlevel(), field.mesh)
    rhs = beta(field.mesh) * float(prof.knot_energies(p)[-1])
    return CheckResult(lhs, rhs, (lhs - rhs) / lhs)
