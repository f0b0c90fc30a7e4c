"""Experiment drivers tying the solvers to the model-sphere geometry.

Three entry points: a single-mesh eigenvalue comparison against the round
sphere reference, a four-step audit of the symmetrization energy argument
on a computed Dirichlet eigenfunction, and a pinching sweep over the
ellipsoid family that records the (diameter, eigenvalue ratio) curve.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .isoperim import LevelSweep
from .manifold import (
    beta as measure_ratio,
    build_ellipsoid,
    cap_radius,
    spheroid_diameter,
)
from .pspectral import check_p, closed_eigen, dirichlet_eigen, solve_radial_1d, _fem
from .rearrange import cap_shells, symmetrize

_CURVATURE_FLOOR = 0.99
_AUDIT_GRID = 64


@dataclass
class SweepRecord:
    """One family point: eigenvalue against the model-sphere reference."""

    aspect: float
    p: float
    lam_mesh: float
    lam_model: float
    ratio: float
    diameter: float
    beta: float
    level: int
    min_curvature: float
    equality_case: bool
    iterations: int
    converged: bool
    failed: bool = False
    error: str = ""

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _curvature_certificate(mesh):
    if "min_curvature" not in mesh.meta:
        raise ValueError("mesh carries no curvature certificate in meta")
    return float(mesh.meta["min_curvature"])


def _is_round_unit(mesh):
    return mesh.meta.get("min_curvature") == mesh.meta.get("max_curvature") == 1.0


def _sweep_record(mesh, p, opts, lam_model, keep_going=False):
    """Solve the closed eigenvalue of one family point into its record.

    The diameter, beta and curvature certificate come from the mesh: the
    diameter is the exact one of ``meta["semi_axes"]``
    (:func:`~pspec.manifold.spheroid_diameter`). With ``keep_going`` a
    solver exception becomes a failed row carrying the exception type and
    message; otherwise it propagates.
    """
    if "semi_axes" not in mesh.meta:
        raise ValueError("mesh carries no semi_axes in meta, so its diameter is unknown")
    row = SweepRecord(
        aspect=float(mesh.meta.get("aspect", 1.0)),
        p=float(p),
        lam_mesh=float("nan"),
        lam_model=lam_model,
        ratio=float("nan"),
        diameter=spheroid_diameter(mesh.meta["semi_axes"]),
        beta=measure_ratio(mesh),
        level=int(mesh.meta.get("level", -1)),
        min_curvature=_curvature_certificate(mesh),
        equality_case=False,
        iterations=0,
        converged=False,
    )
    try:
        res = closed_eigen(mesh, p, opts)
    except Exception as exc:  # noqa: BLE001 - a sweep must survive rows
        if not keep_going:
            raise
        return replace(row, failed=True, error=f"{type(exc).__name__}: {exc}")
    return replace(
        row,
        lam_mesh=res.lam,
        ratio=res.lam / lam_model,
        equality_case=_is_round_unit(mesh),
        iterations=res.iterations,
        converged=res.converged,
    )


def sphere_comparison(mesh, p, opts=None, lam_model=None):
    """Closed first eigenvalue of the mesh against the round-sphere value.

    Requires a curvature certificate with minimum >= 0.99 and the
    ``semi_axes`` that give the diameter, as the builder icospheres and
    ellipsoids carry; the reference value comes from the radial shooting
    solver. Ratios at or above 1 (minus mesh tolerance) confirm the
    comparison; the equality flag marks the round unit sphere.
    """
    check_p(p)
    min_curv = _curvature_certificate(mesh)
    if min_curv < _CURVATURE_FLOOR:
        raise ValueError(
            f"curvature minimum {min_curv:.4f} is below {_CURVATURE_FLOOR}"
        )
    if lam_model is None:
        lam_model = solve_radial_1d(p, mesh.dimension, "hemisphere")
    return _sweep_record(mesh, p, opts, lam_model)


def _signed_worst(values):
    values = np.asarray(values)
    return float(values[np.argmax(np.abs(values))])


def chain_audit(domain, p, opts=None):
    """Audit the energy-comparison argument on a Dirichlet eigenfunction.

    Four steps, each evaluated on a uniform threshold grid spanning 5% to
    90% of the eigenfunction maximum (cumulative quantities are
    differentiated by central differences there; the top decile is kept in
    the cumulative tails but excluded from differentiation, where the
    level sets degenerate to mesh scale):

    1. distribution_derivative: -d/dt of the superlevel volume equals the
       level integral of 1/|grad u|.
    2. mass_transport: the p-mass above level t equals beta times the
       p-mass of the rearranged profile over the volume-matched cap.
    3. energy_slope_bound: -d/dt of the superlevel p-energy dominates
       boundary^p / (level integral of 1/|grad u|)^(p-1).
    4. energy_comparison: superlevel p-energy dominates beta times the
       rearranged profile's cap p-energy at every grid level.

    The rearranged profile meets the step-3 bound with equality by
    construction, since its slope is constant on each shell, so that
    equality is not checked. Steps 3 and 4 are inequalities (positive
    worst = violation); steps 1 and 2 are identities (worst = largest
    signed relative deviation). Returns {step name: worst} in step order.
    """
    check_p(p)
    mesh = domain.mesh
    if not mesh.closed or mesh.dimension != 2:
        raise ValueError("audit expects a domain of a closed surface mesh")
    res = dirichlet_eigen(domain, p, opts)
    if not res.converged:
        raise ValueError("audit requires a converged eigenfunction")
    field = res.field
    u = field.values
    bet = measure_ratio(mesh)
    n = mesh.dimension
    umax = float(u.max())

    levels = np.linspace(0.05 * umax, 0.90 * umax, _AUDIT_GRID)
    # extension to the maximum so cumulative tails are complete
    tail = np.linspace(levels[-1], umax, 17)[1:-1]
    ext = np.concatenate([levels, tail, [umax]])

    fem = _fem(mesh)
    g = np.linalg.norm(fem.gradients(u), axis=1)
    gp = g**p
    inv_g = np.zeros_like(g)
    np.divide(1.0, g, out=inv_g, where=g > 0)

    # one cut of the field at every level; the grid is ext[:_AUDIT_GRID]
    sweep = LevelSweep(field, ext[:-1])
    mu = sweep.superlevel()
    energy = sweep.superlevel(fem.cellw * gp)[:_AUDIT_GRID]
    bnd = sweep.level()[:_AUDIT_GRID]
    coarea_int = sweep.level(inv_g)[:_AUDIT_GRID]

    _, dvol, slope = cap_shells(ext, mu, bet, n)

    dmu = -np.gradient(mu[:_AUDIT_GRID], levels)
    worst = {"distribution_derivative": _signed_worst((dmu - coarea_int) / dmu)}

    # lumped masses above each level from one ascending sort: idx vertices
    # lie at or below the level (idx >= 1, as levels exceed the minimum 0)
    m = mesh.vertex_measure
    asc = np.argsort(u, kind="stable")
    mass_tail = np.concatenate(
        [np.cumsum((m[asc] * np.abs(u[asc]) ** p)[::-1])[::-1], [0.0]]
    )
    prof = symmetrize(field, bet)
    idx = np.searchsorted(u[asc], levels, side="right")
    lhs_mass = mass_tail[idx]
    cap_r = cap_radius((float(m.sum()) - np.cumsum(m[asc])[idx - 1]) / bet, n)
    rhs_mass = bet * prof.lp_mass_within(p, cap_r)
    worst["mass_transport"] = _signed_worst((lhs_mass - rhs_mass) / lhs_mass)

    denergy = -np.gradient(energy, levels)
    bound = bnd**p / coarea_int ** (p - 1.0)
    worst["energy_slope_bound"] = float(((bound - denergy) / denergy).max())

    star_energy = np.concatenate([np.cumsum((slope**p * dvol)[::-1])[::-1], [0.0]])
    rel_e = (bet * star_energy[:_AUDIT_GRID] - energy) / energy
    worst["energy_comparison"] = float(rel_e.max())
    return worst


def pinching_sweep(aspects, ps, level=4, opts=None):
    """Eigenvalue ratio against diameter across the ellipsoid family.

    One record per (aspect, p), sorted by diameter then p; each ellipsoid
    is built once per aspect. A row's ``diameter`` is the exact spheroid
    diameter of its ellipsoid (:func:`~pspec.manifold.spheroid_diameter`).
    Solver failures are recorded on the row and do not stop the sweep. The
    reference eigenvalue is solved once per p. Once an ellipsoid's rows are
    solved its FEM operators, and with them its K + M factorization, are
    dropped, so the sweep holds one mesh's caches at a time.
    """
    lam_model = {float(p): solve_radial_1d(p, 2, "hemisphere") for p in ps}
    records = []
    for a in aspects:
        mesh = build_ellipsoid(a, level)
        records.extend(
            _sweep_record(mesh, p, opts, lam_model[float(p)], keep_going=True) for p in ps
        )
        mesh.__dict__.pop("_fem_ops", None)
    records.sort(key=lambda r: (r.diameter, r.p))
    return records
