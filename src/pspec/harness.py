"""Experiment drivers tying the solvers to the model-sphere geometry.

Two entry points: a two-step audit of the symmetrization energy argument
on a computed Dirichlet eigenfunction, and a pinching sweep over the
ellipsoid family that compares each closed eigenvalue with the round
sphere reference and records the (diameter, eigenvalue ratio) curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .isoperim import LevelSweep
from .manifold import beta as measure_ratio, build_ellipsoid, spheroid_diameter
from .pspectral import check_p, closed_eigen, dirichlet_eigen, solve_radial_1d, _fem
from .rearrange import cap_shells, symmetrize

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
    grad_norm: float = float("nan")
    failed: bool = False
    error: str = ""


def _is_round_unit(mesh):
    return mesh.meta.get("min_curvature") == mesh.meta.get("max_curvature") == 1.0


def _sweep_record(mesh, p, lam_model):
    """Solve the closed eigenvalue of one ellipsoid into its record.

    The aspect, level, beta and curvature certificate come from the mesh
    that :func:`~pspec.manifold.build_ellipsoid` built; the diameter is the
    exact one of its ``meta["semi_axes"]``
    (:func:`~pspec.manifold.spheroid_diameter`). A solver exception becomes
    a failed row carrying the exception type and message.
    """
    meta = mesh.meta
    row = SweepRecord(
        aspect=meta["aspect"],
        p=float(p),
        lam_mesh=float("nan"),
        lam_model=lam_model,
        ratio=float("nan"),
        diameter=spheroid_diameter(meta["semi_axes"]),
        beta=measure_ratio(mesh),
        level=meta["level"],
        min_curvature=meta["min_curvature"],
        equality_case=False,
        iterations=0,
        converged=False,
    )
    try:
        res = closed_eigen(mesh, p)
    except Exception as exc:  # noqa: BLE001 - a sweep must survive rows
        return replace(row, failed=True, error=f"{type(exc).__name__}: {exc}")
    return replace(
        row,
        lam_mesh=res.lam,
        ratio=res.lam / lam_model,
        equality_case=_is_round_unit(mesh),
        iterations=res.iterations,
        converged=res.converged,
        grad_norm=res.diagnostics["grad_norm"],
    )


def _signed_worst(values):
    values = np.asarray(values)
    return float(values[np.argmax(np.abs(values))])


def chain_audit(domain, p):
    """Audit the energy-comparison argument on a Dirichlet eigenfunction.

    Two steps, each evaluated on a uniform threshold grid spanning 5% to
    90% of the eigenfunction maximum; the cumulative tails run on to the
    maximum:

    1. mass_transport: the p-mass above level t equals beta times the
       p-mass of the rearranged profile over the volume-matched cap.
    2. energy_comparison: superlevel p-energy, summed from the solver's
       cell energies (``_Operators.energy_mass``), dominates beta times
       the rearranged profile's cap p-energy at every grid level.

    Step 1 is an identity (worst = largest signed relative deviation),
    step 2 an inequality (positive worst = violation). Returns {step name:
    worst} in step order. The argument's two steps between them hold in
    every cell of a P1 field and are not audited: -d/dt of the superlevel
    volume is exactly the level integral of 1/|grad u| between vertex
    values, and with it the slope bound on -d/dt of the superlevel
    p-energy is Holder's inequality on each level set.
    """
    check_p(p)
    mesh = domain.mesh
    if not mesh.closed or mesh.dimension != 2:
        raise ValueError("audit expects a domain of a closed surface mesh")
    res = dirichlet_eigen(domain, p)
    if not res.converged:
        raise ValueError("audit requires a converged eigenfunction")
    field = res.field
    u = field.values
    bet = measure_ratio(mesh)
    umax = float(u.max())

    levels = np.linspace(0.05 * umax, 0.90 * umax, _AUDIT_GRID)
    # extension to the maximum so cumulative tails are complete
    tail = np.linspace(levels[-1], umax, 17)[1:-1]
    ext = np.concatenate([levels, tail, [umax]])

    fem = _fem(mesh)
    q = fem.energy_mass(u, p)[4]

    # one cut of the field at every level; the grid is ext[:_AUDIT_GRID]
    sweep = LevelSweep(field, ext[:-1])
    mu = sweep.superlevel()
    energy = sweep.superlevel(fem.cellw * q)[:_AUDIT_GRID]

    _, dvol, slope = cap_shells(ext, mu, mesh)

    # lumped masses above each level from one ascending sort: idx vertices
    # lie at or below the level. The rearranged profile puts the len(u) - idx
    # vertices above it on the cap out to its knot of that index
    m = mesh.vertex_measure
    asc = np.argsort(u, kind="stable")
    mass_tail = np.concatenate(
        [np.cumsum((m[asc] * np.abs(u[asc]) ** p)[::-1])[::-1], [0.0]]
    )
    idx = np.searchsorted(u[asc], levels, side="right")
    lhs_mass = mass_tail[idx]
    rhs_mass = bet * symmetrize(field).knot_lp_masses(p)[len(u) - idx]
    rel_mass = (lhs_mass - rhs_mass) / lhs_mass

    star_energy = np.concatenate([np.cumsum((slope**p * dvol)[::-1])[::-1], [0.0]])
    rel_e = (bet * star_energy[:_AUDIT_GRID] - energy) / energy
    return {"mass_transport": _signed_worst(rel_mass), "energy_comparison": float(rel_e.max())}


def pinching_sweep(aspects, ps, level=4):
    """Closed eigenvalues of the ellipsoid family against the round sphere.

    One record per (aspect, p), sorted by diameter then p; each ellipsoid
    is built once per aspect, with minimum curvature 1. A row's ``ratio``
    is its eigenvalue over the radial shooting solver's round-sphere value
    (solved once per p), at or above 1 up to mesh error; the aspect-1.0
    row, the round unit sphere, is the equality case. A row's ``diameter``
    is its ellipsoid's exact one (:func:`~pspec.manifold.spheroid_diameter`).
    Solver failures are recorded on the row and do not stop the sweep. Once
    an ellipsoid's rows are solved its FEM operators, and with them its
    K + M factorization, are dropped, so the sweep holds one mesh's caches
    at a time.
    """
    lam_model = {float(p): solve_radial_1d(p, 2, "hemisphere") for p in ps}
    records = []
    for a in aspects:
        mesh = build_ellipsoid(a, level)
        records.extend(_sweep_record(mesh, p, lam_model[float(p)]) for p in ps)
        mesh.__dict__.pop("_fem_ops", None)
    records.sort(key=lambda r: (r.diameter, r.p))
    return records
