"""Spectral geometry toolkit for discrete manifolds.

Builds icospheres, curvature-normalized ellipsoids, intervals and circles;
computes first Dirichlet and closed p-Laplacian eigenvalues; performs cap
symmetrization on the model sphere; and checks the rearrangement and
isoperimetric inequalities that connect eigenvalues to diameters, with
level sets whose lengths integrate exactly to the total variation (the
coarea formula).
"""

__version__ = "0.1.0"

from .manifold import (
    Domain,
    Mesh,
    beta,
    build_circle,
    build_ellipsoid,
    build_icosphere,
    build_interval,
    cap_boundary,
    cap_radius,
    cap_volume,
    hemisphere_domain,
    interior_domain,
    read_off,
    spheroid_diameter,
    superlevel_domain,
    total_measure,
    write_off,
)
from .pspectral import (
    EigenResult,
    ScalarField,
    closed_eigen,
    coordinate_field,
    dirichlet_eigen,
    nodal_domains,
    rayleigh_quotient,
    solve_radial_1d,
)
from .rearrange import (
    RadialProfile,
    lp_equimeasurability,
    polya_szego_check,
    symmetrize,
)
from .isoperim import (
    LevelSweep,
    check_battery,
    domain_bump_battery,
    gromov_ratio,
)
from .harness import SweepRecord, chain_audit, pinching_sweep
