import numpy as np
import pytest

from pspec.manifold import (
    beta,
    build_ellipsoid,
    build_icosphere,
    cap_boundary,
    cap_radius,
    cap_volume,
    hemisphere_domain,
)
from pspec.isoperim import LevelSweep, domain_bump_battery, gromov_ratio
from pspec.pspectral import ScalarField, _fem, coordinate_field, dirichlet_eigen
from pspec.rearrange import (
    RadialProfile,
    cap_shells,
    lp_equimeasurability,
    polya_szego_check,
    symmetrize,
)


def quadratic_field(mesh):
    # fixed coefficients so the same function lives on every refinement level
    x = mesh.vertices
    q = np.array([[0.3, -0.2, 0.1], [-0.2, 0.5, 0.15], [0.1, 0.15, -0.8]])
    lin = x @ np.array([0.4, -1.1, 0.7])
    return ScalarField(mesh, lin + np.einsum("vi,ij,vj->v", x, q, x))


def positive_part(field):
    return ScalarField(field.mesh, np.maximum(field.values, 0.0))


def gauss_lp_mass(prof, p):
    # 8-point Gauss-Legendre rule on every knot interval of the profile,
    # weighted by the cap boundary measure
    nodes, weights = np.polynomial.legendre.leggauss(8)
    a, b = prof.knots[:-1], prof.knots[1:]
    half = 0.5 * (b - a)
    r = 0.5 * (a + b)[:, None] + half[:, None] * nodes[None, :]
    vals = prof.value_at(r.ravel()) ** p * cap_boundary(r.ravel(), prof.dimension)
    return float((half * (vals.reshape(r.shape) @ weights)).sum())


# ---------------------------------------------------------------------------
# symmetrize


def test_symmetrize_distinct_values_against_reference(ico2, rng):
    u = rng.uniform(0.5, 3.0, size=len(ico2.vertices))  # positive, no ties
    assert len(np.unique(u)) == len(u)
    b = beta(ico2)
    prof = symmetrize(ScalarField(ico2, u))

    order = np.argsort(-u)
    radii = cap_radius(np.cumsum(ico2.vertex_measure[order]) / b, 2)
    np.testing.assert_allclose(prof.knots[1:], radii, atol=1e-12)
    np.testing.assert_allclose(prof.values[1:], u[order], atol=0)
    assert prof.values[0] == u.max()


def test_symmetrize_constant_covers_model_sphere(ico3):
    c = 1.3
    prof = symmetrize(ScalarField(ico3, np.full(len(ico3.vertices), c)))
    # the inverse cap map is flat at the far pole, so rounding in the
    # accumulated mass costs sqrt(eps) in the radius
    assert prof.knots[-1] == pytest.approx(np.pi, abs=1e-6)
    r = np.linspace(0.0, np.pi, 50)
    np.testing.assert_allclose(prof.value_at(r), c, atol=1e-12)


def test_symmetrize_idempotent_on_radial_data(ico4):
    # z+ is already a decreasing cap function; its profile must reproduce
    # cos(r) on the upper cap within one mesh edge
    zp = positive_part(coordinate_field(ico4))
    prof = symmetrize(zp)
    r = np.linspace(0.01, np.pi - 0.01, 300)
    dev = np.abs(prof.value_at(r) - np.maximum(np.cos(r), 0.0)).max()
    ends = ico4.vertices[ico4.edges]
    assert dev <= np.linalg.norm(ends[:, 0] - ends[:, 1], axis=1).max()


def test_symmetrize_profile_monotone_and_max(ico3, rng):
    f = ScalarField(ico3, rng.normal(size=len(ico3.vertices)))
    prof = symmetrize(f)
    assert (np.diff(prof.knots) >= 0).all()
    assert (np.diff(prof.values) <= 0).all()
    assert prof.values[0] == f.values.max()


def test_symmetrize_rejects_nonpositive(ico3):
    with pytest.raises(ValueError):
        symmetrize(ScalarField(ico3, -np.ones(len(ico3.vertices))))


def test_symmetrize_beta_above_one_warns(ico3):
    big = ico3.scaled(1.2)
    assert beta(big) > 1.0
    zp = positive_part(coordinate_field(big))
    with pytest.warns(UserWarning, match="larger than the unit model sphere"):
        symmetrize(zp)


# ---------------------------------------------------------------------------
# equimeasurability


def test_equimeasurability_constant_exact(ico3):
    c = ScalarField(ico3, np.full(len(ico3.vertices), 0.7))
    chk = lp_equimeasurability(c, symmetrize(c), 2.0)
    assert abs(chk.rel_gap) <= 1e-10


def test_equimeasurability_zplus_analytic(ico4):
    zp = positive_part(coordinate_field(ico4))
    chk = lp_equimeasurability(zp, symmetrize(zp), 2.0)
    assert abs(chk.rel_gap) <= 0.01
    assert chk.lhs == pytest.approx(2 * np.pi / 3, rel=0.01)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0])
def test_equimeasurability_random_small_gap(ico3, p):
    f = quadratic_field(ico3)
    prof = symmetrize(f)
    chk = lp_equimeasurability(f, prof, p)
    assert abs(chk.rel_gap) <= 0.01
    assert prof.lp_mass(p) == gauss_lp_mass(prof, p)


def test_equimeasurability_gap_shrinks_under_refinement(ico3, ico4):
    gaps = []
    for m in (ico3, ico4):
        f = quadratic_field(m)
        gaps.append(abs(lp_equimeasurability(f, symmetrize(f), 3.0).rel_gap))
    assert gaps[1] < gaps[0]


def test_eigenfunction_equimeasurability(ico3):
    res = dirichlet_eigen(hemisphere_domain(ico3), 2.0)
    chk = lp_equimeasurability(res.field, symmetrize(res.field), 2.0)
    assert abs(chk.rel_gap) <= 0.01


@pytest.mark.parametrize(
    "mesh", [build_icosphere(3), build_ellipsoid(1.2, 3)], ids=["ico3", "ellipsoid"]
)
def test_scaling_the_mesh_by_two_is_exact(mesh):
    # doubling every length is exact in binary: level measures double,
    # superlevel measures and beta quadruple, the matched caps stay put
    f = quadratic_field(mesh)
    big = mesh.scaled(2.0)
    g = ScalarField(big, f.values)
    lo, hi = float(f.values.min()), float(f.values.max())
    ts = lo + (hi - lo) * np.array([0.25, 0.5, 0.75])
    assert (gromov_ratio(g, ts) == gromov_ratio(f, ts) / 2.0).all()
    with pytest.warns(UserWarning, match="larger than the unit model sphere"):
        prof_big = symmetrize(g)
    prof = symmetrize(f)
    for p in (1.5, 2.0, 3.0):
        gap = lp_equimeasurability(f, prof, p).rel_gap
        assert lp_equimeasurability(g, prof_big, p).rel_gap == gap


def gauss_lp_mass_within(prof, p, r_upper):
    # the same 8-point rule on every knot interval clipped to [0, r_upper]
    nodes, weights = np.polynomial.legendre.leggauss(8)
    a = np.minimum(prof.knots[:-1], r_upper)
    b = np.minimum(prof.knots[1:], r_upper)
    half = 0.5 * (b - a)
    r = 0.5 * (a + b)[:, None] + half[:, None] * nodes[None, :]
    vals = prof.value_at(r.ravel()) ** p * cap_boundary(r.ravel(), prof.dimension)
    return float((half * (vals.reshape(r.shape) @ weights)).sum())


@pytest.fixture(scope="module")
def quadratic_profile(ico3):
    f = quadratic_field(ico3)
    return symmetrize(f)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_knot_lp_masses_match_per_radius_rule(quadratic_profile, p):
    prof = quadratic_profile
    got = prof.knot_lp_masses(p)
    ref = np.array([gauss_lp_mass_within(prof, p, r) for r in prof.knots])
    assert got.shape == prof.knots.shape
    assert got[0] == 0.0
    np.testing.assert_allclose(got[1:], ref[1:], rtol=1e-13, atol=0.0)
    assert got[-1] == pytest.approx(prof.lp_mass(p), rel=1e-13)


def test_lp_mass_is_independent_of_call_order(ico3):
    f = quadratic_field(ico3)
    orders = [(3.0, 1.5, 2.0), (2.0, 3.0, 1.5), (1.5, 2.0, 3.0)]
    seen = []
    for order in orders:
        prof = symmetrize(f)
        seen.append({p: (prof.lp_mass(p), prof.knot_lp_masses(p).tobytes()) for p in order})
    assert seen[0] == seen[1] == seen[2]
    for p, (mass, _) in seen[0].items():
        assert mass == gauss_lp_mass(symmetrize(f), p)
    prof = symmetrize(f)
    prof.lp_mass(2.0)
    for arr in prof._gauss:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ---------------------------------------------------------------------------
# cap shells


def test_cap_shells_of_z_are_the_caps_of_z(ico4):
    # {z > t} is the cap of radius arccos t and the rearranged z is z itself,
    # so the radii track arccos(levels) and the slopes dt/dr track sin r.
    # Measured on this mesh with 64 levels: radius error 2.81e-3, slope
    # error 3.17e-3 against sin at the exact mid-radius of each shell; both
    # shrink about fourfold per refinement level (1.07e-2 at level 3,
    # 6.8e-4 at level 5 for the radii).
    z = coordinate_field(ico4)
    levels = np.linspace(-1.0, 1.0, 65)
    mu = LevelSweep(z, levels[:-1]).superlevel()
    radii, dv, slope = cap_shells(levels, mu, ico4)
    exact = np.arccos(levels)
    assert radii[-1] == 0.0
    assert np.abs(radii - exact).max() <= 3e-3
    assert np.abs(slope - np.sin(0.5 * (exact[:-1] + exact[1:]))).max() <= 3.5e-3
    assert dv.sum() == pytest.approx(4.0 * np.pi, rel=1e-13)


def test_cap_shells_zero_width_shell_has_zero_slope(ico2):
    # no mass between levels 1 and 2: the shell collapses to one radius
    radii, dv, slope = cap_shells(
        np.array([0.0, 1.0, 2.0, 3.0]), np.array([2.0, 1.0, 1.0]), ico2
    )
    assert radii[1] == radii[2] and radii[3] == 0.0
    assert dv[1] == 0.0 and slope[1] == 0.0
    assert (slope[[0, 2]] > 0).all()


@pytest.mark.parametrize("n", [1, 2])
def test_profile_masses_of_one_are_shell_volumes(n):
    # the integral of 1 over a shell is its volume; measured 3.5e-15 for n = 2
    edges = np.linspace(0.0, np.pi, 50)
    one = RadialProfile(dimension=n, knots=edges, values=np.ones(len(edges)))
    np.testing.assert_allclose(
        one._interval_masses(1.0), np.diff(cap_volume(edges, n)), rtol=0, atol=1e-14
    )


# ---------------------------------------------------------------------------
# energy comparison


def test_polya_szego_equality_on_radial_field(ico4):
    zp = positive_part(coordinate_field(ico4))
    chk = polya_szego_check(zp, 2.0)
    assert abs(chk.rel_gap) <= 0.01
    assert chk.lhs > 0 and chk.rhs > 0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_polya_szego_bump_battery(ico3, p):
    rng = np.random.default_rng(7)
    hemi = hemisphere_domain(ico3)
    margins = [
        polya_szego_check(f, p).rel_gap
        for f in domain_bump_battery(hemi, rng, 10)
    ]
    assert min(margins) >= -0.01


def test_polya_szego_eigenfunction_near_equality(ico4):
    res = dirichlet_eigen(hemisphere_domain(ico4), 2.0)
    b = beta(ico4)
    chk = polya_szego_check(res.field, 2.0)
    assert chk.rel_gap >= -0.01
    assert 0.97 <= b * chk.rhs / chk.lhs <= 1.0


def test_polya_szego_rejects_constant(ico2):
    # lhs of a constant field is rounding noise (1.1e-30 at 0.5), and the
    # relative margin divided by it read -4.39e24
    with pytest.raises(ValueError, match="constant"):
        polya_szego_check(ScalarField(ico2, np.full(len(ico2.vertices), 0.5)), 2.0)


def test_polya_szego_rejects_a_field_with_no_positive_part(ico2):
    z = coordinate_field(ico2).values
    for u in (np.minimum(z, 0.0), z - 2.0):
        with pytest.raises(ValueError, match="no positive part"):
            polya_szego_check(ScalarField(ico2, u), 2.0)


# ---------------------------------------------------------------------------
# coarea


def test_coarea_z_analytic(ico4):
    # total variation of the height: cell gradients and the exact integral of
    # the level lengths (midpoint rule between distinct vertex values) both
    # approximate int_{S^2} |grad z| = pi^2
    z = coordinate_field(ico4)
    fem = _fem(ico4)
    lhs = fem.cellw @ np.linalg.norm(fem.gradients(z.values), axis=1)
    v = np.unique(z.values)
    rhs = np.diff(v) @ LevelSweep(z, 0.5 * (v[:-1] + v[1:])).level()
    assert rhs == pytest.approx(lhs, rel=1e-12)
    assert lhs == pytest.approx(np.pi**2, rel=0.01)
