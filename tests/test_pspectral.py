import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from pspec import pspectral

from pspec.manifold import (
    Domain,
    build_circle,
    build_ellipsoid,
    build_icosphere,
    build_interval,
    hemisphere_domain,
    interior_domain,
    superlevel_domain,
    total_measure,
)
from pspec.pspectral import (
    ScalarField,
    check_p,
    closed_eigen,
    constraint_residual,
    coordinate_field,
    dirichlet_eigen,
    nodal_domains,
    project_constraint,
    rayleigh_quotient,
    solve_radial_1d,
    _BRACKET_SLACK,
    _RTOL,
    _brentq,
    _cos_quotient,
    _dop853,
    _eigen_solve,
    _fem,
)
from pspec.isoperim import gromov_ratio
from pspec.rearrange import polya_szego_check


def pi_p(p):
    return 2.0 * np.pi / (p * np.sin(np.pi / p))


def interval_eigenvalue(p, length=1.0):
    # first Dirichlet eigenvalue of the 1-D p-Laplacian on an interval
    return (p - 1.0) * (pi_p(p) / length) ** p


def dense_p2_eigenvalue(mesh, free=None):
    """Smallest relevant eigenvalue of the linear pair (stiffness, mass)."""
    fem = _fem(mesh)
    K = fem.stiffness.toarray()
    M = np.diag(fem.mass)
    if free is not None:
        K, M = K[np.ix_(free, free)], M[np.ix_(free, free)]
        return float(sla.eigh(K, M, eigvals_only=True)[0])
    return float(sla.eigh(K, M, eigvals_only=True)[1])  # skip the constant mode


# ---------------------------------------------------------------------------
# basics


def test_check_p_bounds():
    assert check_p(2) == 2.0
    with pytest.raises(ValueError, match="1.1"):
        check_p(0.9)
    with pytest.raises(ValueError):
        check_p(11.0)


def test_scalar_field_validation(ico3):
    with pytest.raises(ValueError):
        ScalarField(ico3, np.zeros(3))
    bad = np.zeros(len(ico3.vertices))
    bad[0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(ico3, bad)


def test_rayleigh_constant_is_zero(ico3):
    f = ScalarField(ico3, np.full(len(ico3.vertices), 2.5))
    # per-cell gradients of a constant cancel to rounding noise
    assert rayleigh_quotient(f, ico3, 2.0) <= 1e-25


def test_rayleigh_homogeneity(ico3, rng):
    f = ScalarField(ico3, rng.normal(size=len(ico3.vertices)))
    base = rayleigh_quotient(f, ico3, 3.0)
    for c in (-1.0, 0.5, 10.0):
        g = ScalarField(ico3, c * f.values)
        assert rayleigh_quotient(g, ico3, 3.0) == pytest.approx(base, rel=1e-12)


def test_rayleigh_of_z_near_two(ico4):
    z = coordinate_field(ico4)
    assert rayleigh_quotient(z, ico4, 2.0) == pytest.approx(2.0, rel=0.02)


def test_rayleigh_rejects_zero_field_and_bad_region(ico3, ico2):
    hemi = hemisphere_domain(ico3)
    f = ScalarField(ico3, np.where(ico3.vertices[:, 2] > 0, 0.0, 1.0))
    with pytest.raises(ValueError, match="zero field"):
        rayleigh_quotient(f, hemi, 2.0)  # vanishes on the interior
    z = coordinate_field(ico3)
    with pytest.raises(ValueError, match="domain does not belong to the field's mesh"):
        rayleigh_quotient(z, hemisphere_domain(ico2), 2.0)
    with pytest.raises(ValueError, match="region mesh does not match the field's mesh"):
        rayleigh_quotient(z, ico2, 2.0)
    seg = build_interval(5)
    with pytest.raises(ValueError, match="whole-mesh quotient requires a closed mesh"):
        rayleigh_quotient(coordinate_field(seg, 0), seg, 2.0)
    with pytest.raises(TypeError, match="region must be a Mesh or a Domain"):
        rayleigh_quotient(z, hemi.interior, 2.0)


# ---------------------------------------------------------------------------
# element operators


def cell_frames(mesh):
    """Unit normals of triangles, or unit tangents of segments."""
    x = mesh.vertices[mesh.cells]
    if mesh.dimension == 2:
        n = np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
    else:
        n = x[:, 1] - x[:, 0]
    return n / np.linalg.norm(n, axis=1)[:, None]


@pytest.mark.parametrize(
    "mesh",
    [build_icosphere(3), build_ellipsoid(1.2, 3), build_interval(7), build_circle(9, 2.0)],
    ids=["icosphere3", "ellipsoid3", "interval7", "circle9"],
)
def test_gradient_operator_of_linear_functions(mesh):
    # a.x has gradient a - (a.n)n on a triangle and (a.t)t on a segment
    frames = cell_frames(mesh)
    fem = _fem(mesh)
    for a in (*np.eye(3), np.array([0.3, -1.7, 2.9])):
        if mesh.dimension == 2:
            ref = a - (frames @ a)[:, None] * frames
        else:
            ref = (frames @ a)[:, None] * frames
        got = fem.gradients(mesh.vertices @ a)
        assert np.abs(got - ref).max() <= 1e-12 * np.linalg.norm(a)


def reference_stiffness(mesh):
    """Cotangent weights on triangles, 1 / length on segments."""
    V, C = mesh.vertices, mesh.cells
    rows, cols, vals = [], [], []
    if mesh.dimension == 2:
        for k in range(3):
            i, j, o = C[:, (k + 1) % 3], C[:, (k + 2) % 3], C[:, k]
            a, b = V[i] - V[o], V[j] - V[o]
            w = 0.5 * (a * b).sum(axis=1) / np.linalg.norm(np.cross(a, b), axis=1)
            rows += [i, j, i, j]
            cols += [j, i, i, j]
            vals += [-w, -w, w, w]
    else:
        i, j = C[:, 0], C[:, 1]
        w = 1.0 / np.linalg.norm(V[j] - V[i], axis=1)
        rows, cols, vals = [i, j, i, j], [j, i, i, j], [-w, -w, w, w]
    K = np.zeros((len(V), len(V)))
    np.add.at(K, (np.concatenate(rows), np.concatenate(cols)), np.concatenate(vals))
    return K


@pytest.mark.parametrize(
    "mesh",
    [build_icosphere(3), build_ellipsoid(1.2, 3), build_interval(7), build_circle(9, 2.0)],
    ids=["icosphere3", "ellipsoid3", "interval7", "circle9"],
)
def test_stiffness_matches_cotangent_assembly(mesh):
    ref = reference_stiffness(mesh)
    got = _fem(mesh).stiffness.toarray()
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# constraint projection and nodal domains


def test_project_constraint_odd_field_unchanged(ico3):
    z = coordinate_field(ico3)
    proj = project_constraint(z, 2.0)
    assert np.abs(proj.values - z.values).max() <= 1e-10


def test_project_constraint_p2_is_weighted_mean(ico3, rng):
    f = ScalarField(ico3, rng.normal(size=len(ico3.vertices)))
    proj = project_constraint(f, 2.0)
    m = ico3.vertex_measure
    mean = float(m @ f.values / m.sum())
    shift = float((f.values - proj.values)[0])
    assert shift == pytest.approx(mean, abs=1e-12)


def test_project_constraint_residual_random_p3(ico3, rng):
    f = ScalarField(ico3, rng.normal(size=len(ico3.vertices)))
    proj = project_constraint(f, 3.0)
    assert constraint_residual(proj, 3.0) <= 1e-10


def bisection_shift(field, p, steps=200):
    # reference root of the constraint defect by plain bisection
    u, m = field.values, field.mesh.vertex_measure
    lo, hi = float(u.min()), float(u.max())
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        d = u - mid
        if m @ (np.sign(d) * np.abs(d) ** (p - 1.0)) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 10.0])
def test_project_constraint_matches_bisection_reference(ico3, p):
    f = ScalarField(ico3, np.random.default_rng(11).uniform(-1.0, 1.0, len(ico3.vertices)))
    span = float(f.values.max() - f.values.min())
    proj = project_constraint(f, p)
    shift = f.values - proj.values
    assert np.abs(shift - bisection_shift(f, p)).max() <= 1e-14 * span
    assert constraint_residual(proj, p) <= 1e-12 * ico3.vertex_measure.sum()


def test_project_constraint_rejects_constant(ico3):
    with pytest.raises(ValueError):
        project_constraint(ScalarField(ico3, np.ones(len(ico3.vertices))), 2.0)


def scipy_projection_shift(field, p):
    # the shift of the projection as it was written on scipy.optimize.brentq
    u, m = field.values, field.mesh.vertex_measure
    lo, hi = float(u.min()), float(u.max())

    def defect(c):
        d = u - c
        return float(m @ (np.sign(d) * np.abs(d) ** (p - 1.0)))

    return brentq(defect, lo, hi, xtol=4.0 * np.finfo(float).eps * (hi - lo))


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 7.0])
@pytest.mark.parametrize("seed", range(4))
def test_project_constraint_is_bitwise_the_scipy_projection(ico2, p, seed):
    # named for the Brent projection, which matched scipy's bitwise; the
    # Newton projection meets scipy's root within brentq's own tolerance of
    # 4 eps times the range (measured at most 1.1e-16 of it on this grid)
    rng = np.random.default_rng(seed)
    f = ScalarField(ico2, rng.normal(size=len(ico2.vertices)) * 10.0 ** rng.uniform(-3, 3))
    span = float(f.values.max() - f.values.min())
    proj = project_constraint(f, p)
    shift = f.values - proj.values
    assert np.abs(shift - scipy_projection_shift(f, p)).max() <= 4.0 * np.finfo(float).eps * span
    assert np.abs(shift - bisection_shift(f, p)).max() <= 1e-14 * span
    # the residual in units of the integral of |u - c|^(p-1), scale-free
    scale = float(ico2.vertex_measure @ np.abs(proj.values) ** (p - 1.0))
    assert constraint_residual(proj, p) <= 1e-12 * scale


@pytest.mark.parametrize("p", [1.1, 1.2, 1.5, 3.0, 7.0, 10.0])
@pytest.mark.parametrize("kind", ["normal", "one_sign", "odd"])
def test_project_constraint_matches_bisection_on_hard_fields(ico2, p, kind):
    # one_sign starts mid-range, far from the root; the odd z field has its
    # root at 0 up to rounding, where the first point c = 0 sits on the
    # equator's vertices and D' is infinite for p < 2
    rng = np.random.default_rng(5)
    values = {
        "normal": rng.normal(size=len(ico2.vertices)),
        "one_sign": 3.0 + rng.uniform(0.0, 1.0, len(ico2.vertices)) ** 3,
        "odd": ico2.vertices[:, 2].copy(),
    }[kind]
    f = ScalarField(ico2, values)
    span = float(values.max() - values.min())
    evals = []
    proj = project_constraint(f, p, evals)
    shift = f.values - proj.values
    assert np.abs(shift - bisection_shift(f, p)).max() <= 1e-14 * span
    assert len(evals) == 1 and 1 <= evals[0] <= 100


@pytest.mark.parametrize("p", [1.1, 1.2, 1.5, 2.0, 3.0, 10.0])
def test_projection_lands_on_a_root_at_a_vertex(p):
    # every |u - 0.5| is 0 or 1, so D(0.5) = 0 exactly and two vertices sit
    # on the root; the start c = 0 is off it
    u, m = np.array([-0.5, 0.5, 0.5, 1.5, 0.5, -0.5, 1.5]), np.ones(7)
    evals = []
    c = (u - pspectral._project(u, m, p, evals))[0]
    assert abs(c - 0.5) <= 1e-14 * 2.0
    assert evals[0] <= 100


def test_projection_evals_counts_every_defect_evaluation(ico2, monkeypatch):
    # each defect evaluation of the projection makes one np.copysign call,
    # and nothing else in a closed solve calls it
    evaluated = []
    real_copysign = np.copysign

    def counting_copysign(*args, **kwargs):
        evaluated.append(1)
        return real_copysign(*args, **kwargs)

    monkeypatch.setattr(np, "copysign", counting_copysign)
    for p in (1.5, 2.0, 3.0):
        evaluated.clear()
        diagnostics = closed_eigen(build_icosphere(2), p).diagnostics
        assert diagnostics["projection_evals"] == len(evaluated) > 0
    monkeypatch.undo()
    for p in (2.0, 3.0):                # a Dirichlet solve projects nothing
        assert "projection_evals" not in dirichlet_eigen(hemisphere_domain(ico2), p).diagnostics


def test_projection_raises_after_its_evaluation_budget(rng, monkeypatch):
    u = rng.standard_normal(50)
    assert u.min() < 0.0 < u.max()
    monkeypatch.setattr(pspectral, "_MAX_PROJECTION_EVALS", 1)
    with pytest.raises(RuntimeError, match="constraint projection failed to converge"):
        pspectral._project(u, rng.uniform(0.5, 1.5, 50), 3.0)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_warm_projection_costs_few_evaluations(p, monkeypatch):
    real_project, calls = pspectral._project, []

    def counting_project(*args):
        calls.append(1)
        return real_project(*args)

    monkeypatch.setattr(pspectral, "_project", counting_project)
    res = closed_eigen(build_ellipsoid(1.2, 3), p)
    # measured 2.0 at p = 1.5 and 1.0 at p = 3
    assert res.diagnostics["projection_evals"] <= 2.5 * len(calls)


def test_nodal_domains_coordinate_and_constant(ico3):
    z = coordinate_field(ico3)
    count, labels = nodal_domains(z)
    assert count == 2
    assert (labels[ico3.vertices[:, 2] == 0.0] == -1).all()
    count, labels = nodal_domains(ScalarField(ico3, np.ones(len(ico3.vertices))))
    assert count == 1
    assert (labels >= 0).all()


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_closed_eigenfunction_has_two_nodal_domains(ico3, p):
    res = closed_eigen(ico3, p)
    assert res.converged
    count, _ = nodal_domains(res.field)
    assert count == 2


# ---------------------------------------------------------------------------
# radial shooting oracle


@pytest.mark.parametrize("n", [2, 3, 4])
def test_radial_hemisphere_p2_equals_dimension(n):
    assert solve_radial_1d(2.0, n, "hemisphere") == pytest.approx(n, rel=1e-10)


def test_radial_interval_p2_is_pi_squared():
    assert solve_radial_1d(2.0, 2, "interval") == pytest.approx(np.pi**2, abs=1e-8)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 5.0, 10.0])
def test_radial_interval_matches_analytic_family(p):
    assert solve_radial_1d(p, 2, "interval") == pytest.approx(
        interval_eigenvalue(p), rel=1e-14
    )


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_radial_hemisphere_n1_matches_analytic_family(p):
    # the n=1 problem folds out to a Dirichlet interval of length pi
    assert solve_radial_1d(p, 1, "hemisphere") == pytest.approx(
        interval_eigenvalue(p, length=np.pi), rel=1e-9
    )


def test_radial_input_validation():
    with pytest.raises(ValueError):
        solve_radial_1d(2.0, 0, "hemisphere")
    with pytest.raises(ValueError):
        solve_radial_1d(2.0, 2, "disk")


def test_radial_regression_pins():
    # shooting values used as sweep references; guards against drift
    assert solve_radial_1d(1.5, 2, "hemisphere") == pytest.approx(1.723580, rel=2e-5)
    assert solve_radial_1d(3.0, 2, "hemisphere") == pytest.approx(2.172600, rel=2e-5)


# ---------------------------------------------------------------------------
# Dirichlet solver


def test_interval_dirichlet_p2():
    domain = interior_domain(build_interval(120))
    res = dirichlet_eigen(domain, 2.0)
    assert res.converged
    assert res.lam == pytest.approx(np.pi**2, rel=2e-3)


def test_interval_dirichlet_p15_matches_shooting():
    domain = interior_domain(build_interval(120))
    res = dirichlet_eigen(domain, 1.5)
    assert res.lam == pytest.approx(solve_radial_1d(1.5, 2, "interval"), rel=2e-3)


def test_dirichlet_result_contract(ico3):
    hemi = hemisphere_domain(ico3)
    res = dirichlet_eigen(hemi, 2.0)
    assert res.converged and res.lam > 0
    u = res.field.values
    assert (u >= 0).all()
    assert not u[hemi.interior].min() == u[hemi.interior].max()
    assert (u[~hemi.interior] == 0).all()
    # unit p-norm and eigenvalue self-consistency
    mass = float(ico3.vertex_measure @ np.abs(u) ** 2)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert res.lam == pytest.approx(rayleigh_quotient(res.field, hemi, 2.0), rel=1e-10)


def test_dirichlet_p2_matches_dense_oracle(ico2):
    hemi = hemisphere_domain(ico2)
    res = dirichlet_eigen(hemi, 2.0)
    dense = dense_p2_eigenvalue(ico2, free=hemi.interior_indices)
    assert res.lam == pytest.approx(dense, rel=1e-9)


def test_domain_monotonicity(ico3):
    z = ico3.vertices[:, 2]
    lam_big = dirichlet_eigen(hemisphere_domain(ico3), 2.0).lam
    lam_small = dirichlet_eigen(superlevel_domain(ico3, z, 0.25), 2.0).lam
    assert lam_small >= lam_big - 1e-9


def test_dirichlet_eigen_rejects_a_mesh(ico2):
    with pytest.raises(TypeError, match="Domain"):
        dirichlet_eigen(ico2, 2.0)


def test_non_convergence_is_flagged(ico2, monkeypatch):
    monkeypatch.setattr(pspectral, "_MAX_ITERS", 1)
    res = dirichlet_eigen(hemisphere_domain(ico2), 3.0)
    assert not res.converged
    assert res.lam > 0  # best iterate still reported


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dirichlet_eigen_rejects_a_domain_without_boundary(ico2, p, monkeypatch):
    # every vertex interior: nothing is held at zero and the minimizer
    # would be the constant mode, so the solve is refused before any LU
    def no_lu(A):
        raise AssertionError("factorized")

    monkeypatch.setattr(pspectral, "splu", no_lu)
    whole = Domain(ico2, np.ones(len(ico2.vertices), dtype=bool))
    with pytest.raises(ValueError, match="closed_eigen"):
        dirichlet_eigen(whole, p)
    z = coordinate_field(ico2)
    assert rayleigh_quotient(z, whole, p) == rayleigh_quotient(z, ico2, p)


_REDUCED_MESHES = {
    "ico2": build_icosphere(2),
    "ico3": build_icosphere(3),
    "interval": build_interval(40),
}


@st.composite
def _reduced_cases(draw):
    """A cap domain (interval: its interior), p and a field on it.

    Caps are superlevel domains of a random linear field cut between its
    20% and 80% quantiles; fields are random on the interior, zero outside.
    """
    name = draw(st.sampled_from(sorted(_REDUCED_MESHES)))
    mesh = _REDUCED_MESHES[name]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if name == "interval":
        domain = interior_domain(mesh)
    else:
        lin = mesh.vertices @ rng.normal(size=3)
        domain = superlevel_domain(mesh, lin, np.quantile(lin, rng.uniform(0.2, 0.8)))
    p = draw(st.sampled_from([1.5, 2.0, 3.0]))
    u = np.zeros(len(mesh.vertices))
    u[domain.interior] = rng.normal(size=int(domain.interior.sum()))
    return domain, p, u


@settings(max_examples=60, deadline=None)
@given(_reduced_cases())
def test_reduced_operator_equals_the_full_one_on_the_interior(case):
    domain, p, u = case
    fem = _fem(domain.mesh)
    free = domain.interior_indices
    ops = fem.restricted(domain.cells, free)
    assert ops.grad_op.shape == (3 * len(domain.cells), len(free))
    full, red = fem.energy_mass(u, p), ops.energy_mass(u[free], p)
    for a, b in zip(full[:2], red[:2]):     # energy and mass
        assert b == pytest.approx(a, rel=1e-13)
    grad = fem.grad_log_quotient(u, p, *full)
    grad_red = ops.grad_log_quotient(u[free], p, *red)
    np.testing.assert_allclose(
        grad_red, grad[free], rtol=1e-13, atol=1e-13 * np.abs(grad).max()
    )
    K = fem.stiffness[free][:, free]
    for part in ("indptr", "indices", "data"):
        assert getattr(ops.stiffness, part).tobytes() == getattr(K, part).tobytes()


def test_dirichlet_descent_sees_only_the_domain_cells(ico3, monkeypatch):
    domain = hemisphere_domain(ico3)
    nv, ni = len(ico3.vertices), len(domain.interior_indices)
    real, calls = pspectral._Operators.energy_mass, []

    def counting(self, u, p, *known):  # known: a trial's cell gradients and mass
        calls.append((len(self.cellw), len(u)))
        return real(self, u, p, *known)

    monkeypatch.setattr(pspectral._Operators, "energy_mass", counting)
    res = dirichlet_eigen(domain, 1.5)
    descent = [c for c in calls if c[1] != nv]
    assert len(descent) > res.iterations
    assert set(descent) == {(len(domain.cells), ni)}
    # the one full-mesh evaluation is rayleigh_quotient of the returned field
    assert calls.count((len(ico3.cells), nv)) == 1 == len(calls) - len(descent)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_dirichlet_field_vanishes_exactly_off_the_interior(ico2, p):
    for domain in (hemisphere_domain(ico2), interior_domain(build_interval(40))):
        res = dirichlet_eigen(domain, p)
        u = res.field.values
        assert (u[~domain.interior] == 0.0).all() and (u[domain.interior] > 0.0).any()
        assert res.lam == rayleigh_quotient(res.field, domain, p)


def test_dirichlet_trims_sign_noise_from_the_start(ico3, monkeypatch):
    # an entry of the ring next to the boundary at -1e-12 of the maximum is
    # sign noise, not a second nodal domain: a descent that takes no step
    # leaves it in place, and the solve sets it to 0
    hemi = hemisphere_domain(ico3)
    adj = ico3.adjacency_matrix()
    ring = np.flatnonzero(adj[hemi.interior_indices][:, ~hemi.interior].sum(axis=1))
    noisy = []

    def no_step(ops, u, p, defects):
        u = u * np.sign(u[np.argmax(np.abs(u))])
        k = ring[np.argmin(u[ring])]
        assert u[k] > 0.0
        u[k] = -1e-12 * u.max()
        noisy.append(k)
        return u, {"iters": 0, "converged": True, "residual": 0.0}

    monkeypatch.setattr(pspectral, "_descend", no_step)
    res = dirichlet_eigen(hemi, 2.0)
    assert res.iterations == 0 and res.converged
    assert res.field.values[hemi.interior_indices[noisy[0]]] == 0.0
    assert (res.field.values >= 0.0).all()
    assert res.lam == rayleigh_quotient(res.field, hemi, 2.0)


# ---------------------------------------------------------------------------
# closed solver


def test_closed_eigen_sphere_p2_matches_dense_oracle(ico2):
    res = closed_eigen(ico2, 2.0)
    assert res.converged
    assert res.lam == pytest.approx(dense_p2_eigenvalue(ico2), rel=1e-9)
    assert res.lam == pytest.approx(2.0, rel=0.02)


def test_closed_eigen_circle_p2():
    m = build_circle(200)
    res = closed_eigen(m, 2.0)
    assert res.lam == pytest.approx(dense_p2_eigenvalue(m), rel=1e-9)
    assert res.lam == pytest.approx(1.0, rel=5e-3)


def test_closed_eigen_circle_p3_analytic():
    # two nodal arcs of length pi, so the interval family applies
    res = closed_eigen(build_circle(600), 3.0)
    assert res.lam == pytest.approx(interval_eigenvalue(3.0, length=np.pi), rel=1e-4)


def test_closed_eigen_contract(ico3):
    res = closed_eigen(ico3, 1.5)
    assert res.converged
    assert res.constraint_residual <= 1e-8 * total_measure(ico3)
    u = res.field.values
    assert u[np.argmax(np.abs(u))] > 0
    mass = float(ico3.vertex_measure @ np.abs(u) ** 1.5)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert res.lam == pytest.approx(rayleigh_quotient(res.field, ico3, 1.5), rel=1e-10)


def test_closed_eigen_rejects_open_mesh():
    with pytest.raises(ValueError):
        closed_eigen(build_interval(10), 2.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_refinement_consistency(p):
    lams = [closed_eigen(build_icosphere(L), p).lam for L in (1, 2, 3)]
    assert abs(lams[2] - lams[1]) < abs(lams[1] - lams[0])


def test_continuation_diagnostics_present(ico2):
    res = closed_eigen(ico2, 3.0)
    assert res.p == 3.0
    assert res.iterations > 0
    assert isinstance(res.diagnostics, dict) and res.diagnostics


def test_near_round_p2_start_matches_dense_oracle():
    # lambda_1 and lambda_2 differ by 0.4%, where inverse power iteration crawls
    mesh = build_ellipsoid(1.005, 4)
    res = closed_eigen(mesh, 2.0)
    assert res.lam == pytest.approx(dense_p2_eigenvalue(mesh), rel=1e-10)
    assert res.lam == pytest.approx(2.0079666, rel=1e-7)
    assert res.converged is True
    assert res.diagnostics["p2_converged"] is True


def test_hemisphere_p2_start_matches_dense_oracle(ico3):
    hemi = hemisphere_domain(ico3)
    res = dirichlet_eigen(hemi, 2.0)
    dense = dense_p2_eigenvalue(ico3, free=hemi.interior_indices)
    assert res.lam == pytest.approx(dense, rel=1e-10)
    assert res.converged and res.diagnostics["p2_converged"]


def test_p2_descent_polishes_a_perturbed_start(rng):
    # the cached Lanczos start with 10% relative noise: p = 2 descends from
    # it like every other exponent, back to the dense eigenvalue
    mesh = build_icosphere(3)
    hemi = hemisphere_domain(mesh)
    dirichlet_eigen(hemi, 2.0)          # builds the Domain's operators and start
    cases = ((mesh, _fem(mesh), None), (hemi, hemi._fem_ops, hemi.interior_indices))
    for region, ops, free in cases:
        u, info = ops.p2_start
        noisy = u * (1.0 + 0.1 * rng.standard_normal(len(u)))
        noisy.flags.writeable = False
        vars(ops)["p2_start"] = (noisy, info)
        res = _eigen_solve(region, 2.0)
        dense = dense_p2_eigenvalue(mesh, free=free)
        assert abs(res.lam - dense) <= 1e-12 * dense
        assert res.converged and res.iterations > 0
        assert res.diagnostics["grad_norm"] <= 1e-7


@pytest.mark.parametrize(
    "mesh, region, exact",
    [
        # lumped P1 Dirichlet interval of n segments: 4 n^2 sin^2(pi / 2n)
        *[
            (build_interval(n), "interior", 4.0 * n * n * np.sin(np.pi / (2 * n)) ** 2)
            for n in range(2, 7)
        ],
        # inscribed n-gon of the unit circle: exactly 1 for every n
        *[(build_circle(n), "closed", 1.0) for n in range(3, 6)],
    ],
    ids=[f"interval{n}" for n in range(2, 7)] + [f"circle{n}" for n in range(3, 6)],
)
def test_tiny_free_sets_use_the_dense_start(mesh, region, exact):
    # fewer free vertices than ARPACK's 2k + 1 Lanczos vectors
    region = interior_domain(mesh) if region == "interior" else mesh
    res = _eigen_solve(region, 2.0)
    assert res.lam == pytest.approx(exact, rel=1e-12)
    assert res.converged
    assert res.diagnostics["p2_iterations"] == 0


def test_degenerate_start_is_pinned_to_the_cos_projection(ico3):
    # the first p = 2 eigenspace of the round mesh is threefold
    res = closed_eigen(ico3, 2.0)
    diag = res.diagnostics
    assert diag["p2_cluster"] == 3 and diag["p2_iterations"] > 0
    assert diag["p2_residual"] <= 1e-8 and diag["p2_converged"] is True
    fem = _fem(ico3)
    m = fem.mass
    _, vecs = sla.eigh(fem.stiffness.toarray(), np.diag(m))
    q, _ = np.linalg.qr(np.sqrt(m)[:, None] * vecs[:, 1:4])
    c = np.cos(np.arange(len(m)))
    c -= (m @ c) / m.sum()
    ref = (q @ (q.T @ (np.sqrt(m) * c))) / np.sqrt(m)
    ref /= np.sqrt(m @ ref**2) * np.sign(ref[np.argmax(np.abs(ref))])
    assert np.abs(res.field.values - ref).max() <= 1e-10


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_solves_on_fresh_meshes_are_bitwise_equal(p):
    a = closed_eigen(build_icosphere(3), p)
    b = closed_eigen(build_icosphere(3), p)
    assert a.lam == b.lam
    assert a.field.values.tobytes() == b.field.values.tobytes()


def test_cached_start_is_shared_and_never_mutated():
    mesh = build_icosphere(3)
    closed_eigen(mesh, 3.0)
    warm = closed_eigen(mesh, 2.0)
    cold = closed_eigen(build_icosphere(3), 2.0)
    assert warm.lam == cold.lam
    assert warm.field.values.tobytes() == cold.field.values.tobytes()
    assert warm.diagnostics == cold.diagnostics
    # every exponent of one Domain starts from its operators' one start
    hemi = hemisphere_domain(mesh)
    dirichlet_eigen(hemi, 3.0)
    ops = hemi._fem_ops
    start = ops.p2_start
    warm = dirichlet_eigen(hemi, 2.0)
    assert hemi._fem_ops is ops and ops.p2_start is start
    cold = dirichlet_eigen(hemisphere_domain(build_icosphere(3)), 2.0)
    assert warm.lam == cold.lam
    assert warm.field.values.tobytes() == cold.field.values.tobytes()
    assert warm.diagnostics == cold.diagnostics
    assert len(start[0]) == len(hemi.interior_indices)
    for v, _ in (start, _fem(mesh).p2_start):
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0


def test_cached_p2_start_skips_the_factorization(monkeypatch):
    import pspec.pspectral as pspectral

    real_splu, calls = pspectral.splu, []

    def counting_splu(A):
        calls.append(A.shape)
        return real_splu(A)

    monkeypatch.setattr(pspectral, "splu", counting_splu)
    mesh = build_icosphere(3)
    closed_eigen(mesh, 3.0)
    warm = closed_eigen(mesh, 2.0)
    assert len(calls) == 1
    cold = closed_eigen(build_icosphere(3), 2.0)
    assert warm.lam == cold.lam
    assert warm.field.values.tobytes() == cold.field.values.tobytes()


def test_closed_mesh_factors_once_and_domains_once_per_solve(monkeypatch):
    real_splu, calls = pspectral.splu, []

    def counting_splu(A):
        calls.append(A.shape)
        return real_splu(A)

    monkeypatch.setattr(pspectral, "splu", counting_splu)
    mesh = build_icosphere(3)
    nv = len(mesh.vertices)
    polya_szego_check(coordinate_field(mesh), 2.0)  # needs G only: no K assembled
    assert "stiffness" not in vars(_fem(mesh))
    warm = {p: closed_eigen(mesh, p) for p in (1.5, 2.0, 3.0)}
    assert calls == [(nv, nv)]
    assert "lu" in vars(_fem(mesh))
    for p, res in warm.items():         # the kept factorization changes no bit
        cold = closed_eigen(build_icosphere(3), p)
        assert res.lam == cold.lam and res.iterations == cold.iterations
        assert res.field.values.tobytes() == cold.field.values.tobytes()
        assert res.diagnostics == cold.diagnostics

    calls.clear()
    hemi = hemisphere_domain(mesh)
    ni = len(hemi.interior_indices)
    for p in (1.5, 2.0, 3.0):
        dirichlet_eigen(hemi, p)
        assert "lu" not in vars(hemi._fem_ops)  # dropped after every solve
    assert calls == [(ni, ni)] * 3      # p = 2 descends from the cached start too


def test_round_level4_values():
    # the steepest-descent stall stop left 1.7235351634044753 and 2.1724364994634,
    # the backtracking line search 1.7235351340045681 at p = 1.5
    mesh = build_icosphere(4)
    lam15, lam3 = closed_eigen(mesh, 1.5).lam, closed_eigen(mesh, 3.0).lam
    assert lam15 == pytest.approx(1.7235351311949916, rel=1e-9)
    assert lam3 == pytest.approx(2.1724362752429136, rel=1e-9)
    assert lam15 < 1.7235351340045681 and lam3 < 2.1724364994634


def test_grad_norm_measures_the_distance_to_a_critical_point(ico3, monkeypatch):
    for p in (1.5, 3.0):
        tight = closed_eigen(ico3, p).diagnostics["grad_norm"]
        with monkeypatch.context() as m:
            m.setattr(pspectral, "_TOL", 1e-3)
            m.setattr(pspectral, "_STALL", 1)
            loose = closed_eigen(ico3, p).diagnostics["grad_norm"]
        assert np.isfinite(tight) and 0.0 < tight < 1e-4 < loose
    hemi = dirichlet_eigen(hemisphere_domain(ico3), 3.0).diagnostics["grad_norm"]
    assert np.isfinite(hemi) and hemi > 0.0
    # the p = 2 start is the minimizer to rounding: the descent leaves it there
    for res in (closed_eigen(ico3, 2.0), dirichlet_eigen(hemisphere_domain(ico3), 2.0)):
        assert 0.0 < res.diagnostics["grad_norm"] < 1e-12
    # measured 2.2e-7 on the round level-4 mesh at p = 3
    assert 0.0 < closed_eigen(build_icosphere(4), 3.0).diagnostics["grad_norm"] < 1e-6


def test_p_descends_at_the_target_from_the_p2_start(ico2, monkeypatch):
    calls = []
    descend = pspectral._descend

    def recorded(ops, u, p, *args):
        calls.append((ops, u.copy(), p))
        return descend(ops, u, p, *args)

    monkeypatch.setattr(pspectral, "_descend", recorded)
    for region, p, solve in (
        (ico2, 3.0, closed_eigen),
        (hemisphere_domain(ico2), 1.5, dirichlet_eigen),
    ):
        calls.clear()
        res = solve(region, p)
        assert [c[2] for c in calls] == [p]     # one descent call per solve
        ops = calls[0][0]
        assert np.array_equal(calls[0][1], ops.p2_start[0])
        diag = res.diagnostics
        assert diag["stop"] in ("stall", "floor") and diag["first_stop"] in ("stall", "floor")
        assert 0 < diag["first_iters"] <= res.iterations
        assert diag["evals"] >= res.iterations  # at least one trial per accepted step
    monkeypatch.setattr(pspectral, "_MAX_ITERS", 1)
    cut = closed_eigen(ico2, 3.0)
    assert not cut.converged and cut.diagnostics["stop"] == "budget"
    assert cut.iterations == 1 and cut.diagnostics["first_stop"] is None


@pytest.mark.parametrize(
    "closed, p", [(True, 8.0), (False, 3.0), (False, 8.0)], ids=["closed-p8", "hemi-p3", "hemi-p8"]
)
def test_floor_stops_are_converged_near_a_critical_point(ico3, closed, p):
    # measured grad_norm 5.0e-8, 1.5e-8 and 3.1e-8
    region = ico3 if closed else hemisphere_domain(ico3)
    res = (closed_eigen if closed else dirichlet_eigen)(region, p)
    assert res.diagnostics["stop"] == "floor"
    assert res.converged and math.isfinite(res.residual)
    assert res.diagnostics["grad_norm"] <= 1e-7


def test_floor_is_declared_along_the_preconditioned_gradient(ico3, monkeypatch):
    # the last direction a floor stop searched is -(K + M)^-1 g, not a conjugate one
    hemi = hemisphere_domain(ico3)
    dirichlet_eigen(hemi, 2.0)
    ops, searched = hemi._fem_ops, []
    gradients = pspectral._Operators.gradients
    monkeypatch.setattr(
        pspectral._Operators, "gradients", lambda self, x: searched.append(x) or gradients(self, x)
    )
    u, info = pspectral._descend(ops, ops.p2_start[0], 3.0, [])
    assert info["stop"] == "floor" and info["converged"]
    d = searched[-1]
    pg = ops.lu.solve(ops.grad_log_quotient(u, 3.0, *ops.energy_mass(u, 3.0)))
    assert -(d @ pg) >= (1.0 - 1e-6) * np.linalg.norm(d) * np.linalg.norm(pg)


def test_restart_without_a_step_keeps_the_last_residual(monkeypatch):
    # the level-4 aspect-1.2 p = 3 row restarts on the floor and the restarted
    # pass takes no step; the residual is the first pass's last change
    # (2.313013370109962e-15), not the 0.0 of a descent without steps
    mesh = build_ellipsoid(1.2, 4)
    res = closed_eigen(mesh, 3.0)
    diag = res.diagnostics
    assert (diag["first_stop"], diag["stop"]) == ("floor", "floor")
    assert diag["first_iters"] == res.iterations > 0 and res.converged
    assert 0.0 < res.residual < 1e-12
    monkeypatch.setattr(pspectral, "_MAX_ITERS", res.iterations)   # cut before the floor stop
    cut = closed_eigen(mesh, 3.0)
    assert cut.diagnostics["stop"] == "budget" and not cut.converged
    assert cut.residual == res.residual
    monkeypatch.setattr(pspectral, "_MAX_ITERS", 0)     # no step at all
    none = closed_eigen(mesh, 3.0)
    assert none.residual == 0.0 and not none.converged


def test_line_search_stall_before_any_step_is_unconverged(ico2, monkeypatch):
    monkeypatch.setattr(pspectral, "_MAX_BACKTRACKS", 0)    # every search stalls at once
    res = closed_eigen(ico2, 3.0)
    assert res.diagnostics["stop"] == "line_search" and res.diagnostics["evals"] == 0
    assert res.iterations == 0 and not res.converged and res.residual == 0.0


def test_line_search_stall_is_converged_exactly_on_a_small_last_change(ico2, monkeypatch):
    # Armijo at c1 = 0.5 with a single trial length stalls the p = 3 descent
    # after a few steps; _TOL moves only the verdict, not the path
    ops = _fem(ico2)
    u0 = ops.p2_start[0]
    monkeypatch.setattr(pspectral, "_ARMIJO", 0.5)
    monkeypatch.setattr(pspectral, "_MAX_BACKTRACKS", 1)
    info = pspectral._descend(ops, u0, 3.0, [])[1]
    rel = info["residual"]
    assert info["stop"] == "line_search" and 0 < info["iters"] < pspectral._STALL
    assert rel > 10 * pspectral._TOL and not info["converged"]
    for tol, converged in ((rel / 5.0, True), (rel / 20.0, False)):
        monkeypatch.setattr(pspectral, "_TOL", tol)
        again = pspectral._descend(ops, u0, 3.0, [])[1]
        assert (again["stop"], again["iters"], again["residual"]) == ("line_search", info["iters"], rel)
        assert again["converged"] is converged


def test_zero_gradient_ends_on_the_floor_without_a_trial(ico2, monkeypatch):
    monkeypatch.setattr(
        pspectral._Operators, "grad_log_quotient", lambda self, u, *args: np.zeros_like(u)
    )
    res = closed_eigen(ico2, 3.0)
    diag = res.diagnostics
    assert (diag["first_stop"], diag["stop"], diag["evals"]) == ("floor", "floor", 0)
    assert res.converged and res.iterations == 0 and res.residual == 0.0


@pytest.mark.parametrize(
    "closed, p, lam",
    [
        (True, 5.0, 1.8187720601231283),
        (True, 8.0, 0.9696331429473406),
        (True, 10.0, 0.5641427124616686),
        (False, 8.0, 0.9867236068699761),
        (False, 10.0, 0.5817978338139208),
    ],
    ids=["closed-p5", "closed-p8", "closed-p10", "hemisphere-p8", "hemisphere-p10"],
)
def test_high_p_level3_values(ico3, closed, p, lam):
    # closed level-3 icosphere and its hemisphere, far from the p = 2 start
    region = ico3 if closed else hemisphere_domain(ico3)
    res = (closed_eigen if closed else dirichlet_eigen)(region, p)
    assert res.converged
    assert res.lam == pytest.approx(lam, rel=1e-9)


def test_adjoint_products_are_bitwise_the_transpose_products():
    rng = np.random.default_rng(3)
    mesh3 = build_icosphere(3)
    hemi = hemisphere_domain(mesh3)
    for ops in (
        _fem(build_icosphere(2)),
        _fem(mesh3),
        _fem(mesh3).restricted(hemi.cells, hemi.interior_indices),
    ):
        x = rng.normal(size=ops.grad_op.shape[0])
        assert (ops.grad_op_t @ x).tobytes() == (ops.grad_op.T @ x).tobytes()


def test_level_set_checks_build_no_adjoint():
    mesh = build_icosphere(3)
    z = coordinate_field(mesh)
    polya_szego_check(z, 2.0)
    gromov_ratio(z, np.array([-0.5, 0.0, 0.5]))
    assert "grad_op_t" not in vars(_fem(mesh))


@pytest.mark.parametrize(
    "mesh",
    [build_icosphere(2), build_icosphere(3), build_ellipsoid(1.2, 3), build_circle(50)],
    ids=["ico2", "ico3", "ellipsoid", "circle"],
)
def test_gradients_of_constants_vanish_on_closed_meshes(mesh):
    # the descent drops the projection's constant shift from G u
    fem = _fem(mesh)
    g = fem.gradients(np.ones(len(mesh.vertices)))
    assert np.abs(g).max() <= 1e-13 * np.abs(fem.grad_op.data).max()


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_carried_cell_gradients_do_not_drift(p):
    mesh = build_icosphere(3)
    for res in (closed_eigen(mesh, p), dirichlet_eigen(hemisphere_domain(mesh), p)):
        assert res.diagnostics["rayleigh"] == pytest.approx(res.lam, rel=1e-12)


def test_round_level4_start_asks_for_the_first_cluster_only():
    # k = 4 closed pairs: the constant and the threefold first cluster
    diag = closed_eigen(build_icosphere(4), 2.0).diagnostics
    assert diag["p2_cluster"] == 3 and diag["p2_converged"] is True
    assert diag["p2_iterations"] <= 51


# ---------------------------------------------------------------------------
# in-module Brent and DOP853 against SciPy


@st.composite
def _monotone_root_problems(draw):
    root = draw(st.floats(-5.0, 5.0))
    power = draw(st.floats(0.3, 3.0))
    slope = draw(st.floats(0.0, 2.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))

    def f(x):
        d = x - root
        return sign * (math.copysign(abs(d) ** power, d) + slope * math.tanh(d))

    a = root - draw(st.floats(1e-3, 10.0))
    b = root + draw(st.floats(1e-3, 10.0))
    xtol = 10.0 ** draw(st.floats(-15.0, -2.0))
    rtol = _RTOL * 10.0 ** draw(st.floats(0.0, 10.0))
    return f, a, b, xtol, rtol


@settings(max_examples=300, deadline=None)
@given(_monotone_root_problems())
def test_brentq_is_bitwise_scipy_brentq(problem):
    f, a, b, xtol, rtol = problem
    try:
        ref, info = brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
    except RuntimeError:                # no convergence in 100 steps: the same
        with pytest.raises(RuntimeError, match="converge"):
            _brentq(f, a, b, xtol, rtol)
        return
    root, calls = _brentq(f, a, b, xtol, rtol)
    assert root == ref
    assert calls == info.function_calls


def test_brentq_error_paths_match_scipy():
    for solver in (brentq, lambda f, a, b: _brentq(f, a, b, 2e-12, _RTOL)):
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0)
        # the first interpolation lands at 0.5, where f is NaN
        with pytest.raises(ValueError, match="NaN"):
            solver(lambda x: math.nan if 0.2 < x < 0.9 else x - 0.5, 0.0, 1.0)
    with pytest.raises(RuntimeError, match="converge"):
        brentq(lambda x: x**3 - 0.3, 0.0, 1.0, xtol=1e-15, maxiter=2)
    with pytest.raises(RuntimeError, match="converge"):
        _brentq(lambda x: x**3 - 0.3, 0.0, 1.0, 1e-15, _RTOL, maxiter=2)


def scipy_radial(p, n):
    # the hemisphere shooting of solve_radial_1d on solve_ivp(..., "DOP853") and brentq
    pim1 = 1.0 / (p - 1.0)
    r0, rend, y0 = 1e-6, 0.5 * np.pi, lambda lam: [1.0, -lam * 1e-6**n / n]

    def weight(r):
        return math.sin(r) ** (n - 1)

    def endpoint(lam):
        def rhs(r, y):
            u, q = y.tolist()
            du = math.copysign(abs(q / weight(r)) ** pim1, q)
            return du, -lam * weight(r) * math.copysign(abs(u) ** (p - 1.0), u)

        sol = solve_ivp(rhs, (r0, rend), y0(lam), method="DOP853", rtol=1e-11, atol=1e-13,
                        t_eval=[rend])
        assert sol.success
        return float(sol.y[0, -1])

    lo = (p - 1.0) * (pi_p(p) / np.pi) ** p / 1.3      # solve_radial_1d's bracket
    hi = _cos_quotient(p, n) * (1.0 + _BRACKET_SLACK)
    return brentq(endpoint, lo, hi, xtol=1e-12, rtol=1e-13)


@pytest.mark.parametrize(
    "p, n, problem",
    [(p, n, "hemisphere") for n in (1, 2, 3, 8) for p in (1.2, 1.5, 2.0, 3.0, 6.0)],
)
def test_radial_solver_matches_the_scipy_integrator(p, n, problem):
    ref = scipy_radial(p, n)
    assert abs(solve_radial_1d(p, n, problem) - ref) <= 1e-14 * ref


def test_radial_bracket_starts_at_the_closed_form_n1_value(monkeypatch):
    # from lambda = 0.05 the scan took 23, 23 and 24 shootings at p = 1.5, 2, 3, and
    # the x1.3 scan from the n = 1 value 13, 13 and 14; the closed-form bracket 7, 5 and 8
    shootings = []
    monkeypatch.setattr(
        pspectral, "_dop853", lambda *a, **k: shootings.append(1) or _dop853(*a, **k)
    )
    for p in (1.5, 2.0, 3.0):
        shootings.clear()
        solve_radial_1d(p, 2)
        assert len(shootings) <= 8, (p, len(shootings))
    for n in (1, 8):
        for p in (1.1, 10.0):
            lam = solve_radial_1d(p, n)
            assert (p - 1.0) * (pi_p(p) / np.pi) ** p / 1.3 < lam
            assert lam < _cos_quotient(p, n) * (1.0 + _BRACKET_SLACK)
    for n in range(1, 9):   # cos r is the p = 2 eigenfunction: measured at most 1.3e-15
        assert abs(_cos_quotient(2.0, n) - n) <= 4e-15 * n


def test_radial_bracket_guards_both_ends(monkeypatch):
    monkeypatch.setattr(pspectral, "_BRACKET_SLACK", -0.5)
    with pytest.raises(RuntimeError, match="ended below the eigenvalue"):
        solve_radial_1d(3.0, 2)
    monkeypatch.setattr(pspectral, "_dop853", lambda *a, **k: (-1.0, 0.0))
    with pytest.raises(RuntimeError, match="started above the eigenvalue"):
        solve_radial_1d(3.0, 2)


@pytest.mark.parametrize("p, n", [(1.1, 1), (1.5, 2), (3.0, 3), (10.0, 8)])
def test_cos_quotient_matches_quadrature(p, n):
    def integral(f):
        return quad(lambda r: f(r) * math.sin(r) ** (n - 1), 0.0, 0.5 * np.pi,
                    epsabs=0.0, epsrel=1e-13)[0]

    ratio = integral(lambda r: math.sin(r) ** p) / integral(lambda r: math.cos(r) ** p)
    assert _cos_quotient(p, n) == pytest.approx(ratio, rel=1e-12)


def test_dop853_fails_on_a_nan_right_hand_side():
    def harmonic(r, u, q):
        return q, -u

    u, q = _dop853(harmonic, 0.0, 0.5 * np.pi, 0.0, 1.0, 1e-11, 1e-13)
    assert u == pytest.approx(1.0, abs=1e-11) and q == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(RuntimeError, match="radial integration failed"):
        _dop853(lambda r, u, q: (math.nan, math.nan), 0.0, 1.0, 0.0, 1.0, 1e-11, 1e-13)
    # NaN from r = 0.5 on: the step shrinks below 10 ulp of r instead of looping
    with pytest.raises(RuntimeError, match="radial integration failed"):
        _dop853(lambda r, u, q: harmonic(r, u, q) if r < 0.5 else (math.nan, q),
                0.0, 1.0, 0.0, 1.0, 1e-11, 1e-13)
