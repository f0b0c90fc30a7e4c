import numpy as np
import pytest

import pspec.harness as harness
from pspec.harness import chain_audit, pinching_sweep, sphere_comparison
from pspec.isoperim import LevelSweep, gromov_ratio
from pspec.manifold import (
    beta,
    build_ellipsoid,
    build_icosphere,
    build_interval,
    hemisphere_domain,
    interior_domain,
    spheroid_diameter,
)
from pspec.pspectral import (
    SolverOptions,
    closed_eigen,
    coordinate_field,
    dirichlet_eigen,
    solve_radial_1d,
)

IDENTITY_STEPS = ("distribution_derivative", "mass_transport")
INEQUALITY_STEPS = ("energy_slope_bound", "energy_comparison")


# ---------------------------------------------------------------------------
# eigenvalue comparison records


def test_comparison_round_sphere(ico3):
    rec = sphere_comparison(ico3, 2.0)
    assert rec.converged
    assert rec.equality_case
    assert rec.lam_model == pytest.approx(2.0, abs=1e-6)
    assert rec.ratio == pytest.approx(1.0, rel=0.02)
    assert rec.diameter == np.pi


def test_comparison_stretched_family_above_one():
    m = build_ellipsoid(1.2, 3)
    for p in (2.0, 3.0):
        rec = sphere_comparison(m, p)
        assert rec.diameter == spheroid_diameter(m.meta["semi_axes"])
        assert rec.ratio > 1.0
        assert not rec.equality_case
        assert rec.min_curvature >= 0.99


def test_comparison_custom_reference(ico2):
    rec = sphere_comparison(ico2, 2.0, lam_model=1.0)
    assert rec.ratio == rec.lam_mesh


def test_comparison_requires_curvature_certificate():
    flat = build_ellipsoid(1.5, 2, normalize=False)
    with pytest.raises(ValueError, match="curvature"):
        sphere_comparison(flat, 2.0)
    from pspec.manifold import Mesh

    bare = Mesh(2, *_icosahedron_arrays())
    with pytest.raises(ValueError, match="certificate"):
        sphere_comparison(bare, 2.0)
    shapeless = Mesh(2, *_icosahedron_arrays(), {"min_curvature": 1.0, "max_curvature": 1.0})
    with pytest.raises(ValueError, match="semi_axes"):
        sphere_comparison(shapeless, 2.0)


def test_scaled_sphere_loses_its_curvature_certificate(ico2):
    # radius 2 gives K = 1/4, below the floor
    with pytest.raises(ValueError, match="curvature minimum 0.2500"):
        sphere_comparison(ico2.scaled(2.0), 2.0)


def test_scaled_up_half_sphere_is_an_equality_case():
    half = build_icosphere(2, 0.5)
    assert sphere_comparison(half, 2.0).diameter == 0.5 * np.pi
    rec = sphere_comparison(half.scaled(2.0), 2.0)
    assert rec.min_curvature == 1.0
    assert rec.equality_case
    assert rec.diameter == np.pi


def test_unnormalized_round_ellipsoid_is_an_equality_case():
    assert harness._is_round_unit(build_ellipsoid(1.0, 2, normalize=False))
    assert not harness._is_round_unit(build_icosphere(2, 0.5))
    assert not harness._is_round_unit(build_interval(5))


def _icosahedron_arrays():
    m = build_icosphere(1)
    return m.vertices, m.cells


# ---------------------------------------------------------------------------
# proof-chain audit


@pytest.fixture(scope="module")
def audit_l4():
    return chain_audit(hemisphere_domain(build_icosphere(4)), 2.0)


def test_audit_report_shape(audit_l4):
    assert list(audit_l4) == [
        "distribution_derivative",
        "mass_transport",
        "energy_slope_bound",
        "energy_comparison",
    ]


def test_audit_steps_within_tolerance(audit_l4):
    for name in IDENTITY_STEPS:
        assert abs(audit_l4[name]) <= 0.03, name
    for name in INEQUALITY_STEPS:
        assert audit_l4[name] <= 0.03, name


def test_audit_other_exponent(ico3):
    # coarser mesh, looser bound; the chain itself must still hold
    worst = chain_audit(hemisphere_domain(ico3), 1.5)
    assert abs(worst["mass_transport"]) <= 0.03
    assert worst["energy_comparison"] <= 0.03


def test_audit_rejects_bad_inputs(ico2):
    with pytest.raises(ValueError, match="converged"):
        chain_audit(hemisphere_domain(ico2), 3.0, SolverOptions(max_iters=1))
    with pytest.raises(ValueError, match="closed"):
        chain_audit(interior_domain(build_interval(20)), 2.0)


def test_audit_grid_sums_from_the_shared_sweep_are_the_grid_alone(ico3, rng):
    # chain_audit cuts its eigenfunction once, at the grid and the tail up
    # to the maximum, and reads the grid's sums off the front of that batch
    field = dirichlet_eigen(hemisphere_domain(ico3), 2.0).field
    umax = float(field.values.max())
    levels = np.linspace(0.05 * umax, 0.90 * umax, harness._AUDIT_GRID)
    tail = np.linspace(levels[-1], umax, 17)[1:-1]
    ext = np.concatenate([levels, tail, [umax]])
    assert len(levels) == 64
    shared, alone = LevelSweep(field, ext[:-1]), LevelSweep(field, levels)
    weights = rng.uniform(0.5, 2.0, len(ico3.cells))
    for name in ("level", "superlevel"):
        for w in (None, weights):
            got = getattr(shared, name)(w)[: len(levels)]
            assert got.tobytes() == getattr(alone, name)(w).tobytes(), name


def test_gromov_ratio_and_audit_enumerate_pairs_once_per_sweep(ico3, monkeypatch):
    calls = []
    real_pairs = LevelSweep._pairs

    def counting_pairs(self, ts):
        calls.append(self)
        return real_pairs(self, ts)

    monkeypatch.setattr(LevelSweep, "_pairs", counting_pairs)
    gromov_ratio(coordinate_field(ico3), np.array([-0.3, 0.2, 0.5]), beta(ico3))
    assert len(calls) == 1
    chain_audit(hemisphere_domain(ico3), 2.0)
    assert len(calls) == 2 and calls[1] is not calls[0]


# ---------------------------------------------------------------------------
# family sweep


def test_pinching_sweep_small():
    recs = pinching_sweep([1.0, 1.2], [2.0], level=3)
    assert len(recs) == 2
    assert recs[0].diameter <= recs[1].diameter  # sorted by diameter
    assert recs[0].aspect == 1.2 and recs[1].aspect == 1.0
    assert recs[0].ratio > recs[1].ratio
    assert recs[1].equality_case and not recs[0].equality_case
    for r in recs:
        assert not r.failed
        assert r.converged
        assert r.lam_model == pytest.approx(solve_radial_1d(2.0, 2, "hemisphere"))
        assert r.ratio >= 0.98
        d = r.as_dict()
        assert d["aspect"] == r.aspect and d["error"] == ""


def test_pinching_sweep_drops_each_mesh_caches(monkeypatch):
    # the FEM operators live while a mesh's rows are solved
    solved = []
    real = harness.closed_eigen

    def solve(mesh, p, opts=None):
        res = real(mesh, p, opts)
        solved.append((mesh, hasattr(mesh, "_fem_ops")))
        return res

    monkeypatch.setattr(harness, "closed_eigen", solve)
    pinching_sweep([1.0, 1.1], [2.0, 3.0], level=2)
    assert [held for _, held in solved] == [True] * 4
    for mesh, _ in solved:
        assert not hasattr(mesh, "_fem_ops")


def test_pinching_sweep_records_failures(monkeypatch):
    calls = {"n": 0}
    real = harness.closed_eigen

    def flaky(mesh, p, opts=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic solver blowup")
        return real(mesh, p, opts)

    monkeypatch.setattr(harness, "closed_eigen", flaky)
    recs = pinching_sweep([1.0, 1.1], [2.0], level=2)
    assert len(recs) == 2
    failed = [r for r in recs if r.failed]
    assert len(failed) == 1
    assert "blowup" in failed[0].error
    assert failed[0].error == "RuntimeError: synthetic solver blowup"
    assert np.isnan(failed[0].lam_mesh)
    ok = [r for r in recs if not r.failed]
    assert len(ok) == 1 and ok[0].converged


@pytest.fixture(scope="module")
def level4_sweep():
    return pinching_sweep((1.0, 1.005, 1.2), (1.5, 2.0, 3.0), level=4)


def test_pinching_sweep_iteration_budget(level4_sweep):
    # the near-round aspect 1.005 once needed 3,468 iterations at p = 1.5, and
    # steepest descent still needed 928 on the round mesh at p = 3; the six
    # p != 2 rows took 615 descent steps with the halving-only line search
    assert len(level4_sweep) == 9
    for r in level4_sweep:
        assert not r.failed and r.converged, (r.aspect, r.p)
        assert r.iterations <= 200, (r.aspect, r.p, r.iterations)
    assert sum(r.iterations for r in level4_sweep if r.p != 2.0) <= 450


def test_converged_sweep_rows_match_tight_solves(level4_sweep):
    # converged=True means the stall stop is within 1e-8 of a much tighter
    # solve from the same cached start; steepest descent was up to 1.03e-7 off
    tight = SolverOptions(tol=1e-12, stall=20)
    rows = [r for r in level4_sweep if r.p != 2.0]
    assert len(rows) == 6
    meshes = {a: build_ellipsoid(a, 4) for a in {r.aspect for r in rows}}
    for r in rows:
        ref = closed_eigen(meshes[r.aspect], r.p, tight)
        assert ref.converged
        assert r.lam_mesh == pytest.approx(ref.lam, rel=1e-8), (r.aspect, r.p)


def test_sweep_rows_carry_the_exact_spheroid_diameter(level4_sweep):
    for r in level4_sweep:
        mesh = build_ellipsoid(r.aspect, r.level)
        assert r.diameter == spheroid_diameter(mesh.meta["semi_axes"])
    assert [r.aspect for r in level4_sweep[::3]] == [1.2, 1.005, 1.0]
    assert level4_sweep[-1].diameter == np.pi


def test_sweep_builds_each_ellipsoid_once(monkeypatch):
    built = []
    real = harness.build_ellipsoid

    def build(aspect, level):
        built.append((aspect, level))
        return real(aspect, level)

    monkeypatch.setattr(harness, "build_ellipsoid", build)
    recs = pinching_sweep([1.0, 1.1], [2.0, 3.0], level=2)
    assert built == [(1.0, 2), (1.1, 2)]
    assert sorted({(r.aspect, r.level) for r in recs}) == built
