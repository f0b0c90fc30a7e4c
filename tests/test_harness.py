import numpy as np
import pytest

import pspec.harness as harness
import pspec.pspectral as pspectral
from pspec.harness import chain_audit, pinching_sweep
from pspec.isoperim import LevelSweep, gromov_ratio
from pspec.manifold import (
    build_ellipsoid,
    build_icosphere,
    build_interval,
    hemisphere_domain,
    interior_domain,
    spheroid_diameter,
)
from pspec.pspectral import (
    closed_eigen,
    coordinate_field,
    dirichlet_eigen,
    solve_radial_1d,
)


# ---------------------------------------------------------------------------
# equality cases


def test_scaled_up_half_sphere_is_an_equality_case():
    half = build_icosphere(2, 0.5)
    assert not harness._is_round_unit(half)
    assert spheroid_diameter(half.meta["semi_axes"]) == 0.5 * np.pi
    full = half.scaled(2.0)
    assert full.meta["min_curvature"] == 1.0
    assert harness._is_round_unit(full)
    assert spheroid_diameter(full.meta["semi_axes"]) == np.pi


def test_unnormalized_round_ellipsoid_is_an_equality_case():
    assert harness._is_round_unit(build_ellipsoid(1.0, 2, normalize=False))
    assert not harness._is_round_unit(build_interval(5))


# ---------------------------------------------------------------------------
# proof-chain audit


@pytest.fixture(scope="module")
def audit_l4():
    return chain_audit(hemisphere_domain(build_icosphere(4)), 2.0)


def test_audit_report_shape(audit_l4):
    assert list(audit_l4) == ["mass_transport", "energy_comparison"]


def test_audit_steps_within_tolerance(audit_l4):
    assert abs(audit_l4["mass_transport"]) <= 0.03
    assert audit_l4["energy_comparison"] <= 0.03


def test_audit_other_exponent(ico3):
    # coarser mesh, looser bound; the chain itself must still hold
    worst = chain_audit(hemisphere_domain(ico3), 1.5)
    assert abs(worst["mass_transport"]) <= 0.03
    assert worst["energy_comparison"] <= 0.03


def test_audit_rejects_bad_inputs(ico2, monkeypatch):
    # a one-step solve does not converge
    monkeypatch.setattr(pspectral, "_MAX_ITERS", 1)
    with pytest.raises(ValueError, match="converged"):
        chain_audit(hemisphere_domain(ico2), 3.0)
    with pytest.raises(ValueError, match="closed"):
        chain_audit(interior_domain(build_interval(20)), 2.0)


def test_audit_grid_sums_from_the_shared_sweep_are_the_grid_alone(ico3, rng):
    # chain_audit cuts its eigenfunction once, at the grid, the tail and the
    # maximum, and reads the grid's sums off the front of that batch
    field = dirichlet_eigen(hemisphere_domain(ico3), 2.0).field
    umax = float(field.values.max())
    levels = np.linspace(0.05 * umax, 0.90 * umax, harness._AUDIT_GRID)
    tail = np.linspace(levels[-1], umax, 17)[1:-1]
    ext = np.concatenate([levels, tail, [umax]])
    assert len(levels) == 64
    shared, alone = LevelSweep(field, ext), LevelSweep(field, levels)
    assert shared.superlevel()[-1] == 0.0  # no cell lies above the maximum
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
    gromov_ratio(coordinate_field(ico3), np.array([-0.3, 0.2, 0.5]))
    assert len(calls) == 1
    chain_audit(hemisphere_domain(ico3), 2.0)
    assert len(calls) == 2 and calls[1] is not calls[0]


# ---------------------------------------------------------------------------
# family sweep


@pytest.fixture(scope="module")
def small_sweep():
    return pinching_sweep([1.0, 1.2], [2.0, 3.0], level=3)


def test_pinching_sweep_small(small_sweep):
    recs = small_sweep
    assert [(r.aspect, r.p) for r in recs] == [(1.2, 2.0), (1.2, 3.0), (1.0, 2.0), (1.0, 3.0)]
    assert recs[1].diameter <= recs[2].diameter  # sorted by diameter
    for r in recs:
        assert not r.failed
        assert r.converged
        assert r.lam_model == pytest.approx(solve_radial_1d(r.p, 2, "hemisphere"))
        assert r.min_curvature == 1.0 and r.error == ""
    assert recs[0].ratio > recs[2].ratio


def test_comparison_round_sphere(small_sweep):
    # the aspect-1.0 ellipsoid is the icosphere, and its rows are those solves
    sphere = build_icosphere(3)
    round_ellipsoid = build_ellipsoid(1.0, 3)
    assert round_ellipsoid.vertices.tobytes() == sphere.vertices.tobytes()
    assert round_ellipsoid.cells.tobytes() == sphere.cells.tobytes()
    for rnd in small_sweep[2:]:
        assert rnd.aspect == 1.0
        assert rnd.converged
        assert rnd.equality_case
        assert rnd.ratio == pytest.approx(1.0, rel=0.02)
        assert rnd.diameter == np.pi
        res = closed_eigen(sphere, rnd.p)
        assert (rnd.lam_mesh, rnd.iterations) == (res.lam, res.iterations)
        assert rnd.grad_norm == res.diagnostics["grad_norm"]
    assert small_sweep[2].lam_model == pytest.approx(2.0, abs=1e-6)


def test_comparison_stretched_family_above_one(small_sweep):
    m = build_ellipsoid(1.2, 3)
    for stretched in small_sweep[:2]:
        assert stretched.aspect == 1.2
        assert stretched.diameter == spheroid_diameter(m.meta["semi_axes"])
        assert stretched.ratio > 1.0
        assert not stretched.equality_case
        assert stretched.min_curvature >= 0.99


def test_pinching_sweep_drops_each_mesh_caches(monkeypatch):
    # the FEM operators live while a mesh's rows are solved
    solved = []
    real = harness.closed_eigen

    def solve(mesh, p):
        res = real(mesh, p)
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

    def flaky(mesh, p):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic solver blowup")
        return real(mesh, p)

    monkeypatch.setattr(harness, "closed_eigen", flaky)
    recs = pinching_sweep([1.0, 1.1], [2.0], level=2)
    assert len(recs) == 2
    failed = [r for r in recs if r.failed]
    assert len(failed) == 1
    assert "blowup" in failed[0].error
    assert failed[0].error == "RuntimeError: synthetic solver blowup"
    assert np.isnan(failed[0].lam_mesh) and np.isnan(failed[0].grad_norm)
    assert failed[0].aspect == 1.0 and failed[0].equality_case     # the round unit sphere
    ok = [r for r in recs if not r.failed]
    assert len(ok) == 1 and ok[0].converged and 0.0 < ok[0].grad_norm < 1e-7


@pytest.fixture(scope="module")
def level4_sweep():
    return pinching_sweep((1.0, 1.005, 1.2), (1.5, 2.0, 3.0), level=4)


def test_pinching_sweep_iteration_budget(level4_sweep):
    # the near-round aspect 1.005 once needed 3,468 iterations at p = 1.5, and
    # steepest descent still needed 928 on the round mesh at p = 3; the six
    # p != 2 rows took 615 descent steps with the halving-only line search
    # and 371 with continuation in p, against 342 from the p = 2 start; 325 since
    # the line search ends at the rounding floor of log R
    assert len(level4_sweep) == 9
    for r in level4_sweep:
        assert not r.failed and r.converged, (r.aspect, r.p)
        assert r.iterations <= 200, (r.aspect, r.p, r.iterations)
    # p = 2 descends too, but its converged Lanczos start is already at the floor
    assert [r.iterations for r in level4_sweep if r.p == 2.0] == [0, 0, 0]
    assert sum(r.iterations for r in level4_sweep) <= 330


def test_converged_sweep_rows_match_tight_solves(level4_sweep, monkeypatch):
    # converged=True means the stall stop is within 1e-8 of a much tighter
    # solve from the same cached start; steepest descent was up to 1.03e-7 off
    monkeypatch.setattr(pspectral, "_TOL", 1e-12)
    monkeypatch.setattr(pspectral, "_STALL", 20)
    rows = [r for r in level4_sweep if r.p != 2.0]
    assert len(rows) == 6
    meshes = {a: build_ellipsoid(a, 4) for a in {r.aspect for r in rows}}
    for r in rows:
        ref = closed_eigen(meshes[r.aspect], r.p)
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
