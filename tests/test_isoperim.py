import numpy as np
import pytest

from pspec.manifold import beta, build_circle, build_icosphere, diameter
from pspec.isoperim import (
    LevelSweep,
    check_battery,
    croke_profile,
    domain_bump_battery,
    gromov_ratio,
    level_boundary_measure,
    level_curve,
    level_integral,
    random_bump_field,
    random_smooth_field,
    superlevel_measure,
)
from pspec.manifold import hemisphere_domain
from pspec.pspectral import ScalarField, coordinate_field


# ---------------------------------------------------------------------------
# level curves and boundary measure


def test_equator_length(ico4):
    z = coordinate_field(ico4)
    assert level_boundary_measure(z, 0.0) == pytest.approx(2 * np.pi, rel=0.01)


def test_level_out_of_range_rejected(ico3):
    z = coordinate_field(ico3)
    for t in (1.0, 1.5, -1.0, -2.0):
        with pytest.raises(ValueError):
            level_boundary_measure(z, t)


def test_boundary_error_halves_under_refinement():
    exact = 2 * np.pi * np.sqrt(1 - 0.4**2)
    errs = {}
    for level in (4, 6):
        z = coordinate_field(build_icosphere(level))
        errs[level] = abs(level_boundary_measure(z, 0.4) - exact) / exact
    assert errs[6] < 0.5 * errs[4]


def test_sign_symmetry_exact(ico3, rng):
    f = random_smooth_field(ico3, rng)
    neg = ScalarField(ico3, -f.values)
    for t in (0.1, -0.3, 0.55):
        assert level_boundary_measure(f, t) == level_boundary_measure(neg, -t)


def test_boundary_measure_continuous_in_t(ico4):
    z = coordinate_field(ico4)
    ts = np.linspace(-0.9, 0.9, 200)
    lens = np.array([level_boundary_measure(z, t) for t in ts])
    assert np.abs(np.diff(lens)).max() <= 0.05 * lens.max()


def test_level_curve_closed_on_sphere(ico3, rng):
    z = coordinate_field(ico3)
    for t in (0.0, 0.5, -0.37):
        curve = level_curve(z, t)
        assert curve.closed
        assert curve.segments.shape[1:] == (2, 3)
        assert curve.measure == level_boundary_measure(z, t)
    f = random_smooth_field(ico3, rng)
    assert level_curve(f, 0.2).closed


def test_level_crossings_on_circle():
    m = build_circle(100)
    f = coordinate_field(m, axis=0)  # cos(theta) along the polygon
    curve = level_curve(f, 0.3)
    assert curve.measure == 2.0
    assert curve.closed
    assert level_boundary_measure(f, 0.3) == 2.0


def test_level_integral_of_ones_is_measure(ico3):
    z = coordinate_field(ico3)
    ones = np.ones(len(ico3.cells))
    assert level_integral(z, 0.25, ones) == pytest.approx(
        level_boundary_measure(z, 0.25), rel=1e-12
    )


# ---------------------------------------------------------------------------
# superlevel measures


def test_superlevel_matches_cap_areas(ico4):
    z = coordinate_field(ico4)
    for t in (-0.5, 0.0, 0.4, 0.8):
        assert superlevel_measure(z, t) == pytest.approx(
            2 * np.pi * (1 - t), rel=0.01
        )


def test_superlevel_hemisphere_area_level5():
    # Archimedes: the hemisphere occupies half of the sphere area
    z = coordinate_field(build_icosphere(5))
    assert superlevel_measure(z, 0.0) == pytest.approx(2 * np.pi, rel=0.01)


def test_superlevel_extremes(ico3, rng):
    f = random_smooth_field(ico3, rng)
    lo, hi = f.values.min(), f.values.max()
    total = float(ico3.cell_measure.sum())
    assert superlevel_measure(f, lo - 1.0) == pytest.approx(total, rel=1e-12)
    assert superlevel_measure(f, hi + 1.0) == 0.0


def test_superlevel_batch_matches_scalar(ico3, rng):
    f = random_smooth_field(ico3, rng)
    ts = np.linspace(f.values.min() + 0.05, f.values.max() - 0.05, 17)
    batch = LevelSweep(f).superlevel(ts)
    single = np.array([superlevel_measure(f, t) for t in ts])
    np.testing.assert_array_equal(batch, single)
    assert (np.diff(batch) <= 0).all()


# ---------------------------------------------------------------------------
# LevelSweep against a dense reference


def _dense_reference(field, ts):
    """Level length and superlevel area at each t, from every cell.

    Each triangle is cut at every threshold on its own: the level segment
    joins the points where an edge changes side of t, and the superlevel
    part is the clipped polygon in the triangle's parameter plane, whose
    shoelace area over 1/2 is the cell fraction.
    """
    mesh = field.mesh
    X = mesh.vertices[mesh.cells]
    u = field.values[mesh.cells]
    P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rows = np.arange(len(u))
    lengths, areas = [], []
    for t in ts:
        inside = u > t
        cross = np.zeros((len(u), 3), dtype=bool)
        xpts = np.zeros((len(u), 3, 3))
        slots, valid = [], []
        for i in range(3):
            j = (i + 1) % 3
            cross[:, i] = inside[:, i] != inside[:, j]
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(cross[:, i], (t - u[:, i]) / (u[:, j] - u[:, i]), 0.0)
            xpts[:, i] = X[:, i] + w[:, None] * (X[:, j] - X[:, i])
            slots += [np.broadcast_to(P[i], (len(u), 2)), P[i] + w[:, None] * (P[j] - P[i])]
            valid += [inside[:, i], cross[:, i]]
        # level segment: the two crossed edges of each cut cell
        pick = np.argsort(~cross, axis=1, kind="stable")[:, :2]
        seg = xpts[rows, pick[:, 0]] - xpts[rows, pick[:, 1]]
        lengths.append((np.linalg.norm(seg, axis=1) * (cross.sum(1) == 2)).sum())
        # superlevel polygon: skipped slots repeat the last kept point, which
        # leaves the shoelace sum unchanged
        poly = np.stack(slots, 1)
        keep = np.stack(valid, 1)
        last = poly[:, 0].copy()
        for k in list(range(6)) * 2:
            last = np.where(keep[:, k, None], poly[:, k], last)
            poly[:, k] = last
        x, y = poly[..., 0], poly[..., 1]
        twice = (x * np.roll(y, -1, 1) - np.roll(x, -1, 1) * y).sum(1)
        areas.append(mesh.cell_measure @ np.where(keep.any(1), np.abs(twice), 0.0))
    return np.array(lengths), np.array(areas)


def test_sweep_matches_dense_reference(ico3, rng):
    # every interior vertex value of z, the exact equator ring t = 0
    # included, and a uniform grid on a random field
    z = coordinate_field(ico3)
    f = random_smooth_field(ico3, rng)
    cases = [
        (z, np.unique(z.values)[1:-1]),
        (f, np.linspace(f.values.min(), f.values.max(), 41)[1:-1]),
    ]
    assert 0.0 in cases[0][1]
    for field, ts in cases:
        ref_len, ref_area = _dense_reference(field, ts)
        sweep = LevelSweep(field)
        np.testing.assert_allclose(sweep.level(ts), ref_len, rtol=1e-12)
        np.testing.assert_allclose(sweep.superlevel(ts), ref_area, rtol=1e-12)


def test_sweep_keeps_input_order_and_duplicates(ico3, rng):
    f = random_smooth_field(ico3, rng)
    ts = np.array([0.3, -0.2, 0.3, 0.0, -0.5, 0.1, -0.2])
    sweep = LevelSweep(f)
    for method in (sweep.level, sweep.superlevel):
        batch = method(ts)
        single = np.array([method([t])[0] for t in ts])
        np.testing.assert_array_equal(batch, single)
        assert batch[0] == batch[2] and batch[1] == batch[6]


def test_sweep_on_circle_counts_crossings_and_arc_length():
    m = build_circle(60)
    x, y = m.vertices[:, 0], m.vertices[:, 1]
    f = ScalarField(m, np.cos(3.0 * np.arctan2(y, x)) + 0.1 * x)
    ts = np.linspace(f.values.min(), f.values.max(), 23)[1:-1]
    u = f.values[m.cells]
    p0, p1 = m.vertices[m.cells[:, 0]], m.vertices[m.cells[:, 1]]
    counts, lengths = [], []
    for t in ts:
        above = u > t
        cut = above[:, 0] != above[:, 1]
        counts.append(cut.sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(cut, (t - u[:, 0]) / (u[:, 1] - u[:, 0]), 0.0)
        hit = p0 + w[:, None] * (p1 - p0)
        part = np.linalg.norm(np.where(above[:, :1], p0, p1) - hit, axis=1)
        lengths.append(np.where(above.all(1), m.cell_measure, cut * part).sum())
    sweep = LevelSweep(f)
    np.testing.assert_array_equal(sweep.level(ts), counts)
    assert max(counts) == 6
    np.testing.assert_allclose(sweep.superlevel(ts), lengths, rtol=1e-12)


def test_sweep_default_weights_are_explicit_weights(ico3, rng):
    f = random_smooth_field(ico3, rng)
    ts = np.linspace(f.values.min() + 0.01, f.values.max() - 0.01, 33)
    sweep = LevelSweep(f)
    np.testing.assert_array_equal(sweep.level(ts, np.ones(len(ico3.cells))), sweep.level(ts))
    np.testing.assert_array_equal(sweep.superlevel(ts, ico3.cell_measure), sweep.superlevel(ts))


# ---------------------------------------------------------------------------
# isoperimetric ratios


def test_gromov_caps_at_equality(ico4):
    z = coordinate_field(ico4)
    b = beta(ico4)
    for t in (-0.5, 0.0, 0.5):
        assert gromov_ratio(z, t, b) == pytest.approx(1.0, abs=0.01)


def test_gromov_degenerate_rejected(ico3):
    z = coordinate_field(ico3)
    with pytest.raises(ValueError):
        gromov_ratio(z, 1.2, beta(ico3))
    with pytest.raises(ValueError):
        gromov_ratio(z, 0.0, 0.01)  # scaled volume overflows the model sphere


def test_gromov_ratio_batch_equals_scalar_calls(ico3):
    b = beta(ico3)
    for f in check_battery(ico3, np.random.default_rng(5), 4):
        lo, hi = float(f.values.min()), float(f.values.max())
        ts = lo + (hi - lo) * np.array([0.15, 0.4, 0.4, 0.85, 0.6])
        batch = gromov_ratio(f, ts, b)
        assert isinstance(batch, np.ndarray) and batch.shape == ts.shape
        assert batch.tolist() == [gromov_ratio(f, t, b) for t in ts]


def test_gromov_ratio_batch_checks_every_threshold(ico3):
    z = coordinate_field(ico3)
    lo, hi = float(z.values.min()), float(z.values.max())
    for bad in (lo, hi, hi + 0.1, np.nan):
        with pytest.raises(ValueError, match="strictly inside"):
            gromov_ratio(z, np.array([-0.5, bad, 0.5]), beta(ico3))


def test_gromov_ratio_scalar_returns_float(ico3):
    z = coordinate_field(ico3)
    assert type(gromov_ratio(z, 0.25, beta(ico3))) is float
    assert type(gromov_ratio(z, np.float64(0.25), beta(ico3))) is float


def test_gromov_battery_on_ellipsoid():
    m = build_ellipsoid_cached()
    b = beta(m)
    rng = np.random.default_rng(0)
    ratios = []
    for f in check_battery(m, rng, 10):
        lo, hi = float(f.values.min()), float(f.values.max())
        for _ in range(2):
            t = lo + (hi - lo) * rng.uniform(0.15, 0.85)
            ratios.append(gromov_ratio(f, t, b))
    assert min(ratios) >= 0.98


_ELL = {}


def build_ellipsoid_cached():
    if "m" not in _ELL:
        from pspec.manifold import build_ellipsoid

        _ELL["m"] = build_ellipsoid(1.2, 3)
    return _ELL["m"]


# ---------------------------------------------------------------------------
# batteries


def test_check_battery_is_deterministic(ico3):
    a = check_battery(ico3, np.random.default_rng(42), 6)
    b = check_battery(ico3, np.random.default_rng(42), 6)
    assert len(a) == len(b) == 6
    np.testing.assert_array_equal(a[0].values, ico3.vertices[:, 2])
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.values, fb.values)


def test_bump_fields_bounded(ico3, rng):
    f = random_bump_field(ico3, rng)
    assert f.values.min() > 0.0
    assert f.values.max() <= 1.0


def test_domain_bumps_vanish_outside(ico3, rng):
    hemi = hemisphere_domain(ico3)
    for f in domain_bump_battery(hemi, rng, 4):
        assert (f.values[~hemi.interior] == 0.0).all()
        assert f.values[hemi.interior].max() > 0.0


# ---------------------------------------------------------------------------
# sharpening profile


def test_croke_profile_round_sphere(ico3):
    prof = croke_profile(ico3, beta(ico3), diameter(ico3), count=20, thresholds=3)
    assert prof.count == 60
    assert prof.histogram[0].sum() == prof.count
    assert 0.98 <= prof.min_ratio <= 1.05
    assert prof.diameter == diameter(ico3)


def test_croke_gap_on_short_diameter_family(ico3):
    ell = build_ellipsoid_cached()
    sph = croke_profile(ico3, beta(ico3), diameter(ico3), count=20, thresholds=3)
    stretched = croke_profile(ell, beta(ell), diameter(ell), count=20, thresholds=3)
    assert stretched.diameter < sph.diameter
    assert stretched.min_ratio > sph.min_ratio + 0.01
