import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pspec.isoperim as isoperim
from pspec.manifold import (
    build_circle,
    build_ellipsoid,
    build_icosphere,
    build_interval,
    spheroid_diameter,
)
from pspec.isoperim import (
    LevelSweep,
    battery_ratios,
    check_battery,
    domain_bump_battery,
    gromov_ratio,
    random_bump_field,
    random_smooth_field,
)
from pspec.manifold import hemisphere_domain
from pspec.pspectral import ScalarField, _fem, coordinate_field, dirichlet_eigen


@pytest.fixture(scope="module")
def ico5():
    return build_icosphere(5)


# ---------------------------------------------------------------------------
# level-set measures


def test_equator_length(ico4):
    z = coordinate_field(ico4)
    assert LevelSweep(z, [0.0]).level()[0] == pytest.approx(2 * np.pi, rel=0.01)


def test_level_out_of_range_rejected(ico3):
    z = coordinate_field(ico3)
    for t in (1.0, 1.5, -1.0, -2.0):
        with pytest.raises(ValueError, match="strictly inside"):
            gromov_ratio(z, t)


def test_boundary_error_halves_under_refinement():
    exact = 2 * np.pi * np.sqrt(1 - 0.4**2)
    errs = {}
    for level in (4, 6):
        z = coordinate_field(build_icosphere(level))
        errs[level] = abs(LevelSweep(z, [0.4]).level()[0] - exact) / exact
    assert errs[6] < 0.5 * errs[4]


def test_sign_symmetry_exact(ico3, rng):
    f = random_smooth_field(ico3, rng)
    neg = ScalarField(ico3, -f.values)
    for t in (0.1, -0.3, 0.55):
        assert LevelSweep(f, [t]).level()[0] == LevelSweep(neg, [-t]).level()[0]


def test_boundary_measure_continuous_in_t(ico4):
    z = coordinate_field(ico4)
    ts = np.linspace(-0.9, 0.9, 200)
    lens = LevelSweep(z, ts).level()
    assert np.abs(np.diff(lens)).max() <= 0.05 * lens.max()


def test_level_crossings_on_circle():
    m = build_circle(100)
    f = coordinate_field(m, axis=0)  # cos(theta) along the polygon
    assert LevelSweep(f, [0.3]).level()[0] == 2.0


def test_level_integral_of_ones_is_measure(ico3):
    z = coordinate_field(ico3)
    sweep = LevelSweep(z, [0.25])
    ones = np.ones(len(ico3.cells))
    assert sweep.level(ones)[0] == pytest.approx(sweep.level()[0], rel=1e-12)


# ---------------------------------------------------------------------------
# superlevel measures


def test_superlevel_matches_cap_areas(ico4):
    z = coordinate_field(ico4)
    for t in (-0.5, 0.0, 0.4, 0.8):
        assert LevelSweep(z, [t]).superlevel()[0] == pytest.approx(
            2 * np.pi * (1 - t), rel=0.01
        )


def test_superlevel_hemisphere_area_level5(ico5):
    # Archimedes: the hemisphere occupies half of the sphere area
    z = coordinate_field(ico5)
    assert LevelSweep(z, [0.0]).superlevel()[0] == pytest.approx(2 * np.pi, rel=0.01)


def test_superlevel_extremes(ico3, rng):
    f = random_smooth_field(ico3, rng)
    lo, hi = f.values.min(), f.values.max()
    total = float(ico3.cell_measure.sum())
    below, above = LevelSweep(f, [lo - 1.0, hi + 1.0]).superlevel()
    assert below == pytest.approx(total, rel=1e-12)
    assert above == 0.0


def test_superlevel_batch_matches_scalar(ico3, rng):
    f = random_smooth_field(ico3, rng)
    ts = np.linspace(f.values.min() + 0.05, f.values.max() - 0.05, 17)
    batch = LevelSweep(f, ts).superlevel()
    single = np.array([LevelSweep(f, [t]).superlevel()[0] for t in ts])
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
    # included, a uniform grid on a random field, and that field quantized
    # so that vertex values tie, cut at every value it takes: thresholds on
    # tied edges, tied cells and cells' middle values (the branch point)
    z = coordinate_field(ico3)
    f = random_smooth_field(ico3, rng)
    q = ScalarField(ico3, np.round(f.values / 0.25) * 0.25)
    cases = [
        (z, np.unique(z.values)[1:-1]),
        (f, np.linspace(f.values.min(), f.values.max(), 41)[1:-1]),
        (q, np.unique(q.values)[1:-1]),
    ]
    assert 0.0 in cases[0][1]
    srt = np.sort(q.values[ico3.cells], axis=1)
    assert (srt[:, 0] == srt[:, 1]).any() and (srt[:, 1] == srt[:, 2]).any()
    assert np.isin(srt[:, 1], cases[2][1]).sum() > 100
    for field, ts in cases:
        ref_len, ref_area = _dense_reference(field, ts)
        sweep = LevelSweep(field, ts)
        np.testing.assert_allclose(sweep.level(), ref_len, rtol=1e-12)
        np.testing.assert_allclose(sweep.superlevel(), ref_area, rtol=1e-12)


def test_sweep_keeps_input_order_and_duplicates(ico3, rng):
    f = random_smooth_field(ico3, rng)
    ts = np.array([0.3, -0.2, 0.3, 0.0, -0.5, 0.1, -0.2])
    for name in ("level", "superlevel"):
        batch = getattr(LevelSweep(f, ts), name)()
        single = np.array([getattr(LevelSweep(f, [t]), name)()[0] for t in ts])
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
    sweep = LevelSweep(f, ts)
    np.testing.assert_array_equal(sweep.level(), counts)
    assert max(counts) == 6
    np.testing.assert_allclose(sweep.superlevel(), lengths, rtol=1e-12)


def test_sweep_rejects_nan_thresholds_and_keeps_infinite_ones(ico3):
    z = coordinate_field(ico3)
    with pytest.raises(ValueError, match="thresholds must not be NaN"):
        LevelSweep(z, [np.nan, 0.1])
    sweep = LevelSweep(z, [-np.inf, 0.1, np.inf])
    total = float(ico3.cell_measure.sum())
    lens, areas = sweep.level(), sweep.superlevel()
    assert lens[0] == lens[2] == 0.0 and lens[1] > 0.0
    assert areas[0] == pytest.approx(total, rel=1e-12) and areas[2] == 0.0


@pytest.mark.parametrize("ts", [0.1, [[0.1, 0.2]], [[0.1], [0.2]]], ids=["scalar", "row", "column"])
def test_sweep_rejects_thresholds_that_are_not_1d(ico3, ts):
    msg = f"thresholds must be a 1-D array, got shape {np.shape(ts)}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        LevelSweep(coordinate_field(ico3), ts)


@pytest.mark.parametrize("extra", [-1, 1])
def test_sweep_rejects_weights_not_one_per_cell(ico3, extra):
    z = coordinate_field(ico3)
    sweep = LevelSweep(z, [0.1])
    for w in (np.ones(len(ico3.cells) + extra), np.ones((len(ico3.cells), 1))):
        for name in ("level", "superlevel"):
            with pytest.raises(ValueError, match="weights must hold one value per cell"):
                getattr(sweep, name)(w)


def test_sweep_default_weights_are_explicit_weights(ico3, rng):
    f = random_smooth_field(ico3, rng)
    ts = np.linspace(f.values.min() + 0.01, f.values.max() - 0.01, 33)
    sweep = LevelSweep(f, ts)
    np.testing.assert_array_equal(sweep.level(np.ones(len(ico3.cells))), sweep.level())
    np.testing.assert_array_equal(sweep.superlevel(ico3.cell_measure), sweep.superlevel())


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_level_is_minus_the_t_derivative_of_superlevel(ico3, p):
    # between vertex values a cell's area fraction above t is quadratic in
    # t, so a central difference of superlevel(w) is exact up to rounding,
    # and equals level(w / (cell area |grad u|)): the coarea identity
    # -d/dt H^2{u > t} = int_{u=t} 1/|grad u| and its p-energy form hold
    # per cell for every P1 field
    fem = _fem(ico3)
    battery = random_smooth_field(ico3, np.random.default_rng(5))
    eigen = dirichlet_eigen(hemisphere_domain(ico3), p).field
    for field in (battery, eigen):
        u = field.values
        g = np.linalg.norm(fem.gradients(u), axis=1)
        h = 1e-5 * np.abs(u).max()
        cand = np.linspace(u.min(), u.max(), 203)[1:-1]
        gap = np.abs(cand[:, None] - u[None, :]).min(axis=1)
        ts = cand[gap >= 10.0 * h]
        assert len(ts) >= 150
        up, down = LevelSweep(field, ts + h), LevelSweep(field, ts - h)
        crossed = LevelSweep(field, ts)
        for w in (ico3.cell_measure, fem.cellw * g**p):
            slope = -(up.superlevel(w) - down.superlevel(w)) / (2.0 * h)
            with np.errstate(divide="ignore", invalid="ignore"):
                per_length = w / (ico3.cell_measure * g)
            np.testing.assert_allclose(crossed.level(per_length), slope, rtol=1e-8)


@pytest.fixture(scope="module")
def coarea_fields(ico3):
    rng = np.random.default_rng(5)
    battery = random_smooth_field(ico3, rng)
    ell = build_ellipsoid(1.2, 3)
    circle = build_circle(50)
    return {
        "battery": battery,
        "quantized": ScalarField(ico3, 0.25 * np.round(battery.values / 0.25)),
        "ellipsoid": random_bump_field(ell, rng),
        "circle": random_smooth_field(circle, rng),
    }


@pytest.mark.parametrize("case", ["battery", "quantized", "ellipsoid", "circle"])
def test_level_integrates_to_the_gradient_norm(coarea_fields, case):
    # between consecutive distinct vertex values a triangle's level length is
    # linear in t and a segment's crossing count constant, so the midpoint
    # rule on those panels integrates level() exactly, and the coarea formula
    # int |grad u| = int H^{n-1}{u = t} dt holds to rounding on any P1 field,
    # ties included (the quantized copy has flat cells and tied edges)
    field = coarea_fields[case]
    u = field.values
    v = np.unique(u)
    if case == "quantized":
        assert len(v) < 0.1 * len(u)
    lens = LevelSweep(field, 0.5 * (v[:-1] + v[1:])).level()
    fem = _fem(field.mesh)
    total = fem.cellw @ np.linalg.norm(fem.gradients(u), axis=1)
    assert np.diff(v) @ lens == pytest.approx(total, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# blocked kernels against the whole-batch reference


class _ReferenceSweep:
    """LevelSweep with whole-batch kernels: one sort per cell, two searches
    over the cell values, each closed-form branch evaluated on its own
    pairs, and every per-pair temporary alive at once. The blocked kernels
    must return bitwise the same arrays."""

    def __init__(self, field, ts):
        self.mesh = field.mesh
        self._uc = field.values[self.mesh.cells]
        self._srt = np.sort(self._uc, axis=1)
        self._by_min = np.argsort(self._srt[:, 0])
        self._min_sorted = self._srt[self._by_min, 0]
        self._ts = ts

    def _pairs(self, ts):
        ts = np.asarray(ts, dtype=float)
        order = np.argsort(ts, kind="stable")
        srt = ts[order]
        first = np.searchsorted(srt, self._srt[:, 0], side="left")
        count = np.searchsorted(srt, self._srt[:, -1], side="left") - first
        cell = np.repeat(np.arange(len(count)), count)
        k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
        return cell, order[first[cell] + k], ts

    def level(self, weights=None):
        cell, tid, ts = self._pairs(self._ts)
        if self.mesh.dimension == 2:
            t = ts[tid]
            srt = self._srt[cell]
            c_, b_, a_ = srt[:, 0], srt[:, 1], srt[:, 2]
            u, x = self._uc[cell], self.mesh.vertices[self.mesh.cells[cell]]
            du1, du2 = u[:, 1] - u[:, 0], u[:, 2] - u[:, 0]
            dx1, dx2 = x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
            k = np.linalg.norm(du2[:, None] * dx1 - du1[:, None] * dx2, axis=1)
            rate = np.empty(len(cell))
            m = t >= b_
            rate[m] = (a_[m] - t[m]) / ((a_[m] - b_[m]) * (a_[m] - c_[m]))
            m = ~m
            rate[m] = (t[m] - c_[m]) / ((a_[m] - c_[m]) * (b_[m] - c_[m]))
            size = rate * k
        else:
            size = np.ones(len(cell))
        if weights is not None:
            size = size * np.asarray(weights, dtype=float)[cell]
        return np.bincount(tid, weights=size, minlength=len(ts))

    def superlevel(self, weights=None):
        w = self.mesh.cell_measure if weights is None else np.asarray(weights, dtype=float)
        cell, tid, ts = self._pairs(self._ts)
        t = ts[tid]
        srt = self._srt[cell]
        if self.mesh.dimension == 2:
            c_, b_, a_ = srt[:, 0], srt[:, 1], srt[:, 2]
            frac = np.empty(len(cell))
            m = t >= b_
            frac[m] = (a_[m] - t[m]) ** 2 / ((a_[m] - b_[m]) * (a_[m] - c_[m]))
            m = ~m
            frac[m] = 1.0 - (t[m] - c_[m]) ** 2 / ((a_[m] - c_[m]) * (b_[m] - c_[m]))
        else:
            b_, a_ = srt[:, 0], srt[:, 1]
            frac = (a_ - t) / (a_ - b_)
        whole = np.concatenate([np.cumsum(w[self._by_min][::-1])[::-1], [0.0]])
        above = whole[np.searchsorted(self._min_sorted, ts, side="right")]
        return above + np.bincount(tid, weights=frac * w[cell], minlength=len(ts))


_EQUIV_MESHES = {
    "ico2": build_icosphere(2),
    "ico3": build_icosphere(3),
    "circle": build_circle(24),
    "interval": build_interval(17, -1.0, 1.0),
}


@st.composite
def _sweep_cases(draw):
    """A field, a threshold batch and a block size for the equivalence test.

    Fields are smooth, bumps, or bumps cut to zero on part of the mesh
    (constant patches), optionally quantized so that vertex values tie.
    Thresholds mix vertex values, triangle middle values, the field's own
    extremes, values outside its range and uniform draws; the batch may be
    empty, and small block sizes split even short batches into many blocks.
    """
    mesh = _EQUIV_MESHES[draw(st.sampled_from(sorted(_EQUIV_MESHES)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["smooth", "bump", "cut"]))
    if kind == "smooth":
        u = random_smooth_field(mesh, rng).values
    else:
        u = random_bump_field(mesh, rng).values
        if kind == "cut":
            u = np.where(mesh.vertices[:, 0] > rng.uniform(-0.5, 0.5), u, 0.0)
    step = draw(st.sampled_from([0.0, 0.05, 0.25]))
    if step:
        u = np.round(u / step) * step
    lo, hi = float(u.min()), float(u.max())
    uc = np.sort(u[mesh.cells], axis=1)
    pools = [u, uc[:, 1], np.array([lo, hi, lo - 1.0, hi + 1.0]), rng.uniform(lo, hi, 64)]
    picks = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**16)), max_size=48)
    )
    ts = np.array([pools[i][j % len(pools[i])] for i, j in picks], dtype=float)
    block = draw(st.sampled_from([1, 7, 64, isoperim._BLOCK]))
    return ScalarField(mesh, u), ts, block, rng.uniform(0.5, 2.0, len(mesh.cells))


@settings(max_examples=150, deadline=None)
@given(_sweep_cases())
def test_blocked_kernels_bitwise_equal_the_reference(case):
    field, ts, block, weights = case
    ref = _ReferenceSweep(field, ts)
    with mock.patch.object(isoperim, "_BLOCK", block):
        sweep = LevelSweep(field, ts)
        for name in ("level", "superlevel"):
            for w in (None, weights):
                got, want = getattr(sweep, name)(w), getattr(ref, name)(w)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_batch_of_many_blocks_bitwise_equal_the_reference(ico3, rng):
    f = random_smooth_field(ico3, rng)
    ts = np.linspace(f.values.min(), f.values.max(), 258)[1:-1]
    sweep = LevelSweep(f, ts)
    assert len(sweep._cell) > 2 * isoperim._BLOCK
    ref = _ReferenceSweep(f, ts)
    w = rng.uniform(size=len(ico3.cells))
    for name in ("level", "superlevel"):
        for weights in (None, w):
            got, want = getattr(sweep, name)(weights), getattr(ref, name)(weights)
            assert got.tobytes() == want.tobytes()


def _tied_cells_field(mesh, rng):
    # a random field with one cell whose two top values tie (a == b) and a
    # disjoint cell whose two bottom values tie (b == c)
    u = rng.normal(size=len(mesh.vertices))
    top = mesh.cells[0]
    bottom = next(c for c in mesh.cells if not np.isin(c, top).any())
    u[top], u[bottom] = (1.0, 1.0, 0.2), (0.5, -0.3, -0.3)
    return ScalarField(mesh, u), top, bottom


def _assert_superlevel_bitwise_without_warnings(field, ts):
    weights = np.random.default_rng(3).uniform(0.5, 2.0, len(field.mesh.cells))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in (None, weights):
            got = LevelSweep(field, ts).superlevel(w)
            want = _ReferenceSweep(field, ts).superlevel(w)
            assert got.tobytes() == want.tobytes()


def test_superlevel_at_middle_vertex_values_bitwise_equals_the_reference(ico2, rng):
    # t equal to a cell's middle value takes the upper closed form
    field, top, bottom = _tied_cells_field(ico2, rng)
    mids = np.sort(field.values[ico2.cells], axis=1)[:, 1]
    _assert_superlevel_bitwise_without_warnings(field, mids)


def test_superlevel_with_tied_cell_values_bitwise_equals_the_reference(ico2, rng):
    # the branch not taken divides by the zero edge: (a - b) when a == b,
    # (b - c) when b == c; its inf or nan must neither leak nor warn
    field, top, bottom = _tied_cells_field(ico2, rng)
    ts = np.array([0.2, 0.6, 0.999, -0.3, 0.1, 0.4999])
    _assert_superlevel_bitwise_without_warnings(field, ts)
    sweep = LevelSweep(field, ts)
    for cell in (top, bottom):              # each tied cell's own area fraction
        index = np.flatnonzero((ico2.cells == cell).all(1))
        frac = sweep.superlevel(np.isin(np.arange(len(ico2.cells)), index) * 1.0)
        lo, hi = min(field.values[cell]), max(field.values[cell])
        inside = (lo <= ts) & (ts < hi)
        assert inside.sum() >= 3
        assert ((0.0 < frac[inside]) & (frac[inside] <= 1.0)).all()


def test_level_batch_memory_is_bounded(ico5):
    # a 256-level grid of z: 71,370 (cell, threshold) pairs, whose
    # whole-batch temporaries took 18.7 MiB; blocked, the pair enumeration
    # at construction and the kernel together stay below 6 MiB
    z = coordinate_field(ico5)
    inner = np.linspace(z.values.min(), z.values.max(), 258)[1:-1]
    tracemalloc.start()
    try:
        LevelSweep(z, inner).level()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_level_only_sweeps_never_sort_the_cells(ico3, monkeypatch):
    # the cell order by minimum is built on the first superlevel call only,
    # and a sweep sorts its cells at most once
    sweeps, cell_sorts = [], []
    real_init, real_argsort = LevelSweep.__init__, np.argsort

    def recording_init(self, field, ts):
        real_init(self, field, ts)
        sweeps.append(self)

    def counting_argsort(a, *args, **kwargs):
        if len(a) == len(ico3.cells):
            cell_sorts.append(a)
        return real_argsort(a, *args, **kwargs)

    monkeypatch.setattr(LevelSweep, "__init__", recording_init)
    monkeypatch.setattr(np, "argsort", counting_argsort)
    z = coordinate_field(ico3)
    LevelSweep(z, np.linspace(z.values.min(), z.values.max(), 258)[1:-1]).level()
    LevelSweep(z, [0.1]).level()
    LevelSweep(z, [0.1]).level(np.ones(len(ico3.cells)))
    assert len(sweeps) == 3
    assert all("_by_min" not in vars(s) and "_denominators" not in vars(s) for s in sweeps)
    assert cell_sorts == []

    sweep = LevelSweep(z, [0.1, -0.4])
    sweep.superlevel()
    sweep.superlevel(np.ones(len(ico3.cells)))
    assert len(cell_sorts) == 1
    order, mins = vars(sweep)["_by_min"]
    assert np.array_equal(mins, np.sort(sweep._lo))

    # the order depends on the field alone: a second sweep of z at other
    # thresholds sorts its cells into the same bytes
    other = LevelSweep(z, [0.3])
    other.superlevel()
    assert len(cell_sorts) == 2
    order2, mins2 = vars(other)["_by_min"]
    assert order2.tobytes() == order.tobytes() and mins2.tobytes() == mins.tobytes()


# ---------------------------------------------------------------------------
# isoperimetric ratios


def test_gromov_caps_at_equality(ico4):
    z = coordinate_field(ico4)
    for t in (-0.5, 0.0, 0.5):
        assert gromov_ratio(z, t) == pytest.approx(1.0, abs=0.01)


def test_gromov_degenerate_rejected(ico3):
    z = coordinate_field(ico3)
    with pytest.raises(ValueError):
        gromov_ratio(z, 1.2)


def test_gromov_ratio_batch_equals_scalar_calls(ico3):
    for f in check_battery(ico3, np.random.default_rng(5), 4):
        lo, hi = float(f.values.min()), float(f.values.max())
        ts = lo + (hi - lo) * np.array([0.15, 0.4, 0.4, 0.85, 0.6])
        batch = gromov_ratio(f, ts)
        assert isinstance(batch, np.ndarray) and batch.shape == ts.shape
        assert batch.tolist() == [gromov_ratio(f, t) for t in ts]


def test_gromov_ratio_batch_checks_every_threshold(ico3):
    z = coordinate_field(ico3)
    lo, hi = float(z.values.min()), float(z.values.max())
    for bad in (lo, hi, hi + 0.1, np.nan):
        with pytest.raises(ValueError, match="strictly inside"):
            gromov_ratio(z, np.array([-0.5, bad, 0.5]))


def test_gromov_ratio_scalar_returns_float(ico3):
    z = coordinate_field(ico3)
    assert type(gromov_ratio(z, 0.25)) is float
    assert type(gromov_ratio(z, np.float64(0.25))) is float


def test_gromov_battery_on_ellipsoid():
    m = build_ellipsoid_cached()
    rng = np.random.default_rng(0)
    ratios = []
    for f in check_battery(m, rng, 10):
        lo, hi = float(f.values.min()), float(f.values.max())
        for _ in range(2):
            t = lo + (hi - lo) * rng.uniform(0.15, 0.85)
            ratios.append(gromov_ratio(f, t))
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


def _battery_ratios(mesh):
    # 20 battery fields at 3 thresholds each, all drawn from seed 0
    rng = np.random.default_rng(0)
    return battery_ratios(check_battery(mesh, rng, 20), rng, 3)


def test_croke_profile_round_sphere(ico3):
    ratios = _battery_ratios(ico3)
    assert len(ratios) == 60
    assert 0.98 <= ratios.min() <= 1.05
    assert spheroid_diameter(ico3.meta["semi_axes"]) == np.pi


def test_croke_gap_on_short_diameter_family(ico3):
    ell = build_ellipsoid_cached()
    sph = _battery_ratios(ico3).min()
    stretched = _battery_ratios(ell).min()
    assert spheroid_diameter(ell.meta["semi_axes"]) < spheroid_diameter(ico3.meta["semi_axes"])
    assert stretched > sph + 0.01
