import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pspec.manifold as manifold
from pspec.manifold import (
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
    superlevel_domain,
    total_measure,
    write_off,
)


# ---------------------------------------------------------------------------
# builders and total measure


def test_icosahedron_combinatorics():
    m = build_icosphere(0)
    assert len(m.vertices) == 12
    assert len(m.cells) == 20
    assert m.closed


def test_subdivision_quadruples_faces():
    for level in (1, 2, 3):
        m = build_icosphere(level)
        assert len(m.cells) == 20 * 4**level


def test_icosphere_area_converges_to_sphere(ico4):
    assert abs(total_measure(ico4) - 4 * np.pi) <= 0.01 * 4 * np.pi


def test_area_scales_quadratically():
    a1 = total_measure(build_icosphere(2))
    a2 = total_measure(build_icosphere(2, radius=2.0))
    assert a2 == pytest.approx(4.0 * a1, rel=1e-12)


def test_circle_perimeter():
    m = build_circle(1000)
    assert abs(total_measure(m) - 2 * np.pi) <= 1e-4


def test_interval_length_exact():
    m = build_interval(100)
    # uniform partition sums back to the length
    assert total_measure(m) == pytest.approx(1.0, abs=1e-14)


def test_total_measure_additive_over_cell_partition(ico3):
    cw = ico3.cell_measure
    half = len(cw) // 2
    parts = math.fsum(cw[:half]) + math.fsum(cw[half:])
    assert parts == pytest.approx(math.fsum(cw), rel=1e-14)


def test_builder_input_validation():
    with pytest.raises(ValueError):
        build_icosphere(9)
    with pytest.raises(ValueError):
        build_icosphere(2.5)
    with pytest.raises(ValueError):
        build_icosphere(2, radius=0.0)
    with pytest.raises(ValueError):
        build_ellipsoid(2.1, 2)
    with pytest.raises(ValueError):
        build_ellipsoid(0.9, 2)
    with pytest.raises(ValueError):
        build_interval(0)
    with pytest.raises(ValueError):
        build_interval(10, a=1.0, b=1.0)
    with pytest.raises(ValueError):
        build_circle(2)


def test_builders_reject_nonpositive_sizes(ico2):
    with pytest.raises(ValueError, match="radius must be positive"):
        build_circle(8, radius=0.0)
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="scale factor must be positive"):
            ico2.scaled(c)


TRIANGLE = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


@pytest.mark.parametrize(
    "dimension, v, cells, match",
    [
        (3, TRIANGLE, [[0, 1, 2]], "dimension must be 1 or 2, got 3"),
        (0, TRIANGLE, [[0, 1, 2]], "dimension must be 1 or 2, got 0"),
        (2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], r"vertices must be \(nv, 3\)"),
        (2, [0, 0, 0], [[0, 1, 2]], r"vertices must be \(nv, 3\)"),
        (2, TRIANGLE, [[0, 1]], r"cells must be \(nc, 3\)"),
        (1, TRIANGLE, [0, 1], r"cells must be \(nc, 2\)"),
        (2, TRIANGLE, [[0, 1, 3]], "cell indices out of range"),
        (2, TRIANGLE, [[0, 1, -1]], "cell indices out of range"),
    ],
)
def test_mesh_rejects_malformed_arrays(dimension, v, cells, match):
    with pytest.raises(ValueError, match=match):
        Mesh(dimension, v, cells)


def test_mesh_rejects_degenerate_and_nonmanifold():
    # zero-area triangle
    v = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
    with pytest.raises(ValueError):
        Mesh(2, v, [[0, 1, 2]])
    # three faces on one edge
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
    cells = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(ValueError):
        Mesh(2, v, cells)
    # two disjoint triangles
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 0, 0], [6, 0, 0], [5, 1, 0]]
    with pytest.raises(ValueError):
        Mesh(2, v, [[0, 1, 2], [3, 4, 5]])


@pytest.mark.parametrize(
    "dimension, v, cells, match",
    [
        (2, [[math.nan, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], "finite"),
        (2, [[math.inf, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], "finite"),
        (1, [[0, 0, 0], [1, 0, -math.inf]], [[0, 1]], "finite"),
        (2, [[0, 0, 0], [1, 1, 1], [3, 3, 3]], [[0, 1, 2]], "degenerate"),
        (1, [[0.5, 1, 2], [0.5, 1, 2]], [[0, 1]], "degenerate"),
    ],
)
def test_mesh_rejects_nonfinite_vertices_and_null_cells(dimension, v, cells, match):
    with pytest.raises(ValueError, match=match):
        Mesh(dimension, v, cells)


def test_lumped_vertex_measure_sums_to_total(ico3):
    assert ico3.vertex_measure.sum() == pytest.approx(
        ico3.cell_measure.sum(), rel=1e-13
    )
    assert (ico3.vertex_measure > 0).all()


def test_pole_orientation_has_exact_equator_ring(ico3):
    assert (ico3.vertices[:, 2] == 0.0).sum() >= 6


# ---------------------------------------------------------------------------
# beta


def test_beta_round_sphere(ico4):
    assert abs(beta(ico4) - 1.0) <= 0.01


def test_beta_quadratic_scaling(ico2):
    b1 = beta(ico2)
    b2 = beta(ico2.scaled(0.5))
    assert b2 == pytest.approx(0.25 * b1, rel=1e-12)


def test_beta_normalized_ellipsoid_below_one():
    m = build_ellipsoid(1.2, 3)
    assert beta(m) < 1.0
    assert m.meta["min_curvature"] == pytest.approx(1.0, rel=1e-9)


def test_beta_rejects_open_mesh():
    with pytest.raises(ValueError):
        beta(build_interval(10))


def test_icosphere_records_its_curvature():
    m = build_icosphere(1, 0.5)
    assert m.meta["min_curvature"] == m.meta["max_curvature"] == 4.0


@pytest.mark.parametrize(
    "mesh", [build_icosphere(1, 2.0), build_ellipsoid(1.3, 1), build_ellipsoid(1.3, 1, False)]
)
def test_scaled_divides_the_curvature_bounds(mesh):
    m = mesh.scaled(3.0).scaled(0.5)
    for key in ("min_curvature", "max_curvature"):
        assert m.meta[key] == pytest.approx(mesh.meta[key] / 2.25, rel=1e-15)
    assert "min_curvature" not in build_interval(4).scaled(2.0).meta


def test_scaled_multiplies_the_meta_lengths():
    ico = build_icosphere(1).scaled(2.0)
    assert ico.meta["radius"] == 2.0
    assert ico.meta["semi_axes"] == (2.0, 2.0, 2.0)
    assert np.allclose(np.linalg.norm(ico.vertices, axis=1), 2.0)
    base = build_ellipsoid(1.2, 1)
    ell = base.scaled(2.0)
    assert ell.meta["scale"] == 2.0 * base.meta["scale"]
    assert ell.meta["semi_axes"] == tuple(2.0 * s for s in base.meta["semi_axes"])
    assert np.abs(ell.vertices[:, 2]).max() == pytest.approx(ell.meta["semi_axes"][2])
    assert ell.meta["normalized"] is False
    assert base.scaled(1.0).meta["normalized"] is True
    assert build_circle(8, 0.5).scaled(3.0).meta["radius"] == 1.5
    seg = build_interval(4, -1.0, 2.0).scaled(2.0)
    assert (seg.meta["a"], seg.meta["b"]) == (-2.0, 4.0)


def test_unnormalized_ellipsoid_curvature_below_one():
    m = build_ellipsoid(1.5, 2, normalize=False)
    assert m.meta["min_curvature"] < 1.0


# ---------------------------------------------------------------------------
# diameter


@pytest.mark.parametrize("aspect", [1.0, 1.005, 1.2, 2.0])
def test_spheroid_diameter_is_the_exact_half_meridian(aspect):
    from scipy.special import ellipe

    meshes = [
        build_ellipsoid(aspect, 1),
        build_ellipsoid(aspect, 1, normalize=False),
        build_ellipsoid(aspect, 1).scaled(2.5),
        build_ellipsoid(aspect, 1, normalize=False).scaled(0.3),
    ]
    for m in meshes:
        a, _, c = m.meta["semi_axes"]
        exact = 2.0 * c * ellipe(1.0 - a**2 / c**2)
        assert abs(manifold.spheroid_diameter(m.meta["semi_axes"]) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("ratio", [10.0, 1e3, 1e6])
def test_spheroid_diameter_reaches_rounding_on_long_spheroids(ratio):
    # the fixed AGM steps are documented to reach rounding up to c / a = 10^6;
    # measured within 5.1 eps of scipy.special.ellipe
    from scipy.special import ellipe

    eps = np.finfo(float).eps
    for a in (0.3, 1.0, 2.5):
        c = a * ratio
        exact = 2.0 * c * ellipe(1.0 - a**2 / c**2)
        assert abs(manifold.spheroid_diameter((a, a, c)) - exact) <= 8.0 * eps * exact


def test_spheroid_diameter_of_the_round_sphere_and_bad_axes():
    assert manifold.spheroid_diameter((1.0, 1.0, 1.0)) == np.pi
    assert manifold.spheroid_diameter((2.0, 2.0, 2.0)) == 2.0 * np.pi
    for axes in ((1.0, 1.0, 0.5), (1.0, 0.9, 1.2), (0.0, 0.0, 1.0), (-1.0, -1.0, 1.0)):
        with pytest.raises(ValueError, match="prolate"):
            manifold.spheroid_diameter(axes)


# ---------------------------------------------------------------------------
# caps


def test_cap_volume_values():
    assert cap_volume(np.pi / 2, 2) == pytest.approx(2 * np.pi, rel=1e-14)
    assert cap_volume(np.pi, 2) == pytest.approx(4 * np.pi, rel=1e-14)
    assert cap_volume(0.0, 2) == 0.0
    assert cap_volume(0.7, 1) == pytest.approx(1.4, rel=1e-14)


def test_cap_boundary_values():
    assert cap_boundary(np.pi / 2, 2) == pytest.approx(2 * np.pi, rel=1e-14)
    assert cap_boundary(np.pi, 2) == pytest.approx(0.0, abs=1e-12)
    assert cap_boundary(0.5, 1) == 2.0
    assert cap_boundary(0.0, 1) == 0.0


def test_cap_radius_roundtrip():
    for r in (0.3, 1.0, 2.5):
        for n in (1, 2):
            assert cap_radius(cap_volume(r, n), n) == pytest.approx(r, abs=1e-10)


@pytest.mark.parametrize("r", [1e-6, 1e-4])
def test_small_caps_keep_relative_precision(r):
    # series of 2 pi (1 - cos r); the next term is below 1e-20 relative
    series = np.pi * r**2 * (1.0 - r**2 / 12.0 + r**4 / 360.0)
    assert abs(cap_volume(r, 2) - series) <= 1e-12 * series
    assert abs(cap_radius(series, 2) - r) <= 1e-12 * r


def test_cap_volume_strictly_increasing():
    r = np.linspace(0.0, np.pi, 200)
    assert (np.diff(cap_volume(r, 2)) > 0).all()
    assert (np.diff(cap_volume(r, 1)) > 0).all()


def test_cap_boundary_is_volume_derivative():
    h = 1e-6
    for r in (0.4, 1.2, 2.0):
        for n in (1, 2):
            dv = (cap_volume(r + h, n) - cap_volume(r - h, n)) / (2 * h)
            assert dv == pytest.approx(cap_boundary(r, n), abs=1e-6)


def test_cap_range_checks():
    with pytest.raises(ValueError):
        cap_volume(-0.1, 2)
    with pytest.raises(ValueError):
        cap_volume(3.5, 2)
    with pytest.raises(ValueError):
        cap_boundary(3.5, 2)
    with pytest.raises(ValueError):
        cap_radius(-0.5, 2)
    with pytest.raises(ValueError):
        cap_radius(13.0, 2)
    with pytest.raises(ValueError):
        cap_volume(1.0, 3)


# ---------------------------------------------------------------------------
# domains


def test_hemisphere_domain_counts_and_boundary(ico3):
    d = hemisphere_domain(ico3)
    assert d.interior.sum() == (ico3.vertices[:, 2] > 0).sum()
    assert len(d.boundary_vertices) > 0
    assert not d.interior[d.boundary_vertices].any()


def _axis0_edges(cells):
    raw = np.sort(np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]]), 1)
    return np.unique(raw, axis=0, return_counts=True)


@pytest.mark.parametrize("build", [lambda: build_icosphere(3), lambda: build_ellipsoid(1.2, 4)])
def test_edges_and_hemisphere_boundary_match_axis0_unique(build):
    m = build()
    edges, _ = _axis0_edges(m.cells)
    assert m.edges.dtype == edges.dtype and np.array_equal(m.edges, edges)
    d = hemisphere_domain(m)
    edges, counts = _axis0_edges(m.cells[d.cells])
    # the boundary ring is the vertex set of the touched cells' free edges
    assert np.array_equal(d.boundary_vertices, np.unique(edges[counts == 1]))


def test_whole_mesh_domain_needs_closed_mesh(ico2):
    d = Domain(ico2, np.ones(len(ico2.vertices), dtype=bool))
    assert len(d.boundary_vertices) == 0
    with pytest.raises(ValueError):
        Domain(build_interval(5), np.ones(6, dtype=bool))


def test_interval_interior_domain():
    m = build_interval(10)
    d = interior_domain(m)
    assert d.interior.sum() == 9
    assert d.boundary_vertices.tolist() == [0, 10]


def test_interior_domain_rejects_a_closed_mesh(ico2):
    with pytest.raises(ValueError, match="expects a mesh with boundary"):
        interior_domain(ico2)


def test_domain_rejects_empty_and_disconnected(ico3):
    z = ico3.vertices[:, 2]
    with pytest.raises(ValueError):
        Domain(ico3, np.zeros(len(z), dtype=bool))
    with pytest.raises(ValueError):
        Domain(ico3, np.abs(z) > 0.9)  # two antipodal caps
    with pytest.raises(ValueError):
        Domain(ico3, np.ones(3, dtype=bool))


def test_superlevel_domain_mask(ico3):
    z = ico3.vertices[:, 2]
    d = superlevel_domain(ico3, z, 0.25)
    assert (d.interior == (z > 0.25)).all()


# ---------------------------------------------------------------------------
# OFF round trips


def test_off_roundtrip_surface(tmp_path, ico2):
    path = tmp_path / "m.off"
    write_off(ico2, path)
    back = read_off(path)
    assert back.dimension == 2
    np.testing.assert_array_equal(back.vertices, ico2.vertices)
    np.testing.assert_array_equal(back.cells, ico2.cells)


def test_off_roundtrip_polyline(tmp_path):
    m = build_circle(17)
    path = tmp_path / "c.off"
    write_off(m, path)
    back = read_off(path)
    assert back.dimension == 1
    np.testing.assert_array_equal(back.vertices, m.vertices)
    np.testing.assert_array_equal(back.cells, m.cells)


def test_off_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("NOPE\n3 1 0\n")
    with pytest.raises(ValueError):
        read_off(bad)
    arity = tmp_path / "arity.off"
    arity.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n")
    with pytest.raises(ValueError):
        read_off(arity)
    for name, text, message in (
        ("negative", "OFF\n-1 1 0\n3 0 1 2\n", "header declares -1 vertices and 1 cells"),
        ("wide", "OFF\n3 1 0\n0 0 0\n1 0 0 5\n0 1 0\n3 0 1 2\n",
         "a vertex row does not hold 3 coordinates"),
        ("curve", "OFF\nDIM 1\n2 1 0\n0 0\n1 0 0\n2 0 1\n",
         "a vertex row does not hold 2 coordinates"),
    ):
        path = tmp_path / f"{name}.off"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_off(path)
    # face rows may carry colours after their indices
    colour = tmp_path / "colour.off"
    colour.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 255 0 0\n")
    assert read_off(colour).cells.tolist() == [[0, 1, 2]]


def test_off_rejects_short_files(tmp_path):
    # the last 5 of 80 face rows once loaded silently as an open 75-cell mesh
    path = tmp_path / "m.off"
    write_off(build_icosphere(1), path)
    rows = path.read_text().splitlines()
    path.write_text("\n".join(rows[:-5]) + "\n")
    with pytest.raises(ValueError, match="42 vertices and 80 cells, found 42 vertex and 75 cell"):
        read_off(path)
    path.write_text("\n".join(rows[:12]) + "\n")
    with pytest.raises(ValueError, match="42 vertices and 80 cells, found 10 vertex and 0 cell"):
        read_off(path)


@pytest.mark.parametrize("aspect", [1.0, 1.005, 1.2, 2.0])
def test_ellipsoid_curvature_bounds_are_closed_form(aspect):
    # Gaussian curvature of x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 at every vertex;
    # the icosphere has equator and pole vertices, so the extremes are sampled
    for normalize in (True, False):
        m = build_ellipsoid(aspect, 3, normalize=normalize)
        a, b, c = m.meta["semi_axes"]
        x, y, z = m.vertices.T
        s = x**2 / a**4 + y**2 / b**4 + z**2 / c**4
        curv = 1.0 / ((a * b * c) ** 2 * s**2)
        assert m.meta["min_curvature"] == pytest.approx(curv.min(), rel=1e-12)
        assert m.meta["max_curvature"] == pytest.approx(curv.max(), rel=1e-12)
    assert build_ellipsoid(aspect, 3).meta["min_curvature"] == 1.0


@pytest.mark.parametrize("level", [0, 2, 4])
def test_ellipsoid_stretches_the_icosphere_bitwise(level):
    ico = build_icosphere(level)
    for aspect in (1.0, 1.2, 2.0):
        for normalize in (True, False):
            m = build_ellipsoid(aspect, level, normalize=normalize)
            s = 1.0 / aspect if normalize else 1.0
            expected = ico.vertices * [s, s, s * aspect]
            assert m.vertices.tobytes() == expected.tobytes()
            assert np.array_equal(m.cells, ico.cells)


# ---------------------------------------------------------------------------
# edge keys


@st.composite
def _row_arrays(draw):
    nv = draw(st.integers(1, 40))
    width = draw(st.integers(1, 3))
    vertex = st.integers(0, nv - 1)
    rows = draw(st.lists(st.lists(vertex, min_size=width, max_size=width), max_size=60))
    # repeat some rows permuted, as the cells on an interior facet do
    again = draw(st.lists(st.sampled_from(rows), max_size=30)) if rows else []
    rows = rows + [draw(st.permutations(r)) for r in again]
    return nv, np.array(rows, dtype=np.int64).reshape(-1, width)


@settings(max_examples=200, deadline=None)
@given(_row_arrays())
def test_unique_edges_matches_axis0_unique(case):
    nv, rows = case
    ref, ref_inv, ref_counts = np.unique(
        np.sort(rows, axis=1), axis=0, return_inverse=True, return_counts=True
    )
    edges, counts = manifold._unique_edges(rows, nv)
    assert edges.dtype == ref.dtype and edges.shape == ref.shape
    assert np.array_equal(edges, ref)
    assert np.array_equal(counts, ref_counts)
    edges, inv = manifold._unique_edges(rows, nv, inverse=True)
    assert np.array_equal(edges, ref)
    assert inv.shape == (len(rows),)
    assert np.array_equal(inv, ref_inv.ravel())


def test_unique_edges_of_cell_faces_follow_the_combinations_blocks():
    cells = np.array([[0, 1, 2], [3, 2, 1]])
    faces, inv = manifold._unique_edges(cells, 4, 2, inverse=True)
    # blocks (0, 1), (0, 2), (1, 2) of each cell, as itertools.combinations gives them
    stacked = np.array([[0, 1], [3, 2], [0, 2], [3, 1], [1, 2], [2, 1]])
    assert np.array_equal(faces[inv], np.sort(stacked, axis=1))
    assert np.array_equal(faces, [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]])


# ---------------------------------------------------------------------------
# the simplex kernel


def _random_simplices(k, n=200, seed=0):
    x = np.random.default_rng(seed).normal(size=(n, k + 1, 3))
    return x, x[:, 1:] - x[:, :1]


def test_tetrahedron_kernel_against_the_determinant():
    x, e = _random_simplices(3)
    measure, grads = manifold.simplex_geometry(x, gradients=True)
    det = np.linalg.det(e)                  # rows are the edges x_i - x_0
    assert np.allclose(measure, np.abs(det) / 6.0, rtol=1e-12, atol=0.0)
    # grad lambda_i . (x_j - x_0) = delta_ij for i, j >= 1; lambda_0 = 1 - sum
    dots = np.einsum("nci,njc->nij", grads[:, :, 1:], e)
    scale = np.abs(grads).max(axis=(1, 2)) * np.abs(e).max(axis=(1, 2))
    assert np.all(np.abs(dots - np.eye(3)).max(axis=(1, 2)) <= 1e-12 * scale)
    assert np.all(np.abs(grads.sum(axis=2)).max(axis=1) <= 1e-12 * np.abs(grads).max(axis=(1, 2)))


@pytest.mark.parametrize("k, d", [(1, 1), (1, 4), (2, 2), (2, 4), (3, 4), (4, 4)])
def test_kernel_in_any_ambient_dimension_against_the_gram_determinant(k, d):
    x = np.random.default_rng(k + 10 * d).normal(size=(100, k + 1, d))
    e = x[:, 1:] - x[:, :1]
    measure, grads = manifold.simplex_geometry(x, gradients=True)
    gram = np.einsum("nic,njc->nij", e, e)
    assert np.allclose(measure, np.sqrt(np.linalg.det(gram)) / math.factorial(k), rtol=1e-9)
    dots = np.einsum("nci,njc->nij", grads[:, :, 1:], e)
    assert np.allclose(dots, np.eye(k), atol=1e-9)
    assert np.allclose(grads.sum(axis=2), 0.0, atol=1e-9 * np.abs(grads).max())


def test_triangle_kernel_is_the_cross_product_formula_bitwise():
    x, e = _random_simplices(2)
    measure, grads = manifold.simplex_geometry(x, gradients=True)
    n = np.cross(e[:, 0], e[:, 1])
    area2 = np.linalg.norm(n, axis=1)
    opposite = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    expected = np.cross(n[:, None] / area2[:, None, None], opposite) / area2[:, None, None]
    assert np.array_equal(measure, 0.5 * area2)
    assert np.array_equal(grads, expected.transpose(0, 2, 1))


def test_segment_kernel_against_length_and_t_over_t_squared():
    x, e = _random_simplices(1)
    t = e[:, 0]
    measure, grads = manifold.simplex_geometry(x, gradients=True)
    assert np.allclose(measure, np.sqrt((t * t).sum(axis=1)), rtol=1e-15, atol=0.0)
    expected = np.stack([-t, t], axis=2) / (t * t).sum(axis=1)[:, None, None]
    assert np.allclose(grads, expected, rtol=1e-15, atol=0.0)
    assert np.array_equal(manifold.simplex_geometry(x[:, ::-1]), measure)


def test_adjacency_has_unit_weights_on_positive_length_edges(ico2):
    adj = ico2.adjacency_matrix()
    assert adj.nnz == 2 * len(ico2.edges) and np.all(adj.data == 1.0)
    assert (adj != adj.T).nnz == 0
    ends = ico2.vertices[ico2.edges]
    assert np.all(np.linalg.norm(ends[:, 0] - ends[:, 1], axis=1) > 0.0)
