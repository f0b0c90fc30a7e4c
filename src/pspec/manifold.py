"""Discrete manifolds and exact cap geometry on the round model sphere.

Builds icospheres, prolate ellipsoids of revolution, intervals and circles as
lightweight index meshes carrying lumped vertex measures (1 / (n + 1) of the
measure of each incident n-simplex), all from one simplex kernel.
Geodesic caps on the unit sphere S^n, n in {1, 2}, are handled in closed form,
the cap radius of a given volume included, so volume matching is exact to
rounding.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

SPHERE_MEASURE = {1: 2.0 * np.pi, 2: 4.0 * np.pi}

MAX_LEVEL = 8
MAX_ASPECT = 2.0
MAX_SEGMENTS = 10 * 4**MAX_LEVEL     # no more curve vertices than the finest icosphere's

# AGM steps of spheroid_diameter; the AGM converges quadratically
_AGM_STEPS = 8


class Mesh:
    """Triangle surface (dimension 2) or polyline (dimension 1) mesh.

    Parameters
    ----------
    dimension : int
        Intrinsic dimension, 1 or 2.
    vertices : (nv, 3) float array
        Vertex positions. 1-D meshes are embedded in the plane z = 0.
    cells : (nc, 3) or (nc, 2) int array
        Triangles or segments as vertex index rows.
    meta : dict, optional
        Provenance (builder name, level, aspect, curvature bounds, ...).

    Derived attributes: ``cell_measure``, ``vertex_measure`` (lumped),
    ``edges``, ``closed`` and ``boundary_vertices``.
    The mesh must be connected with strictly positive cell measures.
    """

    def __init__(self, dimension, vertices, cells, meta=None):
        if dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {dimension}")
        vertices = np.asarray(vertices, dtype=float)
        cells = np.asarray(cells, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must be (nv, 3)")
        if cells.ndim != 2 or cells.shape[1] != dimension + 1:
            raise ValueError(f"cells must be (nc, {dimension + 1})")
        if cells.min(initial=0) < 0 or cells.max(initial=-1) >= len(vertices):
            raise ValueError("cell indices out of range")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertex coordinates must be finite")

        self.dimension = dimension
        self.vertices = vertices
        self.cells = cells
        self.meta = dict(meta) if meta else {}

        self.cell_measure = simplex_geometry(np.take(vertices, cells, axis=0))
        if not np.all(self.cell_measure > 0.0):
            raise ValueError("degenerate cell with nonpositive measure")

        nv = len(vertices)
        w = np.repeat(self.cell_measure / (dimension + 1), dimension + 1)
        self.vertex_measure = np.bincount(cells.ravel(), weights=w, minlength=nv)

        rel = abs(self.vertex_measure.sum() - self.cell_measure.sum())
        if rel > 1e-12 * self.cell_measure.sum():
            raise AssertionError("lumped vertex measure does not add up")

        # a facet (a cell less one vertex) lies on two cells inside, one on the
        # boundary; on a surface the facets are the edges, keyed once
        faces = {w: _unique_edges(cells, nv, w) for w in {2, dimension}}
        self.edges = faces[2][0]

        facets, counts = faces[dimension]
        if counts.max() > 2:
            raise ValueError("non-manifold facet (more than two incident cells)")
        self.closed = bool(counts.min() == 2)
        self.boundary_vertices = np.unique(facets[counts == 1])

        ncomp, _ = connected_components(self.adjacency_matrix(), directed=False)
        if ncomp != 1:
            raise ValueError(f"mesh is not connected ({ncomp} components)")

    def adjacency_matrix(self):
        """Symmetric sparse vertex adjacency with unit weights: an entry is
        nonzero exactly when an edge joins the two vertices."""
        if not hasattr(self, "_adj"):
            i, j = self.edges[:, 0], self.edges[:, 1]
            nv = len(self.vertices)
            self._adj = csr_matrix(
                (
                    np.ones(2 * len(i)),
                    (np.concatenate([i, j]), np.concatenate([j, i])),
                ),
                shape=(nv, nv),
            )
        return self._adj

    def scaled(self, c):
        """Return a copy with all vertex positions multiplied by c > 0.

        Lengths in the meta (``radius``, ``scale``, ``semi_axes`` and the
        interval ends ``a``, ``b``) scale by c and curvature bounds by
        1 / c^2; an ellipsoid stays ``normalized`` only when c == 1.
        """
        if c <= 0:
            raise ValueError("scale factor must be positive")
        meta = dict(self.meta)
        meta["scaled_by"] = c * meta.get("scaled_by", 1.0)
        for key in ("radius", "scale", "a", "b"):
            if key in meta:
                meta[key] = meta[key] * c
        if "semi_axes" in meta:
            meta["semi_axes"] = tuple(s * c for s in meta["semi_axes"])
        if "normalized" in meta:
            meta["normalized"] = meta["normalized"] and c == 1
        for key in ("min_curvature", "max_curvature"):
            if key in meta:
                meta[key] = meta[key] / c**2
        return Mesh(self.dimension, self.vertices * c, self.cells, meta)

    def __repr__(self):
        kind = self.meta.get("kind", "mesh")
        return (
            f"<Mesh {kind} dim={self.dimension} nv={len(self.vertices)} "
            f"nc={len(self.cells)} closed={self.closed}>"
        )


def total_measure(mesh):
    """Total H^n measure (area for n=2, length for n=1)."""
    return float(mesh.cell_measure.sum())


def beta(mesh):
    """Measure ratio H^n(M) / H^n(S^n) against the unit model sphere.

    Only defined for closed meshes; an open mesh raises ValueError.
    """
    if not mesh.closed:
        raise ValueError("beta is defined for closed meshes only")
    return total_measure(mesh) / SPHERE_MEASURE[mesh.dimension]


def simplex_geometry(x, gradients=False):
    """Measures of the k-simplices x (nc, k + 1, d), k <= d, and with
    ``gradients`` also their barycentric gradients (nc, d, k + 1).

    For W = e_1 ^ ... ^ e_k, e_i = x_i - x_0, |W| = sqrt(det E^T E) and the
    measure is |W| / k!. With n = *W / |W| and F_i the wedge of the edges of
    the facet opposite vertex i, walked cyclically from vertex i + 1,
    grad lambda_i = (-1)^(k (i + 1 + d - k)) *(n ^ F_i) / |W|. In R^3 this is
    the unit normal of a triangle crossed with the opposite edge over twice
    the area, with the cross product's own operations, so surface measures
    and gradients are bitwise those of the cross-product formula.
    """
    k, d = x.shape[1] - 1, x.shape[2]
    normal = _star_wedge(d, [x[:, i] - x[:, 0] for i in range(1, k + 1)])
    size = np.sqrt(sum(v * v for _, v in sorted(normal.items())))
    if not gradients:
        return size / math.factorial(k)
    unit, grads = {key: v / size for key, v in normal.items()}, []
    for i in range(k + 1):
        ring = [x[:, (i + j) % (k + 1)] for j in range(1, k + 1)]
        g = _star_wedge(d, [v - ring[0] for v in ring[1:]], unit)
        grads.append((-1) ** (k * (i + 1 + d - k)) * np.column_stack([g[(c,)] for c in range(d)]))
    return size / math.factorial(k), np.stack(grads, axis=2) / size[:, None, None]


def _star_wedge(d, vectors, form=None):
    """Hodge dual of form ^ v_1 ^ ... ^ v_m on R^d for (nc, d) vectors v_j; a
    form is held as {sorted axes: components}, and ``form`` defaults to 1."""
    factors = [(form or {(): 1.0}).items()] + [[((c,), v[:, c]) for c in range(d)] for v in vectors]
    out = {}
    for terms in itertools.product(*factors):
        axes = sum((a for a, _ in terms), ())
        rest = tuple(c for c in range(d) if c not in axes)
        if len(axes) + len(rest) == d:          # no axis repeats
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(axes + rest, 2))
            term = sign * math.prod(v for _, v in terms)
            out[rest] = out[rest] + term if rest in out else term
    return out


def _unique_edges(cells, nv, width=None, inverse=False):
    """Distinct sorted ``width``-vertex faces of the index rows ``cells`` (the
    rows themselves by default), stacked in itertools.combinations blocks: as
    ``np.unique(np.sort(faces, 1), axis=0)``, from one 1-D ``np.unique`` of the
    keys sum face[j] nv^(width - 1 - j), which order like the sorted faces.
    Returns (faces, counts), or (faces, inverse) with ``inverse``.
    """
    cells = np.asarray(cells, dtype=np.int64)
    subsets = itertools.combinations(range(cells.shape[1]), width or cells.shape[1])
    cols = list(np.concatenate([cells[:, list(c)] for c in subsets]).T)
    for i in range(len(cols) - 1, 0, -1):               # bubble-sort network
        for j in range(i):
            cols[j : j + 2] = np.minimum(*cols[j : j + 2]), np.maximum(*cols[j : j + 2])
    key = functools.reduce(lambda acc, col: acc * nv + col, cols)
    keys, extra = np.unique(key, return_inverse=inverse, return_counts=not inverse)
    return np.column_stack([keys // nv**p % nv for p in reversed(range(len(cols)))]), extra


def spheroid_diameter(semi_axes):
    """Exact diameter of the prolate spheroid with semi-axes (a, a, c), c >= a.

    The diameter is the pole-to-pole half meridian, 2 c E(1 - a^2 / c^2),
    with E the complete elliptic integral of the second kind. E comes from
    the arithmetic-geometric mean (DLMF 19.8(i)): E(m) = K(m) (1 - sum of
    2^(n-1) c_n^2), K(m) = pi / (2 AGM(1, sqrt(1 - m))). A fixed
    ``_AGM_STEPS`` steps are taken, which reach rounding for c / a up to
    10^6. Takes ``mesh.meta["semi_axes"]`` of :func:`build_ellipsoid` or
    :func:`build_icosphere`; (r, r, r) gives pi r exactly.
    """
    a, b, c = (float(s) for s in semi_axes)
    if not 0.0 < a == b <= c:
        raise ValueError(f"semi-axes {semi_axes} are not those of a prolate spheroid")
    m = 1.0 - a**2 / c**2
    an, gn, cn = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    weight = 0.5
    total = weight * cn * cn
    for _ in range(_AGM_STEPS):
        an, gn, cn = 0.5 * (an + gn), math.sqrt(an * gn), 0.5 * (an - gn)
        weight *= 2.0
        total += weight * cn * cn
    ellipe = 0.5 * math.pi / an * (1.0 - total)
    return 2.0 * c * ellipe


# ---------------------------------------------------------------------------
# geodesic caps on the unit model sphere


def cap_volume(r, n):
    """H^n measure of the geodesic cap of radius r on the unit S^n."""
    _check_model_dim(n)
    r = np.asarray(r, dtype=float)
    if np.any(r < -1e-12) or np.any(r > np.pi + 1e-12):
        raise ValueError("cap radius outside [0, pi]")
    out = 4.0 * np.pi * np.sin(0.5 * r) ** 2 if n == 2 else 2.0 * r
    return float(out) if out.ndim == 0 else out


def cap_boundary(r, n):
    """H^{n-1} measure of the cap boundary sphere (counting measure for n=1)."""
    _check_model_dim(n)
    r = np.asarray(r, dtype=float)
    if np.any(r < -1e-12) or np.any(r > np.pi + 1e-12):
        raise ValueError("cap radius outside [0, pi]")
    if n == 2:
        out = 2.0 * np.pi * np.sin(r)
    else:
        interior = (r > 0.0) & (r < np.pi)
        out = np.where(interior, 2.0, 0.0)
    return float(out) if out.ndim == 0 else out


def cap_radius(v, n):
    """Inverse of cap_volume in closed form: 2 arcsin(sqrt(v / 4 pi)), or v / 2."""
    _check_model_dim(n)
    v = np.asarray(v, dtype=float)
    full = SPHERE_MEASURE[n]
    if np.any(v < -1e-9 * full) or np.any(v > full * (1.0 + 1e-9)):
        raise ValueError("cap volume outside [0, measure of S^n]")
    v = np.clip(v, 0.0, full)
    out = 2.0 * np.arcsin(np.sqrt(v / full)) if n == 2 else 0.5 * v
    return float(out) if out.ndim == 0 else out


def _check_model_dim(n):
    if n not in (1, 2):
        raise ValueError(f"model sphere dimension must be 1 or 2, got {n}")


# ---------------------------------------------------------------------------
# builders


def _icosahedron():
    # pole-oriented icosahedron: two vertices on the z axis, mirror rings at
    # z = +-1/sqrt(5). Ring z values are exact negations so that midpoint
    # subdivision produces a ring of vertices with z == 0.0 exactly.
    w = 1.0 / np.sqrt(5.0)
    rho = 2.0 / np.sqrt(5.0)
    au = 2.0 * np.pi * np.arange(5) / 5.0
    al = au + np.pi / 5.0
    verts = np.vstack(
        [
            [0.0, 0.0, 1.0],
            np.column_stack([rho * np.cos(au), rho * np.sin(au), np.full(5, w)]),
            np.column_stack([rho * np.cos(al), rho * np.sin(al), np.full(5, -w)]),
            [0.0, 0.0, -1.0],
        ]
    )
    faces = []
    for k in range(5):
        k1 = (k + 1) % 5
        u, u1, l, l1 = 1 + k, 1 + k1, 6 + k, 6 + k1
        faces += [(0, u, u1), (u, l, u1), (u1, l, l1), (11, l1, l)]
    return verts, np.array(faces, dtype=np.int64)


def _subdivide(verts, faces):
    edges, inv = _unique_edges(faces, len(verts), 2, inverse=True)
    mid = 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])
    m01, m02, m12 = (len(verts) + inv).reshape(3, -1)
    v0, v1, v2 = faces[:, 0], faces[:, 1], faces[:, 2]
    new_faces = np.concatenate(
        [
            np.column_stack([v0, m01, m02]),
            np.column_stack([v1, m12, m01]),
            np.column_stack([v2, m02, m12]),
            np.column_stack([m01, m12, m02]),
        ]
    )
    return np.vstack([verts, mid]), new_faces


def _check_level(level):
    if not isinstance(level, (int, np.integer)):
        raise ValueError("subdivision level must be an integer")
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"subdivision level must be in [0, {MAX_LEVEL}]")


def _unit_icosphere(level):
    """(verts, faces) of the icosahedron subdivided ``level`` times on S^2."""
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
        verts /= np.linalg.norm(verts, axis=1)[:, None]
    return verts, faces


def build_icosphere(level, radius=1.0):
    """Subdivided icosahedron projected to the sphere of the given radius.

    Level 0 is the icosahedron itself (12 vertices, 20 faces); each level
    quadruples the face count. The mesh is pole oriented: for level >= 1 a
    closed ring of vertices lies exactly on the equator z = 0. The meta
    records the semi-axes (radius, radius, radius) and the curvature bounds
    of the smooth sphere, both 1 / radius^2.
    """
    _check_level(level)
    if radius <= 0:
        raise ValueError("radius must be positive")
    r = float(radius)
    verts, faces = _unit_icosphere(level)
    verts = verts * radius
    meta = {"kind": "icosphere", "level": int(level), "radius": r, "semi_axes": (r, r, r)}
    meta.update(min_curvature=1.0 / r**2, max_curvature=1.0 / r**2)
    return Mesh(2, verts, faces, meta)


def build_ellipsoid(aspect, level, normalize=True):
    """Prolate ellipsoid of revolution x^2 + y^2 + z^2/aspect^2 = scale^2.

    Starts from the unit icosphere and stretches the z axis by ``aspect``
    (1 <= aspect <= 2). Gaussian curvature runs from 1/aspect^2 on the
    equator to aspect^2 at the poles; with ``normalize`` the mesh is scaled
    by 1/aspect, which makes the minimum exactly 1 and the maximum
    aspect^4. The curvature bounds and the applied scale land in
    ``mesh.meta``.
    """
    _check_level(level)
    if not 1.0 <= aspect <= MAX_ASPECT:
        raise ValueError(f"aspect must be in [1, {MAX_ASPECT}]")
    aspect = float(aspect)
    scale = 1.0 / aspect if normalize else 1.0
    verts, faces = _unit_icosphere(level)
    verts = verts * [scale, scale, scale * aspect]
    meta = {
        "kind": "ellipsoid",
        "level": int(level),
        "aspect": aspect,
        "normalized": bool(normalize),
        "scale": scale,
        "semi_axes": (scale, scale, scale * aspect),
        "min_curvature": 1.0 if normalize else aspect**-2,
        "max_curvature": aspect**4 if normalize else aspect**2,
    }
    return Mesh(2, verts, faces, meta)


def build_interval(segments, a=0.0, b=1.0):
    """Uniform 1-D mesh of the interval [a, b] along the x axis."""
    if not 1 <= segments <= MAX_SEGMENTS:
        raise ValueError(f"interval segments must be in [1, {MAX_SEGMENTS}]")
    if not b > a:
        raise ValueError("empty interval")
    x = np.linspace(a, b, segments + 1)
    verts = np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])
    cells = np.column_stack([np.arange(segments), np.arange(1, segments + 1)])
    return Mesh(1, verts, cells, {"kind": "interval", "a": a, "b": b})


def build_circle(segments, radius=1.0):
    """Closed regular polygon inscribed in the circle of the given radius."""
    if not 3 <= segments <= MAX_SEGMENTS:
        raise ValueError(f"circle segments must be in [3, {MAX_SEGMENTS}]")
    if radius <= 0:
        raise ValueError("radius must be positive")
    t = 2.0 * np.pi * np.arange(segments) / segments
    verts = np.column_stack([radius * np.cos(t), radius * np.sin(t), np.zeros(segments)])
    cells = np.column_stack([np.arange(segments), (np.arange(segments) + 1) % segments])
    return Mesh(1, verts, cells, {"kind": "circle", "radius": float(radius)})


# ---------------------------------------------------------------------------
# vertex subdomains


class Domain:
    """Vertex subdomain of a mesh with homogeneous Dirichlet boundary.

    ``interior`` is a boolean vertex mask. Cells touching at least one
    interior vertex belong to the domain; closure vertices that are not
    interior form the constrained boundary ring.
    """

    def __init__(self, mesh, interior):
        interior = np.asarray(interior, dtype=bool)
        if interior.shape != (len(mesh.vertices),):
            raise ValueError("interior mask has wrong length")
        if not interior.any():
            raise ValueError("empty domain interior")
        sub = mesh.adjacency_matrix()[interior][:, interior]
        ncomp, _ = connected_components(sub, directed=False)
        if ncomp != 1:
            raise ValueError(f"domain interior is not connected ({ncomp} components)")

        self.mesh = mesh
        self.interior = interior
        touched = interior[mesh.cells].any(axis=1)
        self.cells = np.flatnonzero(touched)
        closure = np.unique(mesh.cells[self.cells])
        self.boundary_vertices = closure[~interior[closure]]

        if interior.all():
            if not mesh.closed:
                raise ValueError("whole-mesh domain requires a closed mesh")
        elif len(self.boundary_vertices) == 0:
            raise AssertionError("proper subdomain without boundary trace")

    @property
    def interior_indices(self):
        return np.flatnonzero(self.interior)

    def __repr__(self):
        return (
            f"<Domain {int(self.interior.sum())} interior / "
            f"{len(self.mesh.vertices)} vertices, "
            f"{len(self.boundary_vertices)} on the boundary>"
        )


def superlevel_domain(mesh, values, t):
    """Domain spanned by the vertices with values strictly above t."""
    values = np.asarray(values, dtype=float)
    return Domain(mesh, values > t)


def hemisphere_domain(mesh):
    """Upper half domain {z > 0}; exact on pole-oriented builder meshes."""
    return superlevel_domain(mesh, mesh.vertices[:, 2], 0.0)


def interior_domain(mesh):
    """All non-boundary vertices of an open mesh (e.g. the interval)."""
    if mesh.closed:
        raise ValueError("interior_domain expects a mesh with boundary")
    mask = np.ones(len(mesh.vertices), dtype=bool)
    mask[mesh.boundary_vertices] = False
    return Domain(mesh, mask)


# ---------------------------------------------------------------------------
# OFF persistence ("DIM 1" header extension for 1-D meshes)


def write_off(mesh, path):
    """Write the mesh as ASCII OFF; 1-D meshes get a DIM 1 header line."""
    lines = ["OFF"]
    if mesh.dimension == 1:
        lines.append("DIM 1")
        coords = mesh.vertices[:, :2]
    else:
        coords = mesh.vertices
    lines.append(f"{len(mesh.vertices)} {len(mesh.cells)} 0")
    fmt = " ".join(["%.17g"] * coords.shape[1])
    lines += [fmt % tuple(row) for row in coords]
    k = mesh.cells.shape[1]
    lines += [("%d " % k) + " ".join(str(i) for i in row) for row in mesh.cells]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_off(path):
    """Read a mesh written by write_off. A file that is not one raises
    ValueError naming it: no OFF header or counts, a DIM other than 1 or 2, a
    negative or non-numeric entry, a vertex row not of 3 coordinates (2 under
    DIM 1), a face row not of arity DIM + 1 or short of it, missing rows or
    cells that Mesh rejects."""
    with open(path) as f:
        rows = [t for t in (ln.split("#", 1)[0].split() for ln in f) if t]

    def numbers(kind, row, what, part=slice(None)):
        try:
            return [kind(v) for v in row[part]]
        except ValueError:
            raise ValueError(f"{path}: {what} row {' '.join(row)!r} is not numeric") from None

    if not rows or rows[0][0] != "OFF":
        raise ValueError(f"{path}: missing OFF header")
    rows = rows[1:]
    dimension = 2
    if rows and rows[0][0] == "DIM":
        if rows[0][1:] not in (["1"], ["2"]):
            raise ValueError(f"{path}: DIM must be 1 or 2, got {' '.join(rows[0][1:])!r}")
        dimension = int(rows[0][1])
        rows = rows[1:]
    if not rows or len(rows[0]) < 2:
        raise ValueError(f"{path}: missing vertex and cell counts")
    nv, nc = numbers(int, rows[0], "count", slice(2))
    if nv < 0 or nc < 0:
        raise ValueError(f"{path}: header declares {nv} vertices and {nc} cells")
    rows = rows[1:]
    if len(rows) < nv + nc:
        raise ValueError(f"{path}: header declares {nv} vertices and {nc} cells, found "
                         f"{min(nv, len(rows))} vertex and {max(len(rows) - nv, 0)} cell rows")
    width = 2 if dimension == 1 else 3
    if any(len(r) != width for r in rows[:nv]):
        raise ValueError(f"{path}: a vertex row does not hold {width} coordinates")
    coords = np.array([numbers(float, r, "vertex") for r in rows[:nv]])
    if dimension == 1:
        coords = np.column_stack([coords, np.zeros(nv)])
    cells = []
    for r in rows[nv : nv + nc]:
        k = numbers(int, r, "face", slice(1))[0]
        if k != dimension + 1:
            raise ValueError(f"{path}: cell arity {k} does not match dimension")
        if len(r) < 1 + k:
            raise ValueError(f"{path}: a face row holds fewer than {k} vertex indices")
        cells.append(numbers(int, r, "face", slice(1, 1 + k)))
    try:
        return Mesh(dimension, coords, np.array(cells, dtype=np.int64))
    except ValueError as exc:               # out-of-range indices, degenerate cells, ...
        raise ValueError(f"{path}: {exc}") from None
