"""First eigenvalues of the p-Laplacian on meshes and radial model problems.

Fields are piecewise linear over mesh cells; the p-Dirichlet energy uses the
constant per-cell gradient (one sparse operator G) and masses are vertex
lumped, so the Rayleigh quotient is a ratio of plain weighted sums.
Shift-invert Lanczos on the linear p = 2 pencil gives, once per closed mesh
or Domain, a start pinned inside the first eigenvalue cluster; every
exponent, p = 2 included, descends from it at the target p, running
(K + M)^-1-preconditioned nonlinear conjugate gradients on log(energy) -
log(mass) with an interpolating Armijo line search. The closed-manifold
problem projects onto the zero mean constraint of the p-Laplacian
(integral of |u|^{p-2} u vanishes) by safeguarded Newton after every step.

solve_radial_1d provides the independent 1-D reference values: the
interval's in closed form, the hemisphere's by shooting. Its integrator and
root finder are in-module ports of SciPy's DOP853 and brentq, so the
package imports neither scipy.integrate nor scipy.optimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.csgraph import connected_components
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .manifold import Domain, Mesh, simplex_geometry

P_MIN = 1.1
P_MAX = 10.0


def check_p(p):
    """Validate the p exponent; supported range is [1.1, 10]."""
    p = float(p)
    if not P_MIN <= p <= P_MAX:
        raise ValueError(f"p exponent must lie in [{P_MIN}, {P_MAX}], got {p}")
    return p


class ScalarField:
    """Vertex values over a mesh."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (len(mesh.vertices),):
            raise ValueError("field length does not match vertex count")
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        self.mesh = mesh
        self.values = values


def coordinate_field(mesh, axis=2):
    """The ambient coordinate restricted to the mesh (z by default)."""
    return ScalarField(mesh, mesh.vertices[:, axis].copy())


_TOL = 1e-9                 # relative Rayleigh change per iteration
_STALL = 10                 # consecutive quiet iterations to declare done
_MAX_ITERS = 50000          # total accepted descent steps per solve
_MAX_BACKTRACKS = 40
_ARMIJO = 1e-4              # sufficient decrease constant c1 of the line search
# Each trial's log E - log M carries a few eps of rounding (the two sums and
# the two logs of O(1) values), so a predicted decrease of two such errors
# cannot be told from noise: the line search ends there.
_FLOOR = 8.0 * float(np.finfo(float).eps)
_P2_CLUSTER = 1e-8          # relative width of the first p = 2 eigenvalue cluster
_P2_RESIDUAL_TOL = 1e-8     # relative residual of a converged p = 2 start


@dataclass
class EigenResult:
    """First eigenvalue solve outcome.

    ``lam`` equals the Rayleigh quotient of ``field`` exactly as evaluated by
    :func:`rayleigh_quotient`; ``residual`` is the relative Rayleigh change of
    the last accepted descent step (0.0 when the descent took none) and
    ``constraint_residual`` the closed-manifold constraint defect (None for
    Dirichlet problems). ``iterations`` counts descent steps; the LU solves
    of the p = 2 start, shared by all exponents, are ``p2_iterations``.
    ``diagnostics["grad_norm"]`` is sqrt(g^T (K + M)^-1 g), g the gradient of
    log energy - log mass at ``field`` over the free vertices: it vanishes
    at a critical point, which a zero ``residual`` does not show. Closed
    solves also record ``diagnostics["projection_evals"]``, the defect
    evaluations (each D and D') of all their Newton projections.
    """

    lam: float
    field: ScalarField
    residual: float
    constraint_residual: float | None
    iterations: int
    converged: bool
    p: float
    diagnostics: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# piecewise-linear element operators


class _Operators:
    """Everything a solve over one set of unknowns needs: ``grad_op`` G (3
    rows per cell, one column per unknown, CSR) maps the unknowns to the
    ambient gradient of each cell, row 3c + i; ``cellw`` and ``mass`` are the
    cell and unknown measures; ``closed`` unknowns of a ``dim``-dimensional
    mesh carry the zero mean constraint. The adjoint G^T in CSR form, the
    stiffness K, the K + M factorization and the p = 2 start are built on
    first use and kept."""

    def __init__(self, grad_op, cellw, mass, closed, dim):
        self.grad_op = grad_op
        self.cellw = cellw
        self.mass = mass
        self.closed = closed
        self.dim = dim

    def restricted(self, cells, free):
        """The same functionals for fields vanishing off ``free``: the rows
        of ``cells``, which must hold every cell touching a free vertex, and
        the ``free`` columns; zero values drop out of the products."""
        rows = (3 * cells[:, None] + np.arange(3)).ravel()
        G = self.grad_op[rows][:, free]
        return _Operators(G, self.cellw[cells], self.mass[free], False, self.dim)

    @cached_property
    def grad_op_t(self):
        # products bitwise those of the CSC view grad_op.T, in half the time
        return self.grad_op.T.tocsr()

    @cached_property
    def stiffness(self):
        G = self.grad_op
        return (G.T @ diags(np.repeat(self.cellw, 3)) @ G).tocsr()

    @cached_property
    def lu(self):
        return splu((self.stiffness + diags(self.mass)).tocsc())

    @cached_property
    def p2_start(self):
        return _p2_init(self)

    def gradients(self, u):
        return (self.grad_op @ u).reshape(-1, 3)

    def energy_mass(self, u, p, g=None, mass=None):
        """(energy, mass, g, base, q) of ``u``: cell gradients g and p-mass as
        given or taken here, base = |g|^2 and q = base^(p/2) per cell."""
        if g is None:
            g = self.gradients(u)
        sq = g * g                          # half the time of an einsum
        base = sq[:, 0] + sq[:, 1] + sq[:, 2]
        q = base ** (p / 2.0)
        energy = float(self.cellw @ q)
        if mass is None:
            mass = float(self.mass @ np.abs(u) ** p)
        return energy, mass, g, base, q

    def grad_log_quotient(self, u, p, energy, mass, g, base, q):
        gamma = np.divide(q, base, out=np.zeros_like(q), where=base > 0.0)  # base^((p-2)/2)
        dE = p * (self.grad_op_t @ ((self.cellw * gamma)[:, None] * g).ravel())
        dM = p * self.mass * np.sign(u) * np.abs(u) ** (p - 1.0)
        return dE / energy - dM / mass


def _fem(mesh):
    """The P1 operators of a mesh over all its vertices, kept on the mesh."""
    if hasattr(mesh, "_fem_ops"):
        return mesh._fem_ops
    V, C = mesh.vertices, mesh.cells
    gp = simplex_geometry(np.take(V, C, axis=0), gradients=True)[1]
    nc, k = C.shape                             # gp: (cell, component, local vertex)
    G = csr_matrix(
        (gp.ravel(), np.repeat(C, 3, axis=0).ravel(), np.arange(0, 3 * nc * k + 1, k)),
        shape=(3 * nc, len(V)),
    )
    mesh._fem_ops = _Operators(
        G, mesh.cell_measure, mesh.vertex_measure, mesh.closed, mesh.dimension
    )
    return mesh._fem_ops


def rayleigh_quotient(field, region, p):
    """p-Rayleigh quotient: cellwise gradient p-energy over lumped p-mass.

    ``region`` is a closed Mesh or a Domain of the field's mesh; for a
    Domain the field is masked to zero outside the interior, which realizes
    the homogeneous Dirichlet condition. Zero fields are rejected.
    """
    p = check_p(p)
    u, fem = _region_values(field, region)
    energy, mass = fem.energy_mass(u, p)[:2]
    if mass == 0.0:
        raise ValueError("Rayleigh quotient of the zero field")
    return energy / mass


def _region_values(field, region):
    if isinstance(region, Domain):
        if region.mesh is not field.mesh:
            raise ValueError("domain does not belong to the field's mesh")
        u = np.where(region.interior, field.values, 0.0)
        return u, _fem(region.mesh)
    if isinstance(region, Mesh):
        if region is not field.mesh:
            raise ValueError("region mesh does not match the field's mesh")
        if not region.closed:
            raise ValueError("whole-mesh quotient requires a closed mesh")
        return field.values, _fem(region)
    raise TypeError("region must be a Mesh or a Domain")


# ---------------------------------------------------------------------------
# constraint projection and nodal counting

_RTOL = 4.0 * float(np.finfo(float).eps)    # brentq's default relative tolerance
_MAX_PROJECTION_EVALS = 100


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """(root, evaluations of f): Brent's (1973) method on the bracket [a, b].

    A line-for-line port of SciPy's C ``brentq``, with its checks: a NaN
    value of f or a bracket without a sign change raises ValueError, and no
    convergence within ``maxiter`` steps raises RuntimeError.
    """

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    calls = 2
    if fpre == 0.0:
        return xpre, calls
    if fcur == 0.0:
        return xcur, calls
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, calls
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                           # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
        calls += 1
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


def project_constraint(field, p, evals=None):
    """Subtract the scalar c with integral of |u-c|^{p-2}(u-c) equal zero.

    The defect D is strictly decreasing in c and changes sign over [min u,
    max u]. Newton on D, D'(c) = -(p-1) integral of |u-c|^{p-2}, starts at
    c = 0 when u changes sign (a field a small move from a feasible one) and
    mid-range otherwise; a step that leaves the sign bracket, fails to halve
    the step before last or meets an infinite D' (p < 2, a vertex at c) is
    a bisection instead. It stops on a step below 4 eps times the range, the
    field's own precision, and raises RuntimeError after 100 evaluations.
    Constant fields are rejected. A list ``evals``, if given, receives the
    number of defect evaluations.
    """
    p = check_p(p)
    return ScalarField(field.mesh, _project(field.values, field.mesh.vertex_measure, p, evals))


def _project(u, m, p, evals=None):
    # project_constraint on arrays: u - c for vertex values u and measures m.
    # One evaluation gives D(c) = m @ copysign(|u-c|^(p-1), u-c) and the
    # slope -D'(c) / (p-1) = m @ (|u-c|^(p-1) / |u-c|), which is NaN when a
    # vertex sits on c; a NaN Newton step fails the bracket test and bisects
    lo, hi = float(u.min()), float(u.max())
    if hi <= lo:
        raise ValueError("constraint projection of a constant field")
    tol = _RTOL * (hi - lo)
    d, a, w = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    c = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    step = older = hi - lo
    with np.errstate(invalid="ignore"):
        for calls in range(1, _MAX_PROJECTION_EVALS + 1):
            np.subtract(u, c, out=d)
            np.abs(d, out=a)
            np.power(a, p - 1.0, out=w)
            slope = float(m @ np.divide(w, a, out=a))
            value = float(m @ np.copysign(w, d, out=w))
            if value == 0.0:
                break
            lo, hi = (c, hi) if value > 0.0 else (lo, c)
            new = c + value / ((p - 1.0) * slope)
            if not (lo <= new <= hi and abs(new - c) <= 0.5 * abs(older)):
                new = 0.5 * (lo + hi)       # bisect
            older, step, c = step, new - c, new
            if abs(step) <= tol:
                break
        else:
            raise RuntimeError(f"constraint projection failed to converge, c = {c}")
    if evals is not None:
        evals.append(calls)
    return u - c


def constraint_residual(field, p):
    """Absolute value of the closed-manifold constraint integral."""
    u = field.values
    return float(abs(field.mesh.vertex_measure @ (np.sign(u) * np.abs(u) ** (p - 1.0))))


def nodal_domains(field):
    """Connected components of {u > 0} and {u < 0} in vertex adjacency.

    Returns (count, labels); vertices with u == 0 get label -1.
    """
    mesh = field.mesh
    u = field.values
    adj = mesh.adjacency_matrix()
    labels = np.full(len(u), -1, dtype=np.int64)
    count = 0
    for mask in (u > 0.0, u < 0.0):
        idx = np.flatnonzero(mask)
        if len(idx) == 0:
            continue
        k, lab = connected_components(adj[idx][:, idx], directed=False)
        labels[idx] = lab + count
        count += k
    return count, labels


# ---------------------------------------------------------------------------
# eigensolvers


def _p2_init(ops):
    """The p = 2 start over the unknowns of ``ops`` and its diagnostics.

    The k smallest eigenpairs of (K, M) come from shift-invert Lanczos about
    sigma = -1 (``eigsh``, ``ops.lu`` as the inverse, a fixed cos(0),
    cos(1), ... start) or, below ARPACK's 2k + 1 Lanczos vectors, from dense
    ``eigh``; a closed mesh drops its constant mode. k = n + 2 on a closed
    n-dimensional mesh (the constant and the (n + 1)-fold first cluster of
    the round n-sphere) and 3 on a Dirichlet one: a pair beyond the cluster
    would land in the slow fivefold second cluster of a round surface (93 LU
    solves at level 4, against 51), and the cluster test needs none. The
    start is the M-projection of the cos vector onto eigenvalues within a
    relative 1e-8 of the smallest (the limit of inverse iteration from it);
    it is read-only, and ``ops.p2_start`` keeps it for every exponent.
    ``p2_converged``: |Kx - lam Mx| <= 1e-8 lam |Mx|.
    """
    K, m, closed = ops.stiffness, ops.mass, ops.closed
    c = np.cos(np.arange(len(m)))
    k = ops.dim + 2 if closed else 3
    solves = 0

    def apply_inverse(x):
        nonlocal solves
        solves += 1
        return ops.lu.solve(x)

    if len(m) < 2 * k + 1:
        lam, vecs = eigh(K.toarray(), np.diag(m))
    else:                                   # eigsh sorts eigenpairs ascending
        op = LinearOperator(K.shape, matvec=apply_inverse, dtype=float)
        lam, vecs = eigsh(K, k, M=diags(m), sigma=-1.0, OPinv=op, v0=c)
    lam, vecs = lam[int(closed):], vecs[:, int(closed):]
    basis = vecs[:, lam <= lam[0] * (1.0 + _P2_CLUSTER)]    # M-orthonormal
    v = basis @ (basis.T @ (m * c))         # M-orthogonal to constants too
    v /= np.sqrt(m @ v**2)
    Kv = K @ v
    lam2 = float(v @ Kv)
    residual = float(np.linalg.norm(Kv - lam2 * m * v) / (lam2 * np.linalg.norm(m * v)))
    v.flags.writeable = False
    info = {
        "p2_lambda": lam2,
        "p2_iterations": solves,
        "p2_converged": residual <= _P2_RESIDUAL_TOL,
        "p2_residual": residual,
        "p2_cluster": basis.shape[1],
    }
    return v, info


def _lp_normalize(u, mass, p):
    # (u / norm, norm, the p-mass of u / norm) for the L^p norm of u
    total = float(mass @ np.abs(u) ** p)
    norm = total ** (1.0 / p)
    return u / norm, norm, total / norm**p


def _descend(ops, u, p, defects):
    """Minimize log energy - log mass at fixed p by restarted nonlinear CG.

    ``u`` holds the values of the unknowns of ``ops``: every vertex of a
    closed mesh, or the free vertices of a Domain, whose ``ops`` carry only
    the domain's cells. d = -P g + beta d_prev, P = ``ops.lu`` = (K + M)^-1,
    with Gilbert and Nocedal's beta = max(0, min(beta_PR, beta_FR)) in the P
    inner product, is searched when beta > 0 and d descends; else -P g is,
    unchecked: P is SPD, so it descends wherever g != 0.

    The line search first tries t = min(2 t_prev, 4). When the parabola
    through f(0), the slope f'(0) and f(t) curves upward, its minimizer,
    clipped to [0.1 t, 4 t], is tried too; the lower of the trials that
    pass Armijo (c1 = 1e-4) is taken, and t is halved until one does. That
    step nears the line minimum that the PR/FR beta assumes. Iterates of
    ``ops.closed`` unknowns are re-projected onto the constraint.

    No trial is made whose predicted decrease -t g^T d is at or below
    ``_FLOOR``, the rounding of log energy - log mass: there a conjugate d
    gives way to -P g, and -P g stops on the ``"floor"``. The other
    converged stop, ``"stall"``, is ``_STALL`` consecutive steps with
    relative change below ``_TOL``. The first converged stop restarts the
    CG in place (u re-projected, G u afresh, beta = 0, t = 1); the second
    ends the descent, as do a line-search stall (``_MAX_BACKTRACKS``
    halvings, ``"line_search"``, converged if the last change is at most
    10 ``_TOL``) and ``_MAX_ITERS`` steps in all (``"budget"``). The info
    holds ``iters``, the trials ``evals``, ``stop``, ``converged``, the
    final ``rayleigh``, ``first_stop``, ``first_iters`` and ``residual``,
    the last step's relative change (0.0 without steps). Projections append
    their defect evaluation counts to ``defects``.

    G d is taken once per direction: the trial (u + t d - c) / norm has the
    cell gradients (G u + t G d) / norm, as G maps constants to zero, and the
    normalization's own p-mass.
    """

    def feasible(w):
        if ops.closed:
            w = _project(w, ops.mass, p, defects)
        return _lp_normalize(w, ops.mass, p)

    def probe(d, gd, t):
        nonlocal trials
        trials += 1
        unew, norm, m_new = feasible(u + t * d)
        trial = ops.energy_mass(unew, p, (g + t * gd) / norm, m_new)
        return np.log(trial[0]) - np.log(trial[1]), t, unew, trial

    def search(d, slope, t):
        # the trials along d that pass Armijo, backtracking from t: None once
        # the predicted decrease -t slope reaches _FLOOR, [] after
        # _MAX_BACKTRACKS halvings
        gd = ops.gradients(d)
        for _ in range(_MAX_BACKTRACKS):
            if -t * slope <= _FLOOR:
                return None
            first = probe(d, gd, t)
            passed = [first] if first[0] <= f0 + _ARMIJO * t * slope else []
            curvature = first[0] - f0 - t * slope   # the parabola's s^2 term at s = t
            if curvature > 0.0:
                tq = min(max(-0.5 * slope * t * t / curvature, 0.1 * t), 4.0 * t)
                second = probe(d, gd, tq)
                if second[0] <= f0 + _ARMIJO * tq * slope:
                    passed.append(second)
            if passed:
                return passed
            t *= 0.5
        return []

    u = feasible(u)[0]
    energy, mass, g, base, q = ops.energy_mass(u, p)
    t, streak, gpg_prev = 1.0, 0, None     # no previous direction: beta = 0
    iters, trials, rel, stop, first_stop, first_iters = 0, 0, np.inf, "budget", None, None
    while iters < _MAX_ITERS:
        rq = energy / mass
        grad = ops.grad_log_quotient(u, p, energy, mass, g, base, q)
        pg = ops.lu.solve(grad)
        gpg = float(grad @ pg)
        f0 = np.log(rq)
        t = min(2.0 * t, 4.0)
        passed = None
        if gpg_prev is not None:            # Gilbert-Nocedal PR/FR hybrid
            beta = max(0.0, min(gpg, gpg - float(grad @ pg_prev))) / gpg_prev
            if beta > 0.0:
                d = beta * d - pg
                slope = float(grad @ d)
                if slope < 0.0:
                    passed = search(d, slope, t)
        pg_prev, gpg_prev = pg, gpg
        if passed is None:                  # the floor is declared along -P g only
            d = -pg
            passed = search(d, -gpg, t)
        if passed == []:                    # line search stalled
            stop = "line_search"
            break
        if passed:
            _, t, u, (energy, mass, g, base, q) = min(passed, key=lambda trial: trial[0])
            rq_new = energy / mass
            if rq_new > rq * (1.0 + 1e-12):
                raise AssertionError("descent accepted an increasing Rayleigh step")
            rel = abs(rq - rq_new) / rq_new
            iters += 1
            streak = streak + 1 if rel < _TOL else 0
            if streak < _STALL:
                continue
        stop = "stall" if passed else "floor"
        if first_stop:                      # the second converged stop ends the descent
            break
        first_stop, first_iters, stop = stop, iters, "budget"   # the first restarts in place
        u = feasible(u)[0]
        energy, mass, g, base, q = ops.energy_mass(u, p)
        t, streak, gpg_prev = 1.0, 0, None
    converged = stop in ("stall", "floor") or stop == "line_search" and rel <= _TOL * 10.0
    return u, {"iters": iters, "evals": trials, "stop": stop, "converged": converged,
               "residual": rel if iters else 0.0, "rayleigh": energy / mass,
               "first_stop": first_stop, "first_iters": first_iters}


def _eigen_solve(region, p):
    """The one solver behind closed_eigen (a Mesh) and dirichlet_eigen (a Domain).

    A closed mesh frees every vertex and keeps iterates on the constraint; a
    Domain frees its interior and holds the rest at zero. Each region has
    one ``_Operators`` over its unknowns, which owns the K + M LU and the
    p = 2 start: a mesh's are kept on the mesh, a Domain's (its own cells
    and interior vertices) on the Domain, which drops its LU after every
    solve. Every step, the sign trim, the L^p normalization and
    ``grad_norm`` run on vectors over those unknowns; a Domain's result is
    scattered into a field that vanishes off the interior. ``converged``,
    ``iterations`` and ``residual`` are those of the descent from the p = 2
    start, and the rest of its info joins the start's diagnostics.
    """
    p = check_p(p)
    closed = isinstance(region, Mesh)
    mesh = region if closed else region.mesh
    if closed:
        ops = _fem(mesh)
    elif hasattr(region, "_fem_ops"):
        ops = region._fem_ops
    else:
        ops = region._fem_ops = _fem(mesh).restricted(region.cells, region.interior_indices)
    defects = []                            # defect evaluations per projection
    u, info = _descend(ops, ops.p2_start[0], p, defects)
    iterations, converged, residual = (info.pop(k) for k in ("iters", "converged", "residual"))
    diag = {**ops.p2_start[1], **info}
    if closed:
        u = _project(u, ops.mass, p, defects)
        diag["projection_evals"] = sum(defects)
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u
    neg = u < 0.0
    if not closed and neg.any() and abs(u[neg].min()) <= 1e-8 * u.max():
        u = np.where(neg, 0.0, u)  # trim sign noise from the constrained ring
    u = _lp_normalize(u, ops.mass, p)[0]
    grad = ops.grad_log_quotient(u, p, *ops.energy_mass(u, p))
    diag["grad_norm"] = math.sqrt(float(grad @ ops.lu.solve(grad)))
    if not closed:
        vars(ops).pop("lu", None)           # a Domain keeps its start, not its LU
        full = np.zeros(len(mesh.vertices))
        full[region.interior_indices] = u
        u = full
    fld = ScalarField(mesh, u)
    lam = rayleigh_quotient(fld, region, p)
    cres = constraint_residual(fld, p) if closed else None
    return EigenResult(lam, fld, residual, cres, iterations, converged, p, diag)


def dirichlet_eigen(domain, p):
    """First Dirichlet eigenvalue and eigenfunction of the p-Laplacian.

    The minimizer of the p-Rayleigh quotient over fields vanishing outside
    the domain interior. The returned field is sign fixed to be nonnegative,
    exactly zero off the interior, and has unit L^p norm; ``result.lam``
    equals its Rayleigh quotient. The descent runs on the domain's own cells
    and interior vertices. A domain whose interior is every vertex of a
    closed mesh has no boundary to hold at zero, and its minimizer would be
    the constant mode; it is rejected before any factorization (use
    ``closed_eigen`` for the closed problem).
    """
    if not isinstance(domain, Domain):
        raise TypeError("dirichlet_eigen requires a Domain")
    if domain.interior.all():
        raise ValueError(
            "domain has no boundary: every vertex is interior; use closed_eigen "
            "for the closed problem"
        )
    return _eigen_solve(domain, p)


def closed_eigen(mesh, p):
    """First nonzero eigenvalue of the p-Laplacian on a closed mesh.

    Minimizes the Rayleigh quotient subject to the vanishing of the
    integral of |u|^{p-2} u, re-projected after every descent step. The
    field is sign fixed to be positive at its vertex of maximum modulus.
    """
    if not mesh.closed:
        raise ValueError("closed_eigen requires a closed mesh")
    return _eigen_solve(mesh, p)


# ---------------------------------------------------------------------------
# radial 1-D reference problems

_BRACKET_SLACK = 1e-9       # relative, far above the shooting's rtol of 1e-11

# The DOP853 tableau of Hairer, Norsett and Wanner (Solving ODEs I, Sec. II.10)
# as doubles, from scipy/integrate/_ivp/dop853_coefficients.py: nodes C of
# stages 1-12, rows A of stages 1-12 (row 12 holds the weights B, so stage 12
# is the new state) and the error weights E5, E3 of stages 0-11.
_DOP_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0)
_DOP_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
)
_DOP_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294)
_DOP_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082)
# the stage sums run over the nonzero entries only: (node, ((stage, A entry), ...))
# per stage and (stage, E5 entry, E3 entry); a zero term leaves a sum bitwise as it is
_DOP_STAGES = tuple(
    (c, tuple((j, a) for j, a in enumerate(row) if a)) for c, row in zip(_DOP_C, _DOP_A)
)
_DOP_ERR = tuple((j, e5, e3) for j, (e5, e3) in enumerate(zip(_DOP_E5, _DOP_E3)) if e5 or e3)


def _dop853(rhs, r, rend, u, q, rtol, atol):
    """(u, q) at ``rend`` > ``r`` of the system (u', q') = rhs(r, u, q).

    SciPy's adaptive DOP853 (``solve_ivp``) on Python floats, with the step
    control of ``select_initial_step`` and ``RungeKutta._step_impl``: RMS
    norms, the E5/E3 error estimate, step factor 0.9 err^(-1/8) clamped to
    [0.2, 10] (at most 1 after a rejection) and the last step clipped to
    ``rend``. A step below 10 ulp of r, or a NaN one, raises RuntimeError.
    """

    def rms(a, b, sa, sb):
        return math.sqrt((a / sa) ** 2 + (b / sb) ** 2) / math.sqrt(2.0)

    fu, fq = rhs(r, u, q)
    su, sq = atol + abs(u) * rtol, atol + abs(q) * rtol
    d0, d1 = rms(u, q, su, sq), rms(fu, fq, su, sq)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, rend - r)
    gu, gq = rhs(r + h0, u + h0 * fu, q + h0 * fq)
    d2 = rms(gu - fu, gq - fq, su, sq) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, rend - r)
    while r < rend:
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:
                raise RuntimeError(f"radial integration failed: step size underflow at r={r}")
            r_new = min(r + h_abs, rend)
            h = r_new - r
            k = [(fu, fq)]                  # stage derivatives
            for c, row in _DOP_STAGES:
                du = dq = 0.0
                for j, a in row:
                    ku, kq = k[j]
                    du, dq = du + a * ku, dq + a * kq
                us, qs = u + du * h, q + dq * h
                k.append(rhs(r + c * h, us, qs))
            scale_u = atol + max(abs(u), abs(us)) * rtol
            scale_q = atol + max(abs(q), abs(qs)) * rtol
            e5u = e5q = e3u = e3q = 0.0
            for j, e5, e3 in _DOP_ERR:
                ku, kq = k[j]
                e5u, e5q = e5u + e5 * ku, e5q + e5 * kq
                e3u, e3q = e3u + e3 * ku, e3q + e3 * kq
            n5 = (e5u / scale_u) ** 2 + (e5q / scale_q) ** 2
            n3 = (e3u / scale_u) ** 2 + (e3q / scale_q) ** 2
            err = h * n5 / math.sqrt(2.0 * (n5 + 0.01 * n3)) if n5 else 0.0
            if err < 1.0:
                factor = min(10.0, 0.9 * err**-0.125) if err else 10.0
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs, rejected = h * max(0.2, 0.9 * err**-0.125), True
        r, u, q, (fu, fq) = r_new, us, qs, k[12]
    return u, q


def solve_radial_1d(p, n, problem="hemisphere"):
    """First eigenvalue of the radial p-Laplacian model problem.

    problem = "hemisphere": weight sin^{n-1}(r) on (0, pi/2), Neumann at 0,
    Dirichlet at pi/2. This equals the first nonzero closed eigenvalue of
    the round unit n-sphere (n for p = 2). The endpoint value of the
    shooting solution changes sign on a closed-form bracket, the n = 1
    value over 1.3 below (the eigenvalue grows with n) and the Rayleigh
    quotient of cos r times 1 + 1e-9 above, and Brent's method polishes it.

    problem = "interval": unit weight on (0, 1) with Dirichlet ends, in
    closed form (p - 1) pi_p^p, pi_p = 2 pi / (p sin(pi / p)); pi^2 for p = 2.
    """
    p = check_p(p)
    if problem == "interval":
        return (p - 1.0) * (2.0 * math.pi / (p * math.sin(math.pi / p))) ** p
    if problem != "hemisphere":
        raise ValueError(f"unknown radial problem {problem!r}")
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= 8):
        raise ValueError("model dimension n must be an integer in [1, 8]")

    pim1 = 1.0 / (p - 1.0)
    r0, rend = 1e-6, 0.5 * np.pi

    @cache                                  # Brent's first two calls repeat the guards'
    def endpoint(lam):
        def rhs(r, u, q):
            w = math.sin(r) ** (n - 1)
            du = math.copysign(abs(q / w) ** pim1, q)
            dq = -lam * w * math.copysign(abs(u) ** (p - 1.0), u)
            return du, dq

        return _dop853(rhs, r0, rend, 1.0, -lam * r0**n / n, rtol=1e-11, atol=1e-13)[0]

    # below the first eigenvalue, which grows with n: the n = 1 value (p - 1) (pi_p / pi)^p;
    # above it: the Rayleigh quotient of the admissible cos r
    lam_lo = (p - 1.0) * (2.0 / (p * math.sin(math.pi / p))) ** p / 1.3
    lam_hi = _cos_quotient(p, n) * (1.0 + _BRACKET_SLACK)
    if endpoint(lam_lo) <= 0.0:
        raise RuntimeError("shooting bracket started above the eigenvalue")
    if endpoint(lam_hi) >= 0.0:
        raise RuntimeError("shooting bracket ended below the eigenvalue")
    return _brentq(endpoint, lam_lo, lam_hi, 1e-12, 1e-13)[0]


def _cos_quotient(p, n):
    """The radial p-Rayleigh quotient of cos r on (0, pi/2) with weight
    sin^{n-1} r: B((p + n)/2, 1/2) / B(n/2, (p + 1)/2), n at p = 2."""

    def log_beta(a, b):
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    return math.exp(log_beta(0.5 * (p + n), 0.5) - log_beta(0.5 * n, 0.5 * (p + 1.0)))
