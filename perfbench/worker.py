"""One benchmark sample: a fresh interpreter runs one ``pspec.cli.main`` call.

Invoked by run.py as ``python3 perfbench/worker.py '<spec json>'`` with
``PYTHONPATH`` pointing at the checkout's ``src``. The spec holds the CLI
argv, whether to trace, whether to compute the p = 2 oracle, the checkout's
``src`` directory and the path of the result file this process writes.

The timed region is the ``main`` call alone. Peak memory is read right after
it, before the eigsh oracle runs.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time


def problem_label(kind, region):
    """Stable name of a discrete eigenproblem: mesh provenance plus domain."""
    mesh = region if kind == "closed" else region.mesh
    meta = mesh.meta
    parts = [kind] + [f"{k}={meta[k]}" for k in ("kind", "level", "aspect") if k in meta]
    parts.append(f"nv={len(mesh.vertices)}")
    if kind == "dirichlet":
        parts.append(f"interior={int(region.interior.sum())}")
    return " ".join(parts)


def p2_reference(kind, region):
    """First (nonzero) p = 2 eigenvalue by shift-invert Lanczos.

    The P1 stiffness (cotangent form) and the one-third lumped mass are
    assembled here from the vertex positions alone, independently of the
    program's assembly; Dirichlet problems keep the interior block.
    """
    import numpy as np
    from scipy.sparse import coo_matrix, diags
    from scipy.sparse.linalg import eigsh

    mesh = region if kind == "closed" else region.mesh
    if mesh.dimension != 2:
        raise ValueError("the p = 2 oracle supports surface meshes only")
    V, C = mesh.vertices, mesh.cells
    nv = len(V)
    area = 0.5 * np.linalg.norm(np.cross(V[C[:, 1]] - V[C[:, 0]], V[C[:, 2]] - V[C[:, 0]]), axis=1)
    rows, cols, vals = [], [], []
    for k in range(3):
        i, j, o = C[:, (k + 1) % 3], C[:, (k + 2) % 3], C[:, k]
        a, b = V[i] - V[o], V[j] - V[o]
        cot = (a * b).sum(axis=1) / np.linalg.norm(np.cross(a, b), axis=1)
        w = -0.5 * cot
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [w, w, -w, -w]
    K = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(nv, nv)
    ).tocsc()
    m = np.bincount(C.ravel(), weights=np.repeat(area / 3.0, 3), minlength=nv)
    k = 2  # closed: the constant mode (0) and the first nonzero eigenvalue
    if kind == "dirichlet":
        idx = np.flatnonzero(region.interior)
        K, m, k = K[idx][:, idx], m[idx], 1
    vals = eigsh(
        K, k=k, M=diags(m).tocsc(), sigma=-0.5, which="LM",
        v0=np.linspace(1.0, 2.0, len(m)), return_eigenvectors=False,
    )
    return float(np.sort(vals)[-1])


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": Path(path).name, "threads": int(fn())}
    return None


def main():
    spec = json.loads(sys.argv[1])
    t0 = perf_counter()
    import pspec.cli

    import_s = perf_counter() - t0
    src = Path(spec["src"]).resolve()
    if src not in Path(pspec.cli.__file__).resolve().parents:
        raise SystemExit(f"pspec imported from {pspec.cli.__file__}, not from {src}")

    import numpy
    import scipy

    from spans import Spans, install

    solves, problems = [], {}

    def on_eigen(kind, region, p, result, exc):
        label = problem_label(kind, region)
        problems.setdefault(label, (kind, region))
        rec = {"problem": label, "p": float(p)}
        if exc is not None:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec.update(
                lam=float(result.lam),
                iterations=int(result.iterations),
                converged=bool(result.converged),
                p2_lambda=float(result.diagnostics.get("p2_lambda", float("nan"))),
                p2_iterations=int(result.diagnostics.get("p2_iterations", 0)),
            )
        solves.append(rec)

    spans = Spans() if spec["trace"] else None
    install(spans, on_eigen)

    error = None
    t1, c1 = perf_counter(), process_time()
    try:
        code = pspec.cli.main(spec["argv"])
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception:  # noqa: BLE001 - reported as a failed operation
        code, error = None, traceback.format_exc()
    wall_s = perf_counter() - t1
    cpu_s = process_time() - c1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = {}
    if spec["oracle"]:
        refs = {label: p2_reference(*problems[label]) for label in sorted(problems)}

    result = {
        "code": code,
        "error": error,
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "solves": solves,
        "p2_refs": refs,
        "spans": spans.snapshot() if spans is not None else None,
        "env": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_threads(),
        },
    }
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
