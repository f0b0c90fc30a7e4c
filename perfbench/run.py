"""pspec benchmark: CLI workloads timed end to end, checked, and traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Each sample is a fresh interpreter (perfbench/worker.py) that runs one
``pspec.cli.main`` call on the workload's config in perfbench/configs, with
``--seed`` passed through. Samples run one at a time. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs two traced samples and one
untraced sample and reports the per-layer metrics. Every sample's outputs
are checked (see ``evaluate``). A readable report and a JSON report under
perfbench/_runs precede the result, which is the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
FIRST_OUTPUTS = RUNS / "first-outputs.json"   # output hashes of each first run

# workload -> CLI command; BENCHMARK.json lists sweep and checks, and refine
# is run by hand (see README.md, "Workloads")
WORKLOADS = {"sweep": "sweep", "checks": "verify", "refine": "eigen"}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0      # the whole run, set-up included, ends before this
IMPORT_TIMER = (
    "from time import perf_counter as c; t = c(); import pspec.cli; print(c() - t)"
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# A p = 2 eigenvalue further than P2_TOL (relative) from eigsh, or a p != 2
# eigenvalue more than GOLDEN_TOL above its golden value, is an output-check
# miss. The accuracy metrics are floored at these tolerances, so they are
# never 0 and move only when accuracy crosses them.
P2_TOL = 1e-9
GOLDEN_TOL = 1e-6

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "lam_err_p2": "ratio",
    "lam_excess": "ratio",
}


def _timed(layer, *names):
    return {
        f"{layer}.{name}.{suffix}": unit
        for name in names
        for suffix, unit in (("s", "s"), ("calls", "count"))
    }


PER_LAYER = {
    **_timed("manifold", "build", "diameter", "cap_radius"),
    "manifold.self_s": "s",
    **_timed("pspectral", "closed_eigen", "dirichlet_eigen", "project_constraint", "solve_radial_1d"),
    "pspectral.iterations": "count",
    "pspectral.p2_iterations": "count",
    "pspectral.unconverged": "count",
    "pspectral.self_s": "s",
    **_timed("rearrange", "polya_szego_check", "coarea_check", "symmetrize", "lp_equimeasurability"),
    "rearrange.self_s": "s",
    **_timed("isoperim", "superlevel_measures", "level_boundary_measure", "level_integral",
             "gromov_ratio", "croke_profile"),
    "isoperim.superlevel_measures.thresholds": "count",
    "isoperim.self_s": "s",
    "harness.pinching_sweep.s": "s",
    "harness.chain_audit.s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
}


def _child_env():
    env = dict(os.environ)
    # one BLAS/OpenMP thread unless the caller sets otherwise: the dense
    # kernels here are small, and a second spinning thread on a shared
    # two-core machine adds noise, not speed
    for key in THREAD_VARS:
        env.setdefault(key, "1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _remaining(start):
    return max(1.0, DEADLINE_S - (perf_counter() - start))


def setup_time(start):
    """Wall seconds a fresh interpreter takes to import pspec.cli.

    Timed inside the child, as worker.py times its own import, so that both
    give the same quantity and pool into one median.
    """
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        cwd=ROOT, env=_child_env(), check=True, capture_output=True, text=True,
        timeout=_remaining(start),
    )
    return float(proc.stdout.split()[-1])


def run_sample(workload, seed, index, trace, oracle, config_dir, start):
    """Run one worker process; returns its result plus output hashes and blocks."""
    outdir = RUNS / workload / f"sample{index}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    result_path = RUNS / workload / f"sample{index}.json"
    result_path.unlink(missing_ok=True)
    spec = {
        "argv": [
            WORKLOADS[workload],
            "--config", str(config_dir / f"{workload}.cfg"),
            "--out", str(outdir),
            "--seed", str(seed),
        ],
        "trace": trace,
        "oracle": oracle,
        "src": str(SRC),
        "result": str(result_path),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=_remaining(start),
        )
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        return {"index": index, "trace": trace, "crash": "worker timed out"}
    if proc.returncode != 0 or not result_path.exists():
        return {"index": index, "trace": trace,
                "crash": f"worker exit {proc.returncode}: {stderr.strip()[-400:]}"}
    res = json.loads(result_path.read_text())
    res.update(index=index, trace=trace, stderr=stderr.strip()[-2000:])
    if res["code"] not in (0, 1):
        res["crash"] = f"cli exit {res['code']}: {(res['error'] or stderr).strip()[-400:]}"
    res["hashes"] = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir()) if p.is_file()
    }
    res["blocks"] = []
    for name in res["hashes"]:
        if name.endswith(".json"):
            blocks = json.loads((outdir / name).read_text())
            res["blocks"] += [(name, b["name"], b["pass"]) for b in blocks if b["name"] != "meta"]
    return res


def first_outputs(key, samples):
    """Output hashes of the first run of this workload, size and seed.

    Kept in the checkout across runs; a run whose key is new records its
    first good sample, which then compares equal to itself.
    """
    store = json.loads(FIRST_OUTPUTS.read_text()) if FIRST_OUTPUTS.exists() else {}
    if key not in store:
        good = [s for s in samples if "crash" not in s]
        if not good:
            return None
        store[key] = good[0]["hashes"]
        FIRST_OUTPUTS.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return store[key]


def evaluate(samples, golden, first):
    """Count operations and misses, and the worst eigenvalue errors.

    Operations are eigen solves, JSON check blocks, one byte comparison per
    output file of every sample against ``first`` (the first run of the same
    workload and seed) and one per crashed sample. A solve fails when it
    raised, is unconverged, or misses its oracle: eigsh for p = 2, the
    stored golden value for p != 2. The p = 2 start of every p != 2 solve
    also enters lam_err_p2.
    """
    refs = next((s["p2_refs"] for s in samples if s.get("p2_refs")), {})
    attempted, misses = 0, []
    err_p2, excess = [], []

    def miss(sample, what):
        misses.append(f"sample {sample['index']}: {what}")

    for s in samples:
        if "crash" in s:
            attempted += 1
            miss(s, s["crash"])
            continue
        for rec in s["solves"]:
            attempted += 1
            label = f"{rec['problem']} p={rec['p']:g}"
            if "error" in rec:
                miss(s, f"{label}: raised {rec['error']}")
                continue
            ref = refs.get(rec["problem"])
            if ref is not None:
                err_p2.append(abs(rec["p2_lambda"] - ref) / ref)
            if not rec["converged"]:
                miss(s, f"{label}: not converged after {rec['iterations']} iterations")
            elif rec["p"] == 2.0:
                if ref is None:
                    miss(s, f"{label}: no eigsh reference")
                    continue
                err = abs(rec["lam"] - ref) / ref
                err_p2.append(err)
                if err > P2_TOL:
                    miss(s, f"{label}: lam {rec['lam']:.10g} vs eigsh {ref:.10g} "
                            f"(rel {err:.3g} > {P2_TOL:g})")
            else:
                g = golden.get(label)
                if g is None:
                    miss(s, f"{label}: no golden value")
                    continue
                excess.append(rec["lam"] / g - 1.0)
                if excess[-1] > GOLDEN_TOL:
                    miss(s, f"{label}: lam {rec['lam']:.10g} above golden {g:.10g} "
                            f"(rel {excess[-1]:.3g} > {GOLDEN_TOL:g})")
        for fname, bname, ok in s["blocks"]:
            attempted += 1
            if not ok:
                miss(s, f"{fname} block {bname}: pass false")
        for fname in sorted(set(first) | set(s["hashes"])):
            attempted += 1
            if first.get(fname) != s["hashes"].get(fname):
                miss(s, f"{fname}: bytes differ from the first run of this seed")
    return {
        "attempted": attempted,
        "failed": len(misses),
        "misses": misses,
        "lam_err_p2": max([P2_TOL] + err_p2),
        "lam_excess": max([GOLDEN_TOL] + excess),
    }


def layer_metrics(traced, untraced):
    """Per-layer metrics from two traced samples; exact counts must repeat."""
    snaps = [s["spans"] for s in traced]
    problems = []

    def counts(snap, solves):
        out = {f"{k}.calls": v for k, v in snap["calls"].items()}
        out.update(snap["counts"])
        out["pspectral.iterations"] = sum(r.get("iterations", 0) for r in solves)
        out["pspectral.p2_iterations"] = sum(r.get("p2_iterations", 0) for r in solves)
        out["pspectral.unconverged"] = sum(not r.get("converged", False) for r in solves)
        return out

    c0, c1 = (counts(s["spans"], s["solves"]) for s in traced)
    if c0 != c1:
        diff = sorted(k for k in set(c0) | set(c1) if c0.get(k) != c1.get(k))
        problems.append(f"counts differ between the two traced samples: {diff}")

    def seconds(key):
        return statistics.median(snap["seconds"].get(key, 0.0) for snap in snaps)

    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(s["self_s"][name[:-7]] for s in snaps)
        elif name.endswith(".s") and not name.startswith("trace."):
            metrics[name] = seconds(name[:-2])
        elif name != "trace.overhead_s" and name != "trace.remainder_s":
            metrics[name] = c0.get(name, 0)
    remainders = []
    for s in traced:
        self_s = s["spans"]["self_s"].values()
        remainders.append(s["wall_s"] - sum(self_s))
        if min(self_s) < -1e-6 or not -1e-6 <= remainders[-1] <= 0.05 * s["wall_s"]:
            problems.append(
                f"sample {s['index']}: self times {sum(self_s):.6f} s + remainder "
                f"{remainders[-1]:.6f} s do not account for traced wall {s['wall_s']:.6f} s"
            )
    metrics["trace.remainder_s"] = statistics.median(remainders)
    metrics["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) - untraced["wall_s"]
    return metrics, problems


def environment(samples):
    env = next((s["env"] for s in samples if "env" in s), {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None  # the tree need not be a git checkout
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    child_env = _child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": env.get("numpy"),
        "scipy": env.get("scipy"),
        "blas": env.get("blas"),
        "thread_env": {k: child_env[k] for k in THREAD_VARS},
        "commit": commit,
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs from perfbench/configs/smoke (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "pspec" / "cli.py").is_file():
        print(f"error: no pspec sources under {SRC}", file=sys.stderr)
        return 2
    start = perf_counter()
    config_dir = BENCH / "configs" / ("smoke" if args.smoke else "")
    golden = json.loads((BENCH / "golden.json").read_text())
    shutil.rmtree(RUNS / args.workload, ignore_errors=True)

    def sample(index, trace, oracle):
        return run_sample(args.workload, args.seed, index, trace, oracle, config_dir, start)

    setup = []
    if args.trace:
        # traced, untraced, traced: the untraced sample sits between the two
        # it is compared with, so drift over the run cancels in the overhead
        samples = [sample(1, True, True), sample(2, False, False), sample(3, True, False)]
    else:
        setup = [setup_time(start) for _ in range(SETUP_SAMPLES)]
        samples = []
        t0 = t_last = perf_counter()
        # at least one sample; start another only if, at the pace of the
        # last one, it ends within --seconds and before the deadline
        while not samples or (
            2 * perf_counter() - t_last - t0 <= args.seconds
            and 2 * perf_counter() - t_last - start < DEADLINE_S
        ):
            t_last = perf_counter()
            samples.append(sample(len(samples) + 1, False, not samples))
    size = "smoke" if args.smoke else "full"
    first = first_outputs(f"{args.workload} {size} seed={args.seed}", samples)
    ev = evaluate(samples, golden, first or {})
    problems = []
    ok = [s for s in samples if "crash" not in s]
    if args.trace:
        traced = [s for s in ok if s["trace"]]
        untraced = [s for s in ok if not s["trace"]]
        if len(traced) == 2 and untraced:
            metrics, problems = layer_metrics(traced, untraced[0])
        else:
            metrics, problems = {}, ["a traced or untraced sample crashed"]
        units = PER_LAYER
    else:
        # every untraced worker also timed its own import of pspec.cli
        setup += [s["import_s"] for s in ok]
        metrics = {"setup_s": statistics.median(setup)}
        if ok:
            metrics["wall_s"] = statistics.median(s["wall_s"] for s in ok)
            metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in ok)
        metrics["ok_frac"] = 1.0 - ev["failed"] / ev["attempted"]
        metrics["lam_err_p2"] = ev["lam_err_p2"]
        metrics["lam_excess"] = ev["lam_excess"]
        units = END_TO_END
    problems += [f"sample {s['index']}: {s['crash']}" for s in samples if "crash" in s]
    correct = not problems and len(metrics) == len(units)
    env = environment(samples)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "attempted": ev["attempted"], "failed": ev["failed"],
        "fail_frac": ev["failed"] / ev["attempted"], "misses": ev["misses"],
        "problems": problems, "setup_samples": setup,
        "samples": [
            {k: s.get(k) for k in ("index", "trace", "wall_s", "cpu_s", "import_s", "peak_rss_mb",
                                   "code", "crash", "hashes", "solves")}
            for s in samples
        ],
        "metrics": metrics, "environment": env,
    }
    RUNS.mkdir(parents=True, exist_ok=True)
    report_path = RUNS / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    walls = [f"{s['wall_s']:.3f}" for s in ok]
    print(f"pspec benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(samples)} wall_s per sample={walls}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"operations: attempted={ev['attempted']} failed={ev['failed']} "
          f"fail_frac={report['fail_frac']:.6g}")
    for line in ev["misses"]:
        print(f"  miss: {line}")
    for line in problems:
        print(f"  not checkable: {line}")
    note = {"wall_s": f"median of {len(ok)} samples; no tail percentile (needs 10 beyond it)",
            "setup_s": f"median of {len(setup)} imports"}
    for name, unit in units.items():
        val = f"{metrics[name]:.9g}" if name in metrics else "missing"
        print(f"  {name:44s} {val} {unit}  {note.get(name, '')}".rstrip())
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ev["attempted"],
        "failed": ev["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
