"""Command-line frontend: config parsing, dispatch, and report files.

Runs are driven by a line-oriented ``key = value`` config. Each command
writes its artifacts into the output directory and a JSON report whose
first block embeds the verbatim config, the seed, and the tool version;
identical config and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, field as dc_field, replace

import numpy as np

from . import __version__
from .harness import chain_audit, pinching_sweep
from .isoperim import (
    battery_ratios,
    check_battery,
    domain_bump_battery,
    gromov_ratio,
)
from .manifold import (
    MAX_ASPECT,
    MAX_LEVEL,
    MAX_SEGMENTS,
    beta as measure_ratio,
    build_circle,
    build_ellipsoid,
    build_icosphere,
    build_interval,
    hemisphere_domain,
    interior_domain,
    total_measure,
    write_off,
)
from .pspectral import (
    ScalarField,
    check_p,
    closed_eigen,
    coordinate_field,
    dirichlet_eigen,
    solve_radial_1d,
)
from .rearrange import lp_equimeasurability, polya_szego_check, symmetrize

COMMANDS = ("mesh", "eigen", "symmetrize", "verify", "sweep", "oracle")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated run settings with defaults filled in."""

    command: str = ""
    mesh_kind: str = "icosphere"
    mesh_level: int = 4
    mesh_aspect: float = 1.0
    mesh_normalize: bool = True
    mesh_segments: int = 400
    eigen_domain: str = "auto"
    ps: tuple = (2.0,)
    seed: int = 0
    out: str = "out"
    sweep_aspects: tuple = (1.0, 1.05, 1.1, 1.15, 1.2)
    sweep_level: int = 4
    battery_count: int = 12
    battery_thresholds: int = 3
    oracle_n: int = 2
    oracle_problem: str = "hemisphere"
    raw_text: str = dc_field(default="", repr=False)


def _parse_bool(s):
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_choice(*options):
    def parse(s):
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    return parse


def _parse_ps(s):
    vals = tuple(check_p(tok) for tok in s.split(","))
    # reports name one block per exponent, f"..._p{p:g}"
    names = [f"p{p:g}" for p in vals]
    dup = next((name for name in names if names.count(name) > 1), None)
    if dup:
        raise ValueError(f"exponents share the block name {dup}, got {s!r}")
    return vals


def _bounded(kind, name, lo, hi):
    # a builder's bound, checked before any solve or output directory
    def parse(s):
        v = kind(s)
        if not lo <= v <= hi:
            raise ValueError(f"{name} must be in [{lo}, {hi}], got {v:g}")
        return v

    return parse


_parse_level = _bounded(int, "subdivision level", 0, MAX_LEVEL)
_parse_aspect = _bounded(float, "aspect", 1, MAX_ASPECT)


def _parse_aspects(s):
    return tuple(_parse_aspect(tok) for tok in s.split(","))


def _parse_seed(s):
    v = int(s)
    if not 0 <= v < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return v


_KEYS = {
    "command": ("command", _parse_choice(*COMMANDS)),
    "mesh.kind": ("mesh_kind", _parse_choice("icosphere", "ellipsoid", "interval", "circle")),
    "mesh.level": ("mesh_level", _parse_level),
    "mesh.aspect": ("mesh_aspect", _parse_aspect),
    "mesh.normalize": ("mesh_normalize", _parse_bool),
    "mesh.segments": ("mesh_segments", int),
    "eigen.domain": ("eigen_domain", _parse_choice("auto", "closed", "hemisphere")),
    "p": ("ps", _parse_ps),
    "seed": ("seed", _parse_seed),
    "out": ("out", str),
    "sweep.aspects": ("sweep_aspects", _parse_aspects),
    "sweep.level": ("sweep_level", _parse_level),
    "battery.count": ("battery_count", int),
    "battery.thresholds": ("battery_thresholds", int),
    "oracle.n": ("oracle_n", _bounded(int, "model dimension n", 1, 8)),
    "oracle.problem": ("oracle_problem", _parse_choice("hemisphere", "interval")),
}


def parse_config(text, command=None):
    """Parse ``key = value`` lines into a RunConfig.

    Comments start with '#'; unknown or repeated keys and malformed lines
    are errors reported with their line number. ``command`` supplies the
    CLI positional when the file omits the key; a conflicting pair is an
    error.
    """
    cfg = RunConfig(raw_text=text)
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        seen[key] = lineno
        attr, parse = _KEYS[key]
        try:
            setattr(cfg, attr, parse(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    if "command" in seen and command is not None and cfg.command != command:
        raise ConfigError(
            f"config command {cfg.command!r} conflicts with requested {command!r}"
        )
    if not cfg.command:
        if command is None:
            raise ConfigError("missing required key 'command'")
        cfg.command = command
    # a curve builder's bounds, which depend on mesh.kind, before any output
    least = {"interval": 1, "circle": 3}.get(cfg.mesh_kind)
    if least and not least <= cfg.mesh_segments <= MAX_SEGMENTS:
        raise ConfigError(f"line {seen['mesh.segments']}: mesh.segments: {cfg.mesh_kind} segments "
                          f"must be in [{least}, {MAX_SEGMENTS}], got {cfg.mesh_segments}")
    # only verify draws a battery, and an empty one would fail after the
    # mesh is built and checks have run
    if cfg.command == "verify":
        for key in ("battery.count", "battery.thresholds"):
            v = getattr(cfg, _KEYS[key][0])
            if v < 1:
                raise ConfigError(f"line {seen[key]}: {key}: must be at least 1, got {v}")
    return cfg


# ---------------------------------------------------------------------------
# report plumbing


def _block(name, inputs, lhs=None, rhs=None, margin=None, tolerance=None, ok=True):
    return {
        "name": name,
        "inputs": inputs,
        "lhs": lhs,
        "rhs": rhs,
        "margin": margin,
        "tolerance": tolerance,
        "pass": bool(ok),
    }


# Pass rule of every margin-checked block: (sense, tolerance) on the block's
# margin m, with sense "abs" (|m| <= tol), "max" (m <= tol) or "min"
# (m >= tol). Block families numbered by p share the entry of their stem.
CHECKS = {
    "equimeasurability_z": ("max", 0.01),
    "equimeasurability_random": ("max", 0.01),
    "polya_szego_battery": ("min", -0.01),
    "gromov_battery": ("min", -0.02),
    "gromov_caps": ("max", 0.01),
    "audit_mass_transport": ("abs", 0.03),
    "audit_energy_comparison": ("max", 0.03),
    "equimeasurability_p": ("abs", 0.01),
    "radial_oracle_p": ("max", 1e-6),
    "ratio_monotone_p": ("max", 0.01),
}


def _entry(name):
    # a numbered block takes its stem's entry: equimeasurability_p1.5 -> equimeasurability_p
    return CHECKS[name.rstrip("0123456789.")]


def passes(name, margin):
    """Whether ``margin`` passes the CHECKS entry of block ``name`` (or its stem).

    A NaN margin passes no entry.
    """
    sense, tol = _entry(name)
    return {"abs": abs(margin) <= tol, "max": margin <= tol, "min": margin >= tol}[sense]


def _check(name, inputs, margin, lhs=None, rhs=None):
    ok = passes(name, margin)
    return _block(name, inputs, lhs=lhs, rhs=rhs, margin=margin, tolerance=_entry(name)[1], ok=ok)


def _meta_block(cfg):
    return _block(
        "meta",
        {
            "command": cfg.command,
            "config": cfg.raw_text,
            "seed": cfg.seed,
            "version": __version__,
        },
    )


def _json_value(v):
    # strict JSON: numpy values as Python ones (float64 through float.__repr__)
    # and a non-finite float as null; pass flags are decided on the value first
    if isinstance(v, (np.ndarray, np.generic)):
        v = v.tolist()
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _write_json(path, blocks):
    text = json.dumps(_json_value(blocks), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _write_csv(path, header, rows, seed):
    buf = io.StringIO()
    buf.write(f"# seed = {seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [f"{v:.12g}" if isinstance(v, float) else str(v) for v in row]
        )
    path.write_text(buf.getvalue())


def _build_mesh(cfg):
    kind = cfg.mesh_kind
    if kind == "icosphere":
        return build_icosphere(cfg.mesh_level)
    if kind == "ellipsoid":
        return build_ellipsoid(cfg.mesh_aspect, cfg.mesh_level, cfg.mesh_normalize)
    if kind == "interval":
        return build_interval(cfg.mesh_segments)
    return build_circle(cfg.mesh_segments)


def _primary_coordinate(mesh):
    spans = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    return coordinate_field(mesh, int(np.argmax(spans)))


# ---------------------------------------------------------------------------
# commands


def _cmd_mesh(cfg, outdir):
    mesh = _build_mesh(cfg)
    write_off(mesh, outdir / "mesh.off")
    inputs = {"kind": cfg.mesh_kind, "meta": mesh.meta}
    blocks = [
        _meta_block(cfg),
        _block("mesh_summary", inputs, lhs=total_measure(mesh), rhs=len(mesh.vertices)),
    ]
    if mesh.closed:
        blocks.append(_block("mesh_measure_ratio", inputs, lhs=measure_ratio(mesh)))
    _write_json(outdir / "mesh.json", blocks)
    return blocks


def _cmd_eigen(cfg, outdir):
    mesh = _build_mesh(cfg)
    mode = cfg.eigen_domain
    if mode == "auto":
        mode = "closed" if mesh.closed else "interior"
    if mode == "closed":
        region, solve = mesh, closed_eigen
    else:
        domain = hemisphere_domain if mode == "hemisphere" else interior_domain
        region, solve = domain(mesh), dirichlet_eigen
    blocks = [_meta_block(cfg)]
    rows = []
    for p in cfg.ps:
        res = solve(region, p)
        inputs = {"p": p, "domain": mode, "iterations": res.iterations}
        inputs["p2_converged"] = res.diagnostics["p2_converged"]
        for key in ("grad_norm", "projection_evals"):
            if key in res.diagnostics:
                inputs[key] = res.diagnostics[key]
        blocks.append(_block(f"eigen_p{p:g}", inputs, lhs=res.lam, ok=res.converged))
        rows.extend((float(p), i, float(v)) for i, v in enumerate(res.field.values))
    del region                              # a Domain's K + M factorization goes with it
    write_off(mesh, outdir / "mesh.off")
    _write_csv(outdir / "eigen_field.csv", ["p", "vertex", "value"], rows, cfg.seed)
    _write_json(outdir / "eigen.json", blocks)
    return blocks


def _cmd_symmetrize(cfg, outdir):
    mesh = _build_mesh(cfg)
    if not mesh.closed:
        raise ValueError("symmetrize command expects a closed mesh")
    fld = _primary_coordinate(mesh)
    prof = symmetrize(fld)
    rows = [(float(r), float(v)) for r, v in prof.rows()]
    _write_csv(outdir / "profile.csv", ["colatitude", "value"], rows, cfg.seed)
    blocks = [_meta_block(cfg)]
    bet = measure_ratio(mesh)
    for p in cfg.ps:
        chk = lp_equimeasurability(fld, prof, p)
        blocks.append(
            _check(
                f"equimeasurability_p{p:g}", {"p": p, "beta": bet}, chk.rel_gap, chk.lhs, chk.rhs
            )
        )
    _write_json(outdir / "symmetrize.json", blocks)
    return blocks


def _worst_equimeasurability_gap(field, ps):
    # the profile, with its cached quadrature, is dropped on return
    prof = symmetrize(field)
    return max(abs(lp_equimeasurability(field, prof, p).rel_gap) for p in ps)


def _cmd_verify(cfg, outdir):
    mesh = _build_mesh(cfg)
    if not (mesh.closed and mesh.dimension == 2):
        raise ValueError("verify command expects a closed surface mesh")
    rng = np.random.default_rng(cfg.seed)
    z = _primary_coordinate(mesh)
    blocks = [_meta_block(cfg)]

    worst = _worst_equimeasurability_gap(z, cfg.ps)
    fields = check_battery(mesh, rng, cfg.battery_count)
    worst_rand = 0.0
    for f in fields:
        v = f.values
        g = ScalarField(mesh, v - v.min() + 0.1 if v.min() <= 0 else v)
        worst_rand = max(worst_rand, _worst_equimeasurability_gap(g, cfg.ps))
    blocks.append(_check("equimeasurability_z", {"ps": list(cfg.ps)}, worst))
    blocks.append(
        _check(
            "equimeasurability_random",
            {"ps": list(cfg.ps), "count": cfg.battery_count},
            worst_rand,
        )
    )

    hemi = hemisphere_domain(mesh)
    margins = [
        polya_szego_check(f, 2.0).rel_gap
        for f in domain_bump_battery(hemi, rng, cfg.battery_count)
    ]
    blocks.append(
        _check("polya_szego_battery", {"p": 2.0, "count": cfg.battery_count}, min(margins))
    )

    # the battery's thresholds are drawn after the Polya-Szego bumps
    ratios = battery_ratios(fields, rng, cfg.battery_thresholds)
    blocks.append(_check("gromov_battery", {"count": len(ratios)}, ratios.min() - 1.0))

    zlo, zhi = z.values.min(), z.values.max()
    cap_ratios = gromov_ratio(z, zlo + np.array([0.25, 0.5, 0.75]) * (zhi - zlo))
    blocks.append(
        _check("gromov_caps", {"ratios": cap_ratios}, float(np.abs(cap_ratios - 1.0).max()))
    )

    for name, worst in chain_audit(hemi, cfg.ps[0]).items():
        blocks.append(_check(f"audit_{name}", {"p": cfg.ps[0]}, worst))

    _write_json(outdir / "verify.json", blocks)
    return blocks


def _cmd_sweep(cfg, outdir):
    records = pinching_sweep(cfg.sweep_aspects, cfg.ps, cfg.sweep_level)
    header = list(asdict(records[0]))
    rows = [astuple(r) for r in records]
    _write_csv(outdir / "sweep.csv", header, rows, cfg.seed)

    blocks = [_meta_block(cfg)]
    for p in cfg.ps:
        # the rows of one p in diameter order; the margin is the largest
        # relative rise of ratio between neighbours (-inf for one row, which
        # passes), NaN when a row failed (which fails); both are written null
        seq = [r for r in records if r.p == p]
        ratios = np.array([r.ratio for r in seq])
        rise = np.max(ratios[1:] / ratios[:-1] - 1.0, initial=-np.inf)
        solved = sum(not r.failed for r in seq)
        margin = float(rise) if solved == len(seq) else float("nan")
        blocks.append(_check(f"ratio_monotone_p{p:g}", {"p": p, "rows": solved}, margin))
    _write_json(outdir / "sweep.json", blocks)
    return blocks


def _cmd_oracle(cfg, outdir):
    blocks = [_meta_block(cfg)]
    for p in cfg.ps:
        lam = solve_radial_1d(p, cfg.oracle_n, cfg.oracle_problem)
        ref = None
        if p == 2.0:
            ref = float(cfg.oracle_n) if cfg.oracle_problem == "hemisphere" else np.pi**2
        print(f"radial eigenvalue p={p:g} n={cfg.oracle_n} {cfg.oracle_problem}: {lam:.10g}")
        name = f"radial_oracle_p{p:g}"
        inputs = {"p": p, "n": cfg.oracle_n, "problem": cfg.oracle_problem}
        blocks.append(
            _block(name, inputs, lhs=lam)
            if ref is None
            else _check(name, inputs, abs(lam - ref) / ref, lhs=lam, rhs=ref)
        )
    _write_json(outdir / "oracle.json", blocks)
    return blocks


_DISPATCH = {
    "mesh": _cmd_mesh,
    "eigen": _cmd_eigen,
    "symmetrize": _cmd_symmetrize,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}


def run(cfg):
    """Execute a parsed config; returns the process exit status."""
    from pathlib import Path

    try:
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        blocks = _DISPATCH[cfg.command](cfg, outdir)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [b["name"] for b in blocks if not b["pass"]]
    for name in failed:
        print(f"FAIL {name}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pspec",
        description="spectral geometry toolkit: eigenvalues, symmetrization, checks",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to key = value config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="battery seed (overrides config)")
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read(), command=args.command)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        if args.seed is not None:
            try:
                cfg = replace(cfg, seed=_parse_seed(str(args.seed)))
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from None
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
