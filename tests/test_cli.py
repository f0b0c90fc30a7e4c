import dataclasses
import filecmp
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pspec
from pspec import cli, harness, isoperim, pspectral, rearrange
from pspec.cli import CHECKS, ConfigError, RunConfig, main, parse_config, run
from pspec.manifold import MAX_ASPECT, MAX_LEVEL, MAX_SEGMENTS, read_off


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config("command = eigen\nmesh.kind = icosphere\nmesh.level = 5\np = 2")
    assert cfg.command == "eigen"
    assert cfg.mesh_level == 5
    assert cfg.ps == (2.0,)
    assert cfg.out == "out"
    assert cfg.seed == 0


def test_no_solver_option_is_a_config_key(tmp_path, capsys):
    # every command solves with the solver's module constants, so a solver.*
    # key is unknown and the run stops at parse time with exit status 2
    assert not [f.name for f in dataclasses.fields(RunConfig) if f.name.startswith("solver")]
    for name, value in (("tol", pspectral._TOL), ("stall", pspectral._STALL),
                        ("max_iters", pspectral._MAX_ITERS)):
        key = f"solver.{name}"
        path = write_config(tmp_path, f"command = eigen\n{key} = {value}")
        out = tmp_path / name
        assert main(["eigen", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line 2: unknown key {key!r}\n"
        assert not out.exists()


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\ncommand = mesh  # trailing\n\nmesh.level = 2\n")
    assert cfg.command == "mesh"
    assert cfg.mesh_level == 2


def test_parse_p_range_error_names_bounds():
    with pytest.raises(ConfigError, match=r"\[1.1, 10"):
        parse_config("command = eigen\np = 0.9")


def test_parse_empty_file_missing_command():
    with pytest.raises(ConfigError, match="missing required key 'command'"):
        parse_config("")


def test_parse_error_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        parse_config("command = mesh\nbogus = 1")
    with pytest.raises(ConfigError, match="line 3: repeated key"):
        parse_config("command = mesh\nmesh.level = 2\nmesh.level = 3")
    with pytest.raises(ConfigError, match="line 1: expected"):
        parse_config("just some words")


def test_parse_command_conflict_and_fallback():
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config("command = mesh", command="eigen")
    cfg = parse_config("mesh.level = 2", command="mesh")
    assert cfg.command == "mesh"


def test_parse_value_validation():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("command = mesh\nseed = -1")
    with pytest.raises(ConfigError):
        parse_config("command = mesh\nseed = 18446744073709551616")
    with pytest.raises(ConfigError, match="expected one of"):
        parse_config("command = mesh\nmesh.kind = torus")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("command = mesh\nmesh.normalize = maybe")
    cfg = parse_config("command = sweep\nsweep.aspects = 1.0, 1.1\np = 1.5,2")
    assert cfg.sweep_aspects == (1.0, 1.1)
    assert cfg.ps == (1.5, 2.0)


@pytest.mark.parametrize(
    "key, value",
    [("stall", "0"), ("tol", "0"), ("tol", "-1e-9"), ("max_iters", "-1")],
)
def test_parse_rejects_solver_values_that_never_finish(key, value):
    # stall 0 would declare every solve converged after one step; no config
    # sets a solver option, so the key is refused whatever its value
    with pytest.raises(ConfigError, match=rf"line 2: unknown key 'solver\.{key}'"):
        parse_config(f"command = eigen\nsolver.{key} = {value}")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_main_exit_2_on_out_of_range_seed_flag(tmp_path, capsys, seed):
    path = write_config(tmp_path, "command = oracle\np = 2")
    assert main(["oracle", "--config", path, "--out", str(tmp_path / "o"), "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("aspects", ["1.0, 2.5", "0.9", "1.0, 1.2, nan"])
def test_main_exit_2_on_out_of_range_aspect_before_any_solve(
    tmp_path, capsys, monkeypatch, aspects
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(cli, "pinching_sweep", no_solve)
    monkeypatch.setattr(harness, "closed_eigen", no_solve)
    text = f"command = sweep\nsweep.level = 2\nsweep.aspects = {aspects}"
    with pytest.raises(ConfigError, match=rf"line 3: sweep\.aspects: aspect must be in \[1, "):
        parse_config(text)
    path = write_config(tmp_path, text)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 2
    assert "sweep.aspects" in capsys.readouterr().err
    bounds = parse_config(f"command = sweep\nsweep.aspects = 1, {MAX_ASPECT}")
    assert bounds.sweep_aspects == (1.0, MAX_ASPECT)


@pytest.mark.parametrize(
    "command, key, value, bound",
    [("sweep", "sweep.level", "9", "subdivision level must be in [0, 8]"),
     ("sweep", "sweep.level", "-1", "subdivision level must be in [0, 8]"),
     ("eigen", "mesh.level", "9", "subdivision level must be in [0, 8]"),
     ("eigen", "mesh.aspect", "2.5", "aspect must be in [1, "),
     ("eigen", "mesh.aspect", "0.9", "aspect must be in [1, "),
     ("eigen", "mesh.aspect", "nan", "aspect must be in [1, "),
     ("oracle", "oracle.n", "9", "model dimension n must be in [1, 8]"),
     ("oracle", "oracle.n", "0", "model dimension n must be in [1, 8]")],
)
def test_main_exit_2_on_out_of_range_level_or_aspect_before_any_solve(
    tmp_path, capsys, monkeypatch, command, key, value, bound
):
    # sweep.level = 9 once solved the radial reference for every p and made
    # the output directory before the builder rejected the level; oracle.n = 9
    # did the same, and the interval oracle, which never reads n, wrote n = 0
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    for module, name in [(cli, "pinching_sweep"), (cli, "closed_eigen"),
                         (cli, "dirichlet_eigen"), (cli, "solve_radial_1d"),
                         (harness, "closed_eigen"), (harness, "solve_radial_1d")]:
        monkeypatch.setattr(module, name, no_solve)
    text = f"command = {command}\nmesh.kind = ellipsoid\n{key} = {value}"
    if value == "0":
        text += "\noracle.problem = interval"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value).startswith(f"line 3: {key}: {bound}")
    path = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 3: {key}: {bound}")
    assert not out.exists()
    bounds = parse_config(f"command = sweep\nmesh.level = 0\nsweep.level = {MAX_LEVEL}\n"
                          f"mesh.aspect = {MAX_ASPECT}")
    assert (bounds.mesh_level, bounds.sweep_level, bounds.mesh_aspect) == (0, MAX_LEVEL, MAX_ASPECT)


@pytest.mark.parametrize(
    "kind, value, least",
    [("circle", "2", 3), ("interval", "-5", 1), ("interval", "0", 1),
     ("circle", str(MAX_SEGMENTS + 1), 3), ("interval", str(MAX_SEGMENTS + 1), 1)],
)
def test_main_exit_2_on_out_of_range_segments_before_any_mesh(
    tmp_path, capsys, monkeypatch, kind, value, least
):
    # circle segments = 2 once failed in the builder, after the output
    # directory was made; an over-bound value must not reach a builder at all
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    for name in ("_build_mesh", "build_interval", "build_circle"):
        monkeypatch.setattr(cli, name, no_mesh)
    text = f"mesh.kind = {kind}\nmesh.segments = {value}\ncommand = eigen"
    bound = f"line 2: mesh.segments: {kind} segments must be in [{least}, {MAX_SEGMENTS}], got {value}"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == bound
    path = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["eigen", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bound}\n"
    assert not out.exists()


def test_segments_bounds_depend_on_the_curve_kind():
    for kind, least in (("interval", 1), ("circle", 3)):
        for value in (least, MAX_SEGMENTS):
            cfg = parse_config(f"command = mesh\nmesh.kind = {kind}\nmesh.segments = {value}")
            assert cfg.mesh_segments == value
    # surfaces never read mesh.segments
    assert parse_config("command = mesh\nmesh.kind = icosphere\nmesh.segments = 0").mesh_segments == 0


@pytest.mark.parametrize(
    "command, key, value",
    [("verify", "count", "0"), ("verify", "count", "-3"), ("verify", "thresholds", "0")],
)
def test_main_exit_2_on_empty_battery_before_any_work(
    tmp_path, capsys, monkeypatch, command, key, value
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in [(cli, "_build_mesh"), (cli, "pinching_sweep"), (cli, "closed_eigen"),
                         (cli, "dirichlet_eigen"), (harness, "closed_eigen"),
                         (harness, "dirichlet_eigen")]:
        monkeypatch.setattr(module, name, no_work)
    text = f"command = {command}\nmesh.level = 2\nbattery.{key} = {value}"
    with pytest.raises(ConfigError, match=rf"line 3: battery\.{key}: must be at least 1, got {value}"):
        parse_config(text)
    path = write_config(tmp_path, text)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"line 3: battery.{key}" in capsys.readouterr().err


def test_battery_is_range_checked_for_verify_alone():
    # the command may follow the battery line or come from the CLI positional
    for text, command in [("battery.count = 0\ncommand = verify", None),
                          ("battery.count = 0", "verify")]:
        with pytest.raises(ConfigError, match=r"line 1: battery\.count: must be at least 1, got 0"):
            parse_config(text, command)
    for command in ("mesh", "eigen", "symmetrize", "sweep", "oracle"):
        cfg = parse_config("battery.count = 0\nbattery.thresholds = -1", command)
        assert (cfg.battery_count, cfg.battery_thresholds) == (0, -1)


@pytest.mark.parametrize("ps", ["2, 2.0, 3", "2, 2.0000001"])
def test_main_exit_2_on_exponents_sharing_a_block_name(tmp_path, capsys, monkeypatch, ps):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(cli, "closed_eigen", no_solve)
    monkeypatch.setattr(cli, "dirichlet_eigen", no_solve)
    text = f"command = eigen\nmesh.level = 1\np = {ps}"
    with pytest.raises(ConfigError, match="line 3: p: exponents share the block name p2,"):
        parse_config(text)
    path = write_config(tmp_path, text)
    assert main(["eigen", "--config", path, "--out", str(tmp_path / "e")]) == 2
    assert "line 3: p: " in capsys.readouterr().err


def test_parse_keeps_raw_text():
    text = "command = mesh\nmesh.level = 1"
    assert parse_config(text).raw_text == text


# ---------------------------------------------------------------------------
# commands end to end


def test_oracle_command(tmp_path, capsys):
    cfg = parse_config(
        f"command = oracle\np = 2\noracle.n = 2\nout = {tmp_path / 'o'}"
    )
    assert run(cfg) == 0
    out = capsys.readouterr().out
    assert "radial eigenvalue p=2 n=2 hemisphere: 2" in out
    blocks = json.loads((tmp_path / "o" / "oracle.json").read_text())
    byname = {b["name"]: b for b in blocks}
    assert byname["radial_oracle_p2"]["pass"]
    assert byname["meta"]["inputs"]["seed"] == 0
    assert byname["meta"]["inputs"]["config"] == cfg.raw_text


def test_mesh_command_writes_off(tmp_path):
    cfg = parse_config(
        f"command = mesh\nmesh.kind = icosphere\nmesh.level = 2\nout = {tmp_path / 'm'}"
    )
    assert run(cfg) == 0
    mesh = read_off(tmp_path / "m" / "mesh.off")
    assert len(mesh.vertices) == 162
    blocks = json.loads((tmp_path / "m" / "mesh.json").read_text())
    names = [b["name"] for b in blocks]
    assert names == ["meta", "mesh_summary", "mesh_measure_ratio"]


def test_mesh_normalize_true_builds_the_normalized_ellipsoid(tmp_path):
    text = "command = mesh\nmesh.kind = ellipsoid\nmesh.aspect = 1.5\nmesh.level = 1\n"
    assert parse_config(text + "mesh.normalize = true").mesh_normalize is True
    metas = {}
    for flag in ("true", "false"):
        out = tmp_path / flag
        assert run(parse_config(f"{text}mesh.normalize = {flag}\nout = {out}")) == 0
        metas[flag] = json.loads((out / "mesh.json").read_text())[1]["inputs"]["meta"]
    assert metas["true"]["normalized"] is True and metas["true"]["min_curvature"] == 1.0
    assert metas["false"]["normalized"] is False and metas["false"]["min_curvature"] < 1.0


def test_eigen_command_interval(tmp_path):
    cfg = parse_config(
        "command = eigen\nmesh.kind = interval\nmesh.segments = 60\np = 2\n"
        f"out = {tmp_path / 'e'}"
    )
    assert run(cfg) == 0
    blocks = json.loads((tmp_path / "e" / "eigen.json").read_text())
    eig = next(b for b in blocks if b["name"] == "eigen_p2")
    assert eig["pass"]
    assert eig["inputs"]["p2_converged"] is True
    assert eig["lhs"] == pytest.approx(np.pi**2, rel=0.01)
    field_csv = (tmp_path / "e" / "eigen_field.csv").read_text().splitlines()
    assert field_csv[0] == "# seed = 0"
    assert field_csv[1] == "p,vertex,value"
    assert len(field_csv) == 2 + 61


def test_eigen_command_reports_grad_norm_for_every_p(tmp_path):
    cfg = parse_config(
        "command = eigen\nmesh.kind = interval\nmesh.segments = 60\np = 2, 3\n"
        f"out = {tmp_path / 'e'}"
    )
    assert run(cfg) == 0
    blocks = {b["name"]: b for b in json.loads((tmp_path / "e" / "eigen.json").read_text())}
    # p = 2 descends from its Lanczos start, which already sits at the floor
    assert blocks["eigen_p2"]["inputs"]["iterations"] == 0
    assert 0.0 < blocks["eigen_p2"]["inputs"]["grad_norm"] < 1e-12
    assert 0.0 < blocks["eigen_p3"]["inputs"]["grad_norm"] < 1e-6


def test_eigen_report_margins_are_finite_at_a_floor_stop(tmp_path):
    # the second stage of this solve stops on the floor before its first step
    text = "command = eigen\nmesh.kind = ellipsoid\nmesh.level = 4\nmesh.aspect = 1.2\np = 3\n"
    assert run(parse_config(f"{text}out = {tmp_path / 'e'}")) == 0

    def reject(constant):
        raise ValueError(f"non-finite {constant} in eigen.json")

    blocks = json.loads((tmp_path / "e" / "eigen.json").read_text(), parse_constant=reject)
    eig = next(b for b in blocks if b["name"] == "eigen_p3")
    assert eig["pass"] and math.isfinite(eig["margin"])


def test_eigen_command_reports_projection_evals_of_closed_descents(tmp_path):
    text = "command = eigen\nmesh.segments = 60\np = 2, 3\n"
    assert run(parse_config(f"{text}mesh.kind = circle\nout = {tmp_path / 'c'}")) == 0
    blocks = {b["name"]: b for b in json.loads((tmp_path / "c" / "eigen.json").read_text())}
    mesh = cli._build_mesh(parse_config(f"{text}mesh.kind = circle"))
    for p in (2, 3):
        ref = pspectral.closed_eigen(mesh, p).diagnostics["projection_evals"]
        assert blocks[f"eigen_p{p}"]["inputs"]["projection_evals"] == ref > 0
    # a Dirichlet solve projects nothing
    assert run(parse_config(f"{text}mesh.kind = interval\nout = {tmp_path / 'i'}")) == 0
    blocks = json.loads((tmp_path / "i" / "eigen.json").read_text())
    assert not any("projection_evals" in b["inputs"] for b in blocks if b["name"] != "meta")


def test_symmetrize_command(tmp_path):
    cfg = parse_config(
        "command = symmetrize\nmesh.level = 3\np = 1.5,2\n"
        f"out = {tmp_path / 's'}"
    )
    assert run(cfg) == 0
    prof = (tmp_path / "s" / "profile.csv").read_text().splitlines()
    assert prof[1] == "colatitude,value"
    blocks = json.loads((tmp_path / "s" / "symmetrize.json").read_text())
    names = {b["name"] for b in blocks}
    assert {"equimeasurability_p1.5", "equimeasurability_p2"} <= names
    assert all(b["pass"] for b in blocks)


VERIFY_BLOCKS = {
    "meta",
    "equimeasurability_z",
    "equimeasurability_random",
    "polya_szego_battery",
    "gromov_battery",
    "gromov_caps",
    "audit_mass_transport",
    "audit_energy_comparison",
}


def test_verify_command_schema_and_pass(tmp_path):
    cfg = parse_config(
        "command = verify\nmesh.level = 4\np = 2\nbattery.count = 6\n"
        f"seed = 7\nout = {tmp_path / 'v'}"
    )
    assert run(cfg) == 0
    blocks = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert {b["name"] for b in blocks} == VERIFY_BLOCKS
    for b in blocks:
        assert b["pass"], b["name"]
        assert set(b) == {"name", "inputs", "lhs", "rhs", "margin", "tolerance", "pass"}


CHECK_CONFIGS = {
    "verify": "command = verify\nmesh.level = 4\np = 2\nbattery.count = 6\nseed = 7",
    "symmetrize": "command = symmetrize\nmesh.level = 3\np = 1.5,2",
    "oracle": "command = oracle\np = 2\noracle.n = 2",
    "sweep": "command = sweep\nsweep.aspects = 1.0, 1.2\nsweep.level = 2\np = 2",
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    blocks = {}
    for command, text in CHECK_CONFIGS.items():
        out = tmp_path_factory.mktemp(command)
        assert run(parse_config(f"{text}\nout = {out}")) == 0
        blocks[command] = json.loads((out / f"{command}.json").read_text())
    return blocks


@pytest.fixture(scope="module")
def checked_blocks(reports):
    return [b for blocks in reports.values() for b in blocks]


def check_entry(name):
    # blocks numbered by p share one table entry: radial_oracle_p2 -> radial_oracle_p
    return CHECKS[re.sub(r"[0-9.]+$", "", name)]


def test_checked_blocks_follow_the_table(checked_blocks):
    rules = {
        "abs": lambda m, tol: abs(m) <= tol,
        "max": lambda m, tol: m <= tol,
        "min": lambda m, tol: m >= tol,
    }
    checked = [b for b in checked_blocks if b["tolerance"] is not None]
    assert len(checked) == 11
    for b in checked:
        sense, tol = check_entry(b["name"])
        assert b["tolerance"] == tol, b["name"]
        assert b["pass"] == rules[sense](b["margin"], tol), b["name"]


def test_no_verify_check_is_a_rounding_level_identity(reports):
    # a margin at rounding level shows a property of the quadrature, which no
    # mesh or field can make fail; radial_oracle_p2 is a solver check whose
    # margin sits near 1e-12, so the rule covers verify alone
    checked = [b for b in reports["verify"] if b["tolerance"] is not None]
    assert len(checked) == 7
    for b in checked:
        assert abs(b["margin"]) >= 1e-9, b["name"]


def test_every_table_entry_is_emitted(checked_blocks):
    emitted = {re.sub(r"[0-9.]+$", "", b["name"]) for b in checked_blocks}
    assert set(CHECKS) <= emitted


def test_verify_sweeps_one_battery_once(tmp_path, monkeypatch):
    batteries, swept = [], []
    check_battery = isoperim.check_battery

    def counting_battery(mesh, rng, count):
        fields = check_battery(mesh, rng, count)
        batteries.append(fields)
        return fields

    class CountingSweep(isoperim.LevelSweep):
        def __init__(self, field, ts):
            swept.append(field)
            super().__init__(field, ts)

    for module in (cli, isoperim):
        monkeypatch.setattr(module, "check_battery", counting_battery)
    for module in (isoperim, rearrange, harness):
        monkeypatch.setattr(module, "LevelSweep", CountingSweep)
    cfg = parse_config(
        "command = verify\nmesh.level = 3\np = 2\nbattery.count = 4\n"
        f"seed = 7\nout = {tmp_path / 'v'}"
    )
    assert run(cfg) == 0
    assert len(batteries) == 1
    for f in batteries[0]:
        assert sum(s is f for s in swept) == 1


def test_sweep_command_rows(tmp_path):
    cfg = parse_config(
        "command = sweep\nsweep.aspects = 1.0, 1.2\nsweep.level = 2\np = 2\n"
        f"battery.count = 4\nout = {tmp_path / 'w'}"
    )
    assert run(cfg) == 0
    rows = (tmp_path / "w" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "# seed = 0"
    assert rows[1] == ",".join(f.name for f in dataclasses.fields(harness.SweepRecord))
    assert rows[1].startswith("aspect,p,lam_mesh,lam_model,ratio,diameter,beta,")
    assert len(rows) == 2 + 2  # one data row per (aspect, p)
    blocks = json.loads((tmp_path / "w" / "sweep.json").read_text())
    names = {b["name"] for b in blocks}
    assert "ratio_monotone_p2" in names
    # the margin is the relative rise of ratio from the shorter diameter on
    ratio = [float(r.split(",")[4]) for r in rows[2:]]
    assert blocks[1]["margin"] == pytest.approx(ratio[1] / ratio[0] - 1.0, rel=1e-9)
    assert blocks[1]["margin"] < 0.0 and blocks[1]["pass"]


def test_sweep_monotone_block_fails_with_a_failed_row(tmp_path, monkeypatch, capsys):
    # the first solve (aspect 1.0, p = 2) raises: its row is failed, so the
    # p = 2 block's margin is NaN and the block fails; p = 3 still passes
    real, calls = harness.closed_eigen, []

    def flaky(mesh, p):
        calls.append(p)
        if len(calls) == 1:
            raise RuntimeError("synthetic solver blowup")
        return real(mesh, p)

    monkeypatch.setattr(harness, "closed_eigen", flaky)
    path = write_config(
        tmp_path, "command = sweep\nsweep.aspects = 1.0, 1.2\nsweep.level = 2\np = 2, 3"
    )
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err == "FAIL ratio_monotone_p2\n"
    blocks = {b["name"]: b for b in json.loads((tmp_path / "w" / "sweep.json").read_text())}
    p2, p3 = blocks["ratio_monotone_p2"], blocks["ratio_monotone_p3"]
    assert math.isnan(p2["margin"]) and not p2["pass"] and p2["inputs"]["rows"] == 1
    assert p3["margin"] < 0.0 and p3["pass"] and p3["inputs"]["rows"] == 2
    assert p2["tolerance"] == p3["tolerance"] == CHECKS["ratio_monotone_p"][1]


def test_sweep_monotone_block_passes_one_row_per_p(tmp_path):
    # one solved row has no neighbour to rise above: the margin is -inf
    cfg = parse_config(
        f"command = sweep\nsweep.aspects = 1.2\nsweep.level = 2\np = 2, 3\nout = {tmp_path}"
    )
    assert run(cfg) == 0
    blocks = json.loads((tmp_path / "sweep.json").read_text())[1:]
    assert [b["name"] for b in blocks] == ["ratio_monotone_p2", "ratio_monotone_p3"]
    for b in blocks:
        assert b["pass"] and b["margin"] == -math.inf and b["inputs"]["rows"] == 1


def test_sweep_draws_no_field_battery(tmp_path, monkeypatch):
    def no_battery(*args):
        raise AssertionError("sweep drew a field battery")

    for module in (cli, isoperim):
        monkeypatch.setattr(module, "check_battery", no_battery)
        monkeypatch.setattr(module, "gromov_ratio", no_battery)
    cfg = parse_config(
        "command = sweep\nsweep.aspects = 1.0, 1.2\nsweep.level = 2\np = 2, 3\n"
        f"out = {tmp_path / 'w'}"
    )
    assert run(cfg) == 0
    blocks = json.loads((tmp_path / "w" / "sweep.json").read_text())
    assert [b["name"] for b in blocks] == ["meta", "ratio_monotone_p2", "ratio_monotone_p3"]


def test_main_sweep_runs_on_empty_battery(tmp_path, capsys):
    # sweep reads no battery.* key, so an empty battery is no config error for it
    text = "command = sweep\nsweep.aspects = 1.0, 1.2\nsweep.level = 2\np = 2\nbattery.count = 0"
    assert parse_config(text).battery_count == 0
    path = write_config(tmp_path, text)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "w")]) == 0
    assert "battery" not in capsys.readouterr().err
    blocks = json.loads((tmp_path / "w" / "sweep.json").read_text())
    assert [b["name"] for b in blocks] == ["meta", "ratio_monotone_p2"]


IMPORT_FOOTPRINT = """
import sys
from pspec import cli

def check(step):
    heavy = ("scipy.optimize", "scipy.integrate", "scipy.special")
    loaded = [m for m in heavy if m in sys.modules]
    assert not loaded, f"{step} loaded {loaded}"

check("import pspec.cli")
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    # exit 1: some checks fail on a level-2 mesh; 2 would mean the run stopped
    assert cli.main([command, "--config", path]) in (0, 1)
    check(command)
"""


def test_cli_never_loads_scipy_optimize_integrate_or_special(tmp_path):
    # import time counts in every run: the package loads only scipy.sparse and
    # scipy.linalg, and no command imports more later on
    configs = {
        "verify": "mesh.level = 2\np = 1.5, 2\nbattery.count = 4\n",
        "sweep": "sweep.aspects = 1.0, 1.2\nsweep.level = 2\np = 1.5, 2\nbattery.count = 4\n",
        "eigen": "mesh.kind = ellipsoid\nmesh.level = 2\neigen.domain = hemisphere\np = 2, 3\n",
        "oracle": "p = 1.5, 2, 3\noracle.n = 2\n",
        "symmetrize": "mesh.level = 2\np = 1.5, 2\n",
        "mesh": "mesh.kind = icosphere\nmesh.level = 2\n",
    }
    args = []
    for command, text in configs.items():
        text = f"command = {command}\n{text}out = {tmp_path / command}"
        args += [command, write_config(tmp_path, text, f"{command}.cfg")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    package_root = str(Path(pspec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT, *args],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    for command in configs:
        assert (tmp_path / command / f"{command}.json").exists()


# ---------------------------------------------------------------------------
# exit codes and determinism


def test_main_exit_2_on_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, "command = eigen\np = 0.9")
    assert main(["eigen", "--config", path]) == 2
    assert "p exponent" in capsys.readouterr().err
    assert main(["eigen", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_main_exit_2_on_runtime_error(tmp_path, capsys):
    path = write_config(tmp_path, "command = symmetrize\nmesh.kind = interval")
    assert main(["symmetrize", "--config", path, "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["circle", "interval"])
def test_verify_rejects_a_curve(tmp_path, capsys, kind):
    path = write_config(tmp_path, f"command = verify\nmesh.kind = {kind}\nmesh.segments = 20")
    assert main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == 2
    assert capsys.readouterr().err == "error: verify command expects a closed surface mesh\n"
    assert not (tmp_path / "v" / "verify.json").exists()


def test_verify_fails_when_curvature_hypothesis_broken(tmp_path, capsys):
    # stretched, unnormalized ellipsoid: min curvature 1/aspect^2 < 1, so the
    # cap comparisons legitimately fail and the process reports it
    path = write_config(
        tmp_path,
        "command = verify\nmesh.kind = ellipsoid\nmesh.aspect = 2.0\n"
        "mesh.normalize = false\nmesh.level = 3\np = 2\nbattery.count = 4\n"
        "battery.thresholds = 2",
    )
    with pytest.warns(UserWarning):
        code = main(["verify", "--config", path, "--out", str(tmp_path / "neg")])
    assert code == 1
    err = capsys.readouterr().err
    assert "FAIL gromov_battery" in err


def test_main_overrides_and_determinism(tmp_path):
    path = write_config(
        tmp_path,
        "command = oracle\np = 1.5, 2\noracle.problem = interval\noracle.n = 2",
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["oracle", "--config", path, "--out", str(a), "--seed", "9"]) == 0
    assert main(["oracle", "--config", path, "--out", str(b), "--seed", "9"]) == 0
    assert filecmp.cmp(a / "oracle.json", b / "oracle.json", shallow=False)
    blocks = json.loads((a / "oracle.json").read_text())
    meta = next(b for b in blocks if b["name"] == "meta")
    assert meta["inputs"]["seed"] == 9


REPO_ROOT = Path(__file__).resolve().parents[1]

# The wrapper pip (through distlib) writes into bin/ for a [project.scripts]
# entry "name = module:attr".
SCRIPT_TEMPLATE = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def declared_console_script(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert name in scripts, f"pyproject.toml declares no {name!r} console script"
    return scripts[name]


def write_console_script(bin_dir, name, spec):
    module, _, attr = spec.partition(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        SCRIPT_TEMPLATE.format(
            python=sys.executable,
            module=module.strip(),
            import_name=attr.strip().split(".")[0],
            func=attr.strip(),
        )
    )
    script.chmod(0o755)


def run_oracle_via_script(tmp_path, executable, env=None, prefix=()):
    path = write_config(tmp_path, "command = oracle\np = 2")
    return subprocess.run(
        [executable, *prefix, "oracle", "--config", path, "--out", str(tmp_path / "cli")],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )


def test_console_script_entry_point(tmp_path):
    # run the console script that pyproject.toml declares the way an installed
    # one runs: a wrapper found on PATH, importing the package under test
    bin_dir = tmp_path / "bin"
    write_console_script(bin_dir, "pspec", declared_console_script("pspec"))
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    package_root = str(Path(pspec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = run_oracle_via_script(tmp_path, "pspec", env=env)
    assert proc.returncode == 0, proc.stderr
    assert "radial eigenvalue" in proc.stdout


@pytest.mark.skipif(
    shutil.which("pspec") is None, reason="pspec console script not installed on PATH"
)
def test_installed_console_script(tmp_path):
    proc = run_oracle_via_script(tmp_path, shutil.which("pspec"))
    assert proc.returncode == 0, proc.stderr
    assert "radial eigenvalue" in proc.stdout


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    package_root = str(Path(pspec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = run_oracle_via_script(tmp_path, sys.executable, env=env, prefix=["-m", "pspec"])
    assert proc.returncode == 0, proc.stderr
    assert "radial eigenvalue" in proc.stdout


def test_python_entrypoint_module():
    proc = subprocess.run(
        [sys.executable, "-c", "import pspec; print(pspec.__version__)"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
