"""Golden reports: a tiny run of every command compared field by field.

The goldens in tests/golden/ are rewritten on purpose by
``tests/golden/record.py``, whose field walk this test shares. Names, pass
flags, strings and ints must match exactly; floats within relative 1e-6
(absolute floor 1e-12). Solver-path fields, whose stopping point moves with
rounding, only need to be present.
"""

import math

import pytest

from golden.record import ABSENT, GOLDEN, changed_fields, exactly_same, load_report, reports, run_case
from pspec.cli import COMMANDS

CASES = sorted(p.stem for p in GOLDEN.glob("*.cfg"))

REL_TOL = 1e-6
ABS_FLOOR = 1e-12
SOLVER_PATH = {"iterations", "grad_norm", "projection_evals", "p2_iterations"}


def _close(got, want):
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_FLOOR)


def _same(where, got, want):
    if where[-1] in SOLVER_PATH:
        return got != ""  # present and, in a CSV, not empty
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if type(want) is float and type(got) is float:
        return _close(got, want) or (math.isnan(want) and math.isnan(got))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, tmp_path):
    code = run_case(GOLDEN / f"{case}.cfg", tmp_path)
    assert code in (0, 1)  # 1 only flags failed checks, whose pass flags are compared
    got, want = reports(tmp_path), reports(GOLDEN / case)
    assert sorted(got) == sorted(want)
    mismatches = [
        f"{name}/{'/'.join(map(str, where))}: {g!r} != {w!r}"
        for name, path in want.items()
        for where, g, w in changed_fields(load_report(got[name]), load_report(path), _same)
    ]
    assert not mismatches, "\n".join(mismatches[:20])


def test_golden_verify_passes_every_check(tmp_path):
    # a level-3 mesh: the coarse end of what the fixed tolerances must pass
    assert run_case(GOLDEN / "verify.cfg", tmp_path) == 0


def test_golden_cases_cover_every_command():
    assert CASES == sorted(COMMANDS) == ["eigen", "mesh", "oracle", "sweep", "symmetrize", "verify"]


def test_field_walk_reports_key_changes_and_shared_fields():
    # a block added and a shared float changed: the key difference must not
    # hide the changed float (or a block removed from the other side)
    old = {"blocks": ["meta", "a"], "meta": {"seed": 7}, "a": {"margin": 0.25, "pass": True}}
    new = {
        "blocks": ["meta", "a", "b"],
        "meta": {"seed": 7},
        "a": {"margin": 0.5, "pass": True},
        "b": {"margin": 1.0},
    }
    assert list(changed_fields(new, old, exactly_same)) == [
        (("blocks", "length"), 3, 2),
        (("a", "margin"), 0.5, 0.25),
        (("b",), {"margin": 1.0}, ABSENT),
    ]
    assert list(changed_fields(old, new, exactly_same)) == [
        (("blocks", "length"), 2, 3),
        (("a", "margin"), 0.25, 0.5),
        (("b",), ABSENT, {"margin": 1.0}),
    ]
