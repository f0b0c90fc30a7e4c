"""Golden reports: tiny verify, sweep and eigen runs compared field by field.

The goldens in tests/golden/ are rewritten on purpose by
``tests/golden/record.py``. Names, pass flags, strings and ints must match
exactly; floats within relative 1e-6 (absolute floor 1e-12). Solver-path
fields, whose stopping point moves with rounding, only need to be present.
"""

import csv
import json
import math

import pytest

from golden.record import GOLDEN, reports, run_case

CASES = sorted(p.stem for p in GOLDEN.glob("*.cfg"))

REL_TOL = 1e-6
ABS_FLOOR = 1e-12
SOLVER_PATH = {"iterations", "grad_norm", "projection_evals", "p2_iterations"}


def _close(got, want):
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_FLOOR)


def _compare(got, want, where, mismatches):
    if isinstance(want, bool) or isinstance(got, bool):
        ok = got is want
    elif type(want) is float and type(got) is float:
        ok = _close(got, want) or (math.isnan(want) and math.isnan(got))
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            mismatches.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
            return
        for key in sorted(want):
            if key not in SOLVER_PATH:
                _compare(got[key], want[key], f"{where}.{key}", mismatches)
        return
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            mismatches.append(f"{where}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]", mismatches)
        return
    else:
        ok = type(got) is type(want) and got == want
    if not ok:
        mismatches.append(f"{where}: {got!r} != {want!r}")


def _compare_json(got_path, want_path, mismatches):
    got, want = (json.loads(p.read_text()) for p in (got_path, want_path))
    if [b["name"] for b in got] != [b["name"] for b in want]:
        mismatches.append(f"{want_path.name}: block names differ")
        return
    for g, w in zip(got, want):
        where = f"{want_path.name}:{w['name']}"
        if w["name"].startswith("eigen_p"):
            # the residual at the stopping point is a solver-path field
            assert "margin" in g, f"{where}: margin missing"
            g, w = dict(g, margin=None), dict(w, margin=None)
        _compare(g, w, where, mismatches)


def _cell(s):
    for kind in (int, float):
        try:
            return kind(s)
        except ValueError:
            pass
    return s


def _compare_csv(got_path, want_path, mismatches):
    got, want = (list(csv.reader(p.read_text().splitlines())) for p in (got_path, want_path))
    if got[:2] != want[:2] or len(got) != len(want):
        mismatches.append(f"{want_path.name}: seed line, header or row count differ")
        return
    header = want[1]
    for r, (grow, wrow) in enumerate(zip(got[2:], want[2:]), start=3):
        if len(grow) != len(wrow):
            mismatches.append(f"{want_path.name} line {r}: width differs")
            continue
        for col, g, w in zip(header, grow, wrow):
            if col in SOLVER_PATH:
                if not g:
                    mismatches.append(f"{want_path.name} line {r}.{col}: empty")
                continue
            g, w = _cell(g), _cell(w)
            if {type(g), type(w)} == {int, float}:
                # a float printed with %.12g may look like an int
                g, w = float(g), float(w)
            _compare(g, w, f"{want_path.name} line {r}.{col}", mismatches)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, tmp_path):
    code = run_case(GOLDEN / f"{case}.cfg", tmp_path)
    assert code in (0, 1)  # 1 only flags failed checks, whose pass flags are compared
    got, want = reports(tmp_path), reports(GOLDEN / case)
    assert sorted(got) == sorted(want)
    mismatches = []
    for name, path in want.items():
        compare = _compare_json if name.endswith(".json") else _compare_csv
        compare(got[name], path, mismatches)
    assert not mismatches, "\n".join(mismatches[:20])


def test_golden_cases_cover_three_commands():
    assert CASES == ["eigen", "sweep", "verify"]
