"""Rewrite the golden reports that tests/test_golden.py compares against.

Run from the repository root when a change moves reported numbers on
purpose:

    PYTHONPATH=src python tests/golden/record.py

Each ``<command>.cfg`` here is run through ``pspec.cli.main`` and the JSON
and CSV reports it writes replace the files in ``<command>/``. For every
report it rewrites, it prints each field whose value changed, as
``where: old -> new`` (exact comparison); list them in CHANGES.md.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import tempfile
from pathlib import Path

from pspec.cli import main

GOLDEN = Path(__file__).resolve().parent
REPORT_SUFFIXES = (".json", ".csv")


def run_case(cfg, outdir):
    """Run one golden config into outdir; returns the CLI exit status."""
    return main([cfg.stem, "--config", str(cfg), "--out", str(outdir)])


def reports(outdir):
    """Report files of a run by name (the mesh OFF file is not a report)."""
    return {p.name: p for p in sorted(outdir.iterdir()) if p.suffix in REPORT_SUFFIXES}


def _cell(s):
    # CSV numbers are printed with %.12g, so an int column and a float
    # column look alike: every number reads as a float
    try:
        return float(s)
    except ValueError:
        return s


def load_report(path):
    """A report as nested dicts and lists of its fields.

    A JSON report maps ``"blocks"`` to its block names in order and each
    name to its block. A CSV report maps ``"seed"`` and ``"header"`` to its
    first two lines and ``"line <n>"`` to data line n: its cells by column,
    or the list of its cells when its width is not the header's.
    """
    if path.suffix == ".json":
        blocks = json.loads(path.read_text())
        return {"blocks": [b["name"] for b in blocks], **{b["name"]: b for b in blocks}}
    seed, header, *rows = csv.reader(path.read_text().splitlines())
    fields = {"seed": seed, "header": header}
    for lineno, row in enumerate(rows, start=3):
        cells = [_cell(s) for s in row]
        fields[f"line {lineno}"] = dict(zip(header, cells)) if len(row) == len(header) else cells
    return fields


class _Absent:
    """The missing side of a key that only one of two reports has."""

    def __repr__(self):
        return "absent"


ABSENT = _Absent()


def changed_fields(new, old, same, where=()):
    """Yield (where, new, old) for every field in which two reports differ.

    ``new`` and ``old`` are :func:`load_report` trees; ``where`` is the
    tuple of keys and indices down to the field. A key that only one of two
    dicts has yields its value against :data:`ABSENT`, and the walk goes on
    through the keys both share; lists of different lengths yield their
    lengths at ``where + ("length",)``; any other pair differs when
    ``same(where, new, old)`` is false.
    """
    if isinstance(new, dict) and isinstance(old, dict):
        for key in old:
            if key in new:
                yield from changed_fields(new[key], old[key], same, where + (key,))
            else:
                yield where + (key,), ABSENT, old[key]
        for key in new:
            if key not in old:
                yield where + (key,), new[key], ABSENT
    elif isinstance(new, list) and isinstance(old, list):
        if len(new) != len(old):
            yield where + ("length",), len(new), len(old)
            return
        for i, (n, o) in enumerate(zip(new, old)):
            yield from changed_fields(n, o, same, where + (i,))
    elif not same(where, new, old):
        yield where, new, old


def exactly_same(where, new, old):
    """Equal value and type, NaN equal to NaN."""
    if type(new) is not type(old):
        return False
    return new == old or (type(new) is float and math.isnan(new) and math.isnan(old))


def record():
    for cfg in sorted(GOLDEN.glob("*.cfg")):
        with tempfile.TemporaryDirectory() as tmp:
            code = run_case(cfg, Path(tmp))
            if code not in (0, 1):
                raise SystemExit(f"{cfg.name}: pspec exited {code}")
            dest = GOLDEN / cfg.stem
            old = reports(dest) if dest.is_dir() else {}
            new = reports(Path(tmp))
            for name in sorted(old.keys() - new.keys()):
                print(f"removed {cfg.stem}/{name}")
            for name, path in new.items():
                if name not in old:
                    print(f"added {cfg.stem}/{name}")
                    continue
                trees = load_report(path), load_report(old[name])
                for where, n, o in changed_fields(*trees, exactly_same):
                    print(f"{cfg.stem}/{name}/{'/'.join(map(str, where))}: {o!r} -> {n!r}")
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir()
            for name, path in new.items():
                shutil.copyfile(path, dest / name)
                print(f"recorded {cfg.stem}/{name}")


if __name__ == "__main__":
    record()
