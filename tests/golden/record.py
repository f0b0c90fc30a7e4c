"""Rewrite the golden reports that tests/test_golden.py compares against.

Run from the repository root when a change moves reported numbers on
purpose:

    PYTHONPATH=src python tests/golden/record.py

Each ``<command>.cfg`` here is run through ``pspec.cli.main`` and the JSON
and CSV reports it writes replace the files in ``<command>/``. List every
field that moved in CHANGES.md.
"""

from __future__ import annotations

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


def record():
    for cfg in sorted(GOLDEN.glob("*.cfg")):
        with tempfile.TemporaryDirectory() as tmp:
            code = run_case(cfg, Path(tmp))
            if code not in (0, 1):
                raise SystemExit(f"{cfg.name}: pspec exited {code}")
            dest = GOLDEN / cfg.stem
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir()
            for name, path in reports(Path(tmp)).items():
                shutil.copyfile(path, dest / name)
                print(f"recorded {cfg.stem}/{name}")


if __name__ == "__main__":
    record()
