"""Golden tables for the paper experiments (figures and ablations).

The tiny-scale smoke tests of every figure and ablation also compare the
produced table — headers, rows, notes and series — against
``tests/golden/paper_tables.json``, keyed by the result's figure label.
A refactor of the experiment code must keep every table byte-identical.

To regenerate after an *intentional* change to an experiment::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests \\
        -k "TestFigures or TestAblationsRun"
"""

from __future__ import annotations

import json
import os
from pathlib import Path

FIXTURE = Path(__file__).parent / "golden" / "paper_tables.json"


def _canonical(result) -> str:
    return json.dumps(
        {
            "headers": result.headers,
            "rows": result.rows,
            "notes": result.notes,
            "series": result.series,
        },
        sort_keys=True,
    )


def _load() -> dict:
    if not FIXTURE.exists():
        return {}
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def assert_matches_golden(result) -> None:
    """The result's table must equal its pinned fixture entry exactly."""
    fresh = _canonical(result)
    tables = _load()
    if os.environ.get("REGEN_GOLDEN"):
        tables[result.figure] = json.loads(fresh)
        FIXTURE.write_text(
            json.dumps(tables, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        return
    assert result.figure in tables, (
        f"no golden table for {result.figure!r}; regenerate with REGEN_GOLDEN=1"
    )
    assert fresh == json.dumps(tables[result.figure], sort_keys=True), (
        f"{result.figure} table differs from {FIXTURE.name}"
    )
