"""Find the program under test: ``src/repro`` of the checkout the benchmark
runs from (the current directory).  Anything else -- an installed copy, a
missing tree -- is refused, so a run never measures the wrong code."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
REPRO_DIR = SRC / "repro"


class MissingProgram(SystemExit):
    def __init__(self, why: str):
        super().__init__(f"e2ebench: {why}")


def check_checkout() -> None:
    if not (REPRO_DIR / "__init__.py").is_file():
        raise MissingProgram(
            f"no program to benchmark: {REPRO_DIR} is missing "
            "(run from the root of a checkout)"
        )


def import_repro():
    check_checkout()
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve().parent
    if where != REPRO_DIR:
        raise MissingProgram(f"imported repro from {where}, not {REPRO_DIR}")
    return repro


def child_env() -> dict:
    """The environment a benchmark child runs in: the caller's, minus every
    ``REPRO_*`` knob, so the program runs with its defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
