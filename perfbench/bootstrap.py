"""Process set-up shared by the benchmark and its set-up probe.

Pins the thread environment before numpy is first imported, then imports
``vblast`` from the checkout's own ``src`` directory and nowhere else.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# scratch directory for the CSVs the sweeps write; removed when a run ends
OUT_DIR = ROOT / ".perfbench_out"

# one worker process and single-threaded BLAS: the benchmark is one closed
# loop from one client
PINNED_ENV = {
    "VBLAST_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}


class MissingProgram(RuntimeError):
    """The checkout holds no importable vblast package under ``src``."""


def pin_environment() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("thread environment must be pinned before numpy is imported")
    os.environ.update(PINNED_ENV)


def import_vblast():
    """Import vblast from ``<checkout>/src``; raise MissingProgram otherwise."""
    if not (SRC / "vblast" / "__init__.py").is_file():
        raise MissingProgram(f"no vblast package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        vblast = importlib.import_module("vblast")
    except ImportError as exc:
        raise MissingProgram(f"cannot import vblast from {SRC}: {exc}") from exc
    origin = Path(vblast.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"vblast was imported from {origin}, not from {SRC}")
    return vblast
