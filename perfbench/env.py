"""BLAS thread pins and the environment record written into every report.

The pins must be in the environment before numpy is first imported, so
``pin_blas`` runs at the top of each entry point and child processes
inherit the variables.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "conebarriers"


def pin_blas() -> None:
    os.environ.update(BLAS_PINS)


def package_present() -> bool:
    return (PACKAGE / "__init__.py").is_file()


def environment_record(seed: int) -> dict:
    """Versions, core count, BLAS pins, seed and ``src/`` line counts.

    The line counts are informational, for the project's aim of less code;
    they are not a metric.
    """
    import numpy
    import scipy

    lines = {p.name: sum(1 for _ in p.open()) for p in sorted(PACKAGE.glob("*.py"))}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
        "seed": seed,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }
