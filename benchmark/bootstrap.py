"""Make the checkout's own `src/slice_radon` importable, with thread pools capped.

The benchmark measures the program in the checkout it sits in, from source,
without installing it. It must therefore refuse to run when `src/` is
missing rather than pick up some other copy of the package.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# numpy and scipy each load their own OpenBLAS; one thread per pool keeps the
# whole process within the 2 cores of the reference machine. The workloads
# make no BLAS calls on their timed path.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def use_checkout_src():
    """Cap thread pools and put `src/` first on the import path.

    Call before anything imports numpy. Exits with status 2 when the
    checkout holds no program source, or when `slice_radon` would be
    imported from elsewhere.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "slice_radon" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC / 'slice_radon'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import slice_radon
    if Path(slice_radon.__file__).resolve().parent != SRC / "slice_radon":
        print(f"benchmark: slice_radon imported from {slice_radon.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
