import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pin  # noqa: E402,F401  (pins BLAS/OpenMP threads before numpy loads)
