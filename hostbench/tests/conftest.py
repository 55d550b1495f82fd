"""Make the benchmark's modules and the simulator importable."""

import sys
from pathlib import Path

HOSTBENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HOSTBENCH.parent / "src"), str(HOSTBENCH)]
