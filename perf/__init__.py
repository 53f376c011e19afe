"""The whole-stack benchmark: see perf/README.md and BENCHMARK.json."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The program under test is the src-layout package next to this directory;
# the benchmark imports it exactly as `PYTHONPATH=src` would.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
