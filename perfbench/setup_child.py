"""Set-up time of the benchmark in a fresh interpreter.

Run as ``python3 perfbench/setup_child.py``: imports octorail with its
command-line module and dependencies, runs the warm-up and prints the
seconds this took.  ``run.py`` starts it several times per
run and reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import load_octorail, warm_up  # noqa: E402

warm_up(load_octorail())
print(repr(time.perf_counter() - T0))
