"""Set-up probe: build one workload in a fresh process and print the monotonic clock.

``run.py`` starts this script several times and takes, for each, the time
from spawning it to the printed clock reading: interpreter start, imports,
config parsing and spec build, everything before the first operation.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import SIZES, WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), SIZES["full"], ROOT / ".bench_out" / "probe")
print(time.monotonic())
