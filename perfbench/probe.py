"""Set-up probe, run in a fresh process by run.py.

Prints the seconds taken by `import hamext` plus the first call of
every public function the named workload uses (which fills the
library's process-level caches), then the median reference-loop time
measured just before, for scaling.

    python3 perfbench/probe.py corrupt_campaign
"""

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (imports no hamext code)


def main(name: str) -> None:
    ref = statistics.median(run.reference_time() for _ in range(15))
    start = time.perf_counter()
    import workloads  # imports hamext
    workloads.WORKLOADS[name].warm(workloads.Context(HERE.parent / ".bench_out"))
    print(repr(time.perf_counter() - start), repr(ref))


if __name__ == "__main__":
    main(sys.argv[1])
