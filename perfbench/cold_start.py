"""Set-up time of one workload in a fresh process.

    python3 perfbench/cold_start.py WORKLOAD SEED [--rss]

Prints one JSON line: ``setup_s_raw`` is the time to import cfomech plus the
time to evaluate one point of the workload's code path cold; building the
benchmark's own inputs in between is not counted. ``setup_s`` is the same at
the speed probe's reference speed, from the probe kernel timed just before
and just after the cold point. With ``--rss`` one full pass follows and
``maxrss_kb`` reports the peak resident set size.
run.py starts this script with the BLAS thread variables already pinned.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import cfomech  # noqa: E402,F401
import cfomech.cli  # noqa: E402,F401

_imported = time.perf_counter()

import speed  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.make(name, seed)
    before = speed.kernel_s()
    t0 = time.perf_counter()
    wl.cold_point()
    raw = (_imported - _start) + (time.perf_counter() - t0)
    kernel = 0.5 * (before + speed.kernel_s())
    result = {"setup_s": raw * speed.REFERENCE_S / kernel, "setup_s_raw": raw}
    if "--rss" in sys.argv[3:]:
        for key in wl.keys:
            wl.call(key)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
