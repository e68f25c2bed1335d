"""Entry point: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of the
same checkout, never from an installed copy; without it the run stops with a
nonzero exit code and prints no result.  BLAS threads default to one (an
environment variable already set wins), which keeps timings steadier on a
small machine.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _bootstrap():
    src = ROOT / "src"
    # replace the script's own directory, whose module names are not unique
    sys.path[0:1] = [str(src), str(ROOT)]
    from perfbench import THREAD_VARS
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        import quatinv.qcore
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import quatinv from {src}: {exc}")
    found = Path(quatinv.qcore.__file__).resolve().parent
    if found != src / "quatinv":
        sys.exit(f"perfbench: quatinv resolved to {found}, not {src}")
    from perfbench import bench
    return bench


if __name__ == "__main__":
    bench = _bootstrap()
    sys.exit(bench.main(sys.argv[1:], import_s=time.perf_counter() - _START))
