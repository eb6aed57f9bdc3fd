"""Helper processes of run.py.

    python3 bench/child.py setup WORKLOAD SEED   set a workload up, print the
                                                 CLOCK_MONOTONIC time when ready
    python3 bench/child.py repro                 print the result bytes of the
                                                 reproducibility solve as hex
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        workloads.WORKLOADS[argv[1]](int(argv[2]), workdir="")
        print(repr(time.monotonic()))
        return 0
    if argv == ["repro"]:
        print(workloads.repro_bytes())
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
