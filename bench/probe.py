"""Set-up probe: a fresh interpreter that imports azw and generates one
workload's inputs, then exits. `run.py` times it from spawn to exit.

    python3 bench/probe.py <workload> <seed>      (from the repository root)
"""

from __future__ import annotations

import importlib
import os
import sys

# workload name -> module in this directory
WORKLOADS = {"exact-ladder": "exact", "numeric-grid": "numeric", "cli-mix": "climix"}


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import azw  # noqa: F401  (the import is what is being timed)
    importlib.import_module(WORKLOADS[workload]).generate_inputs(seed)


if __name__ == "__main__":
    main()
