"""Set-up step of one benchmark run, in a process of its own.

    python3 perfbench/generate.py <workload> <seed> <directory> [--small]

Imports the package from ``src/`` and writes the workload's input files.
The benchmark times whole runs of this script as its set-up time.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, generate  # noqa: E402

if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    generate(WORKLOADS[name](small="--small" in sys.argv[4:]), seed, directory)
