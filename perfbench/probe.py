"""Set-up probe for one workload, run in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Prints the seconds from interpreter start-up to the point where
``metaprop`` is imported and the workload's inputs are generated and
parsed, which is what a user waits for before the first op.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402


def main(argv):
    name, seed, workdir = argv
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].prepare(int(seed), workdir)
    print(perf_counter() - START)


if __name__ == "__main__":
    main(sys.argv[1:])
