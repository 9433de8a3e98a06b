"""Set-up probe: what a fresh interpreter pays before its first result.

Imports nctorus, builds the inputs of the workload's first cycle and runs
its first operation once.  ``run.py`` times this script from spawn to exit.

    python3 perfbench/probe.py --workload paper-mix --seed 1
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import nctorus  # noqa: E402,F401  (the program's import cost comes first)

import calls  # noqa: E402
from workloads import WORKLOADS, Stream  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    prepared = [calls.prepare(spec) for spec in Stream(args.workload, args.seed).cycle()]
    prepared[0]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
