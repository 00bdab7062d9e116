"""One set-up of a benchmark run, timed in a fresh process.

Set-up is what a user pays before the first operation: importing torusma and
numpy, generating the inputs from the seed and writing the snapshot and
config files.  It runs in its own process so that the import is cold each
time.

Usage: python3 perfbench/prepare.py --workload NAME --seed N --out DIR
The last line of standard output is {"setup_s": <seconds>}.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import problems

    if args.workload not in problems.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    problems.prepare(args.workload, args.seed, Path(args.out))
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


if __name__ == "__main__":
    main()
