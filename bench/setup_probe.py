"""Time one workload's set-up in this fresh interpreter and print the seconds.

    python3 bench/setup_probe.py WORKLOAD ROOT

Set-up is what a run does before its first op: importing drfrontier (for
cli_fixtures, `import drfrontier.cli`, which also fills the bytecode cache)
and loading the shipped fixtures the workload reads.
"""

import sys
import time

import workloads


def main() -> None:
    name, root = sys.argv[1], sys.argv[2]
    workload = workloads.WORKLOADS[name](root, seed=0, env=None)
    start = time.perf_counter()
    workload.load()
    print(f"{time.perf_counter() - start:.9f}")


if __name__ == "__main__":
    main()
