"""Set-up probe: one fresh process doing exactly the benchmark's set-up.

Usage: ``python3 perfbench/probe.py <workload> <seed>``.  It imports vblast,
builds the workload's inputs, warms each detector up once and prints
``ready``; ``run.py`` times it from spawn to that line.
"""

import sys

import bootstrap


def main(workload: str, seed: int) -> int:
    bootstrap.pin_environment()
    bootstrap.import_vblast()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, bootstrap.OUT_DIR)
    wl.setup()
    wl.warm_up()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
