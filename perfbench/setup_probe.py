#!/usr/bin/env python3
"""Set-up probe: what a command-line user pays before the first level.

Starts the interpreter, imports the program (and with it numpy and scipy)
from the checkout's ``src`` directory, generates the workload's inputs,
prints the time on the system-wide monotonic clock and exits. ``run.py``
takes ``setup_s`` from that time.

    python3 perfbench/setup_probe.py --workload multimode-d2 --seed 1
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, cli_args, load_modes

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ``fracdiff`` from this checkout's sources, never from an
    installed copy; exit with code 2 when the sources are not there."""
    src = ROOT / "src"
    if not (src / "fracdiff" / "cli.py").is_file():
        raise SystemExit(f"error: no program sources under {src}")
    sys.path.insert(0, str(src))
    fracdiff = importlib.import_module("fracdiff")
    importlib.import_module("fracdiff.cli")
    if Path(fracdiff.__file__).resolve().parent != src / "fracdiff":
        raise SystemExit(f"error: imported fracdiff from {fracdiff.__file__}, not {src}")
    return fracdiff


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    import_program()
    workload = WORKLOADS[args.workload]
    modes = load_modes(workload, args.seed)
    for level in workload.levels:
        cli_args(level, modes, "unused")
    # the moment the first level could start, for the parent to subtract
    # its spawn time from
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
