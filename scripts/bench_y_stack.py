#!/usr/bin/env python3
"""Before/after medians of the extended-direction work, as JSON.

Runs, for two checkouts of this repository and alternating between them
(the "before" checkout first in even pairs, counting from 0, and the "after"
checkout first in odd ones, so drift within a pair favours neither):

* the benchmark workloads through each checkout's own ``perfbench/run.py``
  (untraced, seed 1), reading ``study_s``, ``peak_rss_mb``, ``setup_s`` and
  ``completed_share`` from its last line;
* five scale levels, ``fracdiff solve --d 2`` with h-FEM s=0.8 n=1024 and
  n=2048, hp-FEM s=0.8 n=2048, and hp-FEM s=0.2 n=1024 and n=2048 (the most
  bumps an element), each in a fresh interpreter, reading the wall time of
  the ``solve`` call and the peak RSS of the process.

Every run uses one BLAS thread. The output holds the median and quartiles
of each side and how many of the pairs the second checkout won.

    python3 scripts/bench_y_stack.py --before ../parent --after . --pairs 10 \\
        --out BENCH_y_stack.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("multimode-d2", "small-s-d1")
SCALE_LEVELS = (("hfem", 0.8, 1024), ("hfem", 0.8, 2048), ("hpfem", 0.8, 2048),
                ("hpfem", 0.2, 1024), ("hpfem", 0.2, 2048))
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

SCALE_PROBE = """
import resource, sys, tempfile, time
from fracdiff.cli import main
with tempfile.TemporaryDirectory() as out:
    t0 = time.perf_counter()
    code = main(["solve", "--scheme", sys.argv[1], "--s", sys.argv[2], "--d", "2",
                 "--n", sys.argv[3], "--out", out + "/run"])
    wall = time.perf_counter() - t0
print(code, wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def workload_run(root: Path, workload: str, seconds: float) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, env=ENV, check=True, capture_output=True, text=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def scale_name(scheme: str, s: float, n: int) -> str:
    return f"{scheme}-s{s:g}-n{n}"


def scale_run(root: Path, scheme: str, s: float, n: int) -> dict:
    env = dict(ENV, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", SCALE_PROBE, scheme, str(s), str(n)], env=env,
                          check=True, capture_output=True, text=True)
    code, wall, peak = done.stdout.split()[-3:]
    if code != "0":
        raise SystemExit(f"{root}: solve {scheme} s={s:g} n={n} exited {code}")
    return {"wall_s": float(wall), "peak_rss_mb": float(peak)}


def summary(before: list[float], after: list[float], lower_is_better: bool = True) -> dict:
    def side(values):
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        return {"median": statistics.median(values), "quartiles": [q[0], q[2]],
                "samples": values}

    wins = sum((a < b) if lower_is_better else (a > b) for b, a in zip(before, after))
    return {"before": side(before), "after": side(after), "after_better_pairs": wins,
            "pairs": len(before)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--before", type=Path, required=True, help="checkout of the baseline")
    parser.add_argument("--after", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10, help="alternating runs per side")
    parser.add_argument("--seconds", type=float, default=45.0, help="perfbench run budget")
    parser.add_argument("--out", type=Path, default=Path("BENCH_y_stack.json"))
    args = parser.parse_args(argv)
    roots = {"before": args.before.resolve(), "after": args.after.resolve()}

    runs = {side: {"workloads": {w: [] for w in WORKLOADS},
                   "scale": {scale_name(*level): [] for level in SCALE_LEVELS}}
            for side in roots}
    for i in range(args.pairs):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            root = roots[side]
            for w in WORKLOADS:
                runs[side]["workloads"][w].append(workload_run(root, w, args.seconds))
            for level in SCALE_LEVELS:
                runs[side]["scale"][scale_name(*level)].append(scale_run(root, *level))
        print(f"pair {i + 1} of {args.pairs} done", file=sys.stderr)

    def column(side, kind, name, key):
        return [run[key] for run in runs[side][kind][name]]

    report = {
        "machine": {"python": platform.python_version(), "machine": platform.machine(),
                    "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1},
        "protocol": (f"{args.pairs} pairs, before first in even pairs and after first in odd "
                     "ones (counting from 0); workloads: perfbench/run.py --seed 1 "
                     f"--seconds {args.seconds:g} --trace 0; scale: fracdiff solve --d 2 in a fresh "
                     "interpreter"),
        "workloads": {w: {key: summary(column("before", "workloads", w, key),
                                       column("after", "workloads", w, key),
                                       lower_is_better=key != "completed_share")
                          for key in ("study_s", "peak_rss_mb", "setup_s", "completed_share")}
                      for w in WORKLOADS},
        "scale": {name: {key: summary(column("before", "scale", name, key),
                                      column("after", "scale", name, key))
                         for key in ("wall_s", "peak_rss_mb")}
                  for name in runs["before"]["scale"]},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
