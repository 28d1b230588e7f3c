#!/usr/bin/env python3
"""fracdiff benchmark: refinement studies through the public CLI entry.

One operation is one refinement level: one ``fracdiff.cli.main(["solve",
..., "--n", n])`` call. A pass runs every level of the workload in order; a
level that exits non-zero is counted as failed and the pass goes on. Passes
are as many as fill ``--seconds`` at the workload's nominal pass time. The
count never depends on measured speed, so ``attempted`` and ``failed``
depend only on the seed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
untraced passes. With ``--trace 1`` untraced and traced passes alternate and
the last line reports the per-layer metrics of the traced passes plus the
tracing overhead. Every run writes its full record, environment and spans
included, to ``perfbench/_out/``.

    python3 perfbench/run.py --workload multimode-d2 --seed 1 --seconds 45 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

T_START = time.perf_counter()

# One BLAS thread: on a shared 2-core machine the default two OpenBLAS
# threads made the workloads 30-50% slower, with pass times that varied
# more. Set before numpy is first imported; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402
from setup_probe import import_program  # noqa: E402
from workloads import DEFAULT_SEED, SOLVER_TOL, WORKLOADS, cli_args, load_modes  # noqa: E402

# A solve that returns claims a verified relative residual of at most the
# requested tolerance; the recomputed one may differ only by rounding.
RESIDUAL_LIMIT = 1.01 * SOLVER_TOL
# A run stops starting passes once one more would end after this many
# seconds, so that it ends within the 180 s a run may take even on a
# machine several times slower than the nominal pass times.
RUN_LIMIT_S = 150.0


def pass_count(workload, seconds: float, trace: int) -> int:
    """Passes of one run, pass 0 included: as many as fill ``seconds`` at
    the workload's nominal pass time. A traced run adds traced/untraced
    pairs after pass 0."""
    fit = int(seconds / workload.pass_s)
    if trace:
        return 1 + 2 * max(1, fit // 2)
    return max(2, fit)


def time_setup(workload, seed) -> float:
    """One cold start: from spawning the probe to the moment it is ready to
    run the first level. The probe prints that moment on the system-wide
    monotonic clock, so neither its interpreter teardown nor the parent's
    wait for it counts."""
    probe = [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload.name, "--seed", str(seed)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(probe, check=True, timeout=120, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - t0


def run_pass(cli, workload, refs, modes, expected, stored, out_base, tracer=None) -> dict:
    """One pass over the workload's levels; ``study_s`` sums the wall time
    of the ``cli.main`` calls, a failed level counting until it exits."""
    levels = []
    for op, (level, ref, want) in enumerate(zip(workload.levels, refs, expected)):
        err = io.StringIO()
        span = None
        if tracer is not None:
            tracer.op = op
            span = tracer.span("cli.main")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(cli_args(level, modes, str(out_base)))
            except Exception as exc:  # a crash is one failed level, not the end of the run
                code = None
                print(f"{type(exc).__name__}: {exc}", file=err)
        wall = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        problems = []
        if code == 0:
            payload = json.loads(out_base.with_name(out_base.name + ".json").read_text())
            row = payload["results"][level.scheme]["rows"][0]
            problems = check.check_row(row, ref, want)
            if stored is not None and stored[op] is not None:
                problems += check.check_row(row, ref, stored[op])
        levels.append({"level": level.label, "exit": code, "wall_s": wall,
                       "message": err.getvalue().strip().splitlines()[-1:] if code else [],
                       "problems": problems})
    return {"study_s": sum(l["wall_s"] for l in levels), "traced": tracer is not None,
            "levels": levels}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy uses, read from the library."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(workload, seed) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": seed,
        "python": platform.python_version(), "machine": platform.machine(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    }


def layer_metrics(recorded, workload) -> dict:
    """Per-layer metrics of one traced pass."""
    covered = {}
    for sp in recorded:
        if sp.parent is not None:
            covered[sp.parent] = covered.get(sp.parent, 0.0) + sp.end - sp.start
    by_name: dict[str, list] = {}
    for sp in recorded:
        by_name.setdefault(sp.name, []).append(sp)

    def total(*names):
        return sum(sp.end - sp.start for n in names for sp in by_name.get(n, ()))

    def self_time(name):
        return sum(sp.end - sp.start - covered.get(sp.id, 0.0) for sp in by_name.get(name, ()))

    def attr(name, key, reduce=sum):
        return reduce([sp.attrs.get(key, 0) for sp in by_name.get(name, ())] or [0])

    def count(name):
        return len(by_name.get(name, ()))

    n_omega = [(lv.n - 1) ** lv.d for lv in workload.levels]
    iterations = attr("solver.solve", "iterations")
    return {
        "solver.iterations": iterations,
        "solver.matvec_count": count("solver.kron_matvec"),
        "solver.matvec_s": total("solver.kron_matvec"),
        "solver.verify_matvecs": count("solver.kron_matvec") - iterations,
        "solver.prec_apply_count": count("solver.prec_apply"),
        "solver.prec_apply_s": total("solver.prec_apply"),
        "solver.prec_build_s": total("solver.prec_build"),
        "solver.prec_factorizations": attr("solver.prec_build", "factorizations"),
        "solver.solve_self_s": self_time("solver.solve"),
        "solver.failed": sum(1 for sp in by_name.get("solver.solve", ()) if "error" in sp.attrs),
        "solver.max_rel_residual": attr("solver.solve", "rel_residual", max),
        "solver.matvec_flops_computed": attr("solver.kron_matvec", "flops"),
        "solver.matvec_bytes_computed": attr("solver.kron_matvec", "bytes"),
        "solver.prec_apply_flops_computed": attr("solver.prec_apply", "flops"),
        "solver.prec_apply_bytes_computed": attr("solver.prec_apply", "bytes"),
        "error_analysis.trace_hs_error_s": total("error_analysis.trace_hs_error"),
        "error_analysis.trace_modes": attr("error_analysis.trace_hs_error", "k_modes"),
        "error_analysis.energy_error_s": total("error_analysis.energy_error"),
        "femomega.assemble_s": total("femomega.assemble_omega_matrices", "femomega.assemble_load"),
        "femomega.sine_hat_calls": count("femomega.sine_hat_integrals"),
        "fem1d.assemble_s": total("fem1d.assemble_weighted_matrices"),
        "fem1d.quad_points": attr("fem1d.weighted_rule", "points"),
        "meshing.M": attr("meshing.build_ymesh", "M"),
        "meshing.N_Y": attr("meshing.build_ymesh", "N_Y"),
        "meshing.N_total": sum(sp.attrs.get("N_Y", 0) * n_omega[sp.op]
                               for sp in by_name.get("meshing.build_ymesh", ())),
        "cli.self_s": self_time("cli.main"),
    }


def unit_of(name: str) -> str:
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_s"):
        return "s"
    if name.endswith("residual"):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fracdiff = import_program()
    workload = WORKLOADS[args.workload]
    stored_refs = json.loads(check.REFS_PATH.read_text())["workloads"][workload.name]
    refs = stored_refs["levels"]
    modes = load_modes(workload, args.seed)
    expected = [check.expected_errors(ref, modes or check.paper_modes(lv.s, lv.d))
                for lv, ref in zip(workload.levels, refs)]
    stored = stored_refs["program_errors"].get(str(args.seed))

    out_dir = HERE / "_out"
    out_base = out_dir / workload.name / "level"
    tracer = spans.Tracer()
    passes, traced_spans, setup = [], [], []
    planned = pass_count(workload, args.seconds, args.trace)
    while len(passes) < planned:
        # one set-up sample before every pass, so that the samples spread
        # over the whole run as the pass times do
        setup.append(time_setup(workload, args.seed))
        # pass 0 fills the program's in-process caches; it is checked and
        # counted but not timed. In a traced run odd passes are traced.
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.spans = []
            spans.install(tracer, fracdiff)
        try:
            passes.append(run_pass(fracdiff.cli, workload, refs, modes, expected, stored, out_base,
                                   tracer if traced else None))
        finally:
            tracer.uninstall()
        if traced:
            traced_spans.append(tracer.spans)
        longest = max(p["study_s"] for p in passes)
        enough = len(passes) >= (3 if args.trace else 2) and not traced
        if enough and time.perf_counter() - T_START + longest > RUN_LIMIT_S:
            print(f"run limit: stopped after {len(passes)} of {planned} passes")
            break

    attempted = sum(len(p["levels"]) for p in passes)
    failed_levels = [(i, lv) for i, p in enumerate(passes) for lv in p["levels"]
                     if lv["exit"] != 0 or lv["problems"]]
    problems = [f"pass {i} {lv['level']}: {p}" for i, lv in failed_levels for p in lv["problems"]]
    untraced = [p["study_s"] for p in passes[1:] if not p["traced"]]

    if args.trace:
        per_pass = [layer_metrics(recorded, workload) for recorded in traced_spans]
        metrics = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            metrics[name] = statistics.median(values) if unit_of(name) == "s" else values[0]
            if name.startswith("meshing.") and len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
        traced_study = [p["study_s"] for p in passes if p["traced"]]
        metrics["tracing_overhead_s"] = statistics.median(traced_study) - statistics.median(untraced)
        if metrics["solver.max_rel_residual"] > RESIDUAL_LIMIT:
            problems.append(f"recomputed residual {metrics['solver.max_rel_residual']:.3e} "
                            f"exceeds {RESIDUAL_LIMIT:g}")
        report = {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()}
    else:
        report = {
            "study_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "completed_share": {"value": 1.0 - len(failed_levels) / attempted, "unit": "share"},
        }

    record = {
        "environment": environment(workload, args.seed),
        "modes": modes,
        "setup_s_samples": setup,
        "study_s_samples": untraced,
        "passes": passes,
        "failed_share": {"failed": len(failed_levels), "attempted": attempted,
                         "share": len(failed_levels) / attempted},
        "problems": problems,
        "metrics": report,
    }
    if args.trace:
        record["spans"] = [[sp.id, sp.parent, sp.op, sp.name, sp.start, sp.end, sp.attrs]
                           for recorded in traced_spans for sp in recorded]
    record_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"environment": record["environment"]}))
    print(f"study_s samples ({len(untraced)} untraced passes): "
          + ", ".join(f"{v:.3f}" for v in untraced)
          + "; no percentile above the median has 10 samples beyond it")
    print(f"failed_share: {len(failed_levels)}/{attempted} levels")
    seen = Counter(f"{lv['level']} exit={lv['exit']} {' '.join(lv['message'])}"
                   for _, lv in failed_levels)
    for key, times in seen.items():
        print(f"  failed in {times} of {len(passes)} passes: {key}")
    for line in problems:
        print(f"  incorrect: {line}")
    probe_errors = Counter(f"{sp.name}: {sp.attrs['probe_error']}"
                           for recorded in traced_spans for sp in recorded
                           if "probe_error" in sp.attrs)
    for key, times in probe_errors.items():
        print(f"  span attributes missing in {times} spans: {key}")
    for name, m in report.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"record: {record_path.relative_to(HERE.parent)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed_levels), "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
