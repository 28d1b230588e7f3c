#!/usr/bin/env python3
"""Acceptance at the sizes the run path reaches: the paper's rate and dof-gap
claims on the d=2 benchmark, h-FEM at n = 64..2048 and hp-FEM at n =
64..4096 cells per direction, each at s = 0.2 and 0.8.

    PYTHONPATH=src python scripts/acceptance_at_scale.py

Prints one line per check and exits 1 if any fails. The desk-size criteria
of ``tests/test_acceptance.py`` (n up to 128) stay as they are; at those
sizes the h-FEM orders are still pre-asymptotic and the hp-FEM orders step
with the integer element count. The levels here take about 6 s of solves
and 165 MB of peak RSS (hp-FEM n=4096, N_omega = 16.8 M) on a 2-core
machine with OpenBLAS on one thread.

The windows come from the orders and gaps measured on that machine (they
are deterministic: the levels are bitwise reproducible), with a stated
margin:

* h-FEM, the order of the finest halving (``observed_orders``), measured
  0.964 at s=0.2 and 0.907 at s=0.8, within ``ORDER_MARGIN`` either way.
  Its log-normalized order (``h*|ln h|**s``, the paper's rate) is printed
  beside it.
* hp-FEM, the least-squares slope of ``ln e`` over ``ln h`` on the finest
  four levels, measured 1.001 at s=0.2 and 1.021 at s=0.8, within
  ``SLOPE_MARGIN`` either way. The element count steps less than once per
  halving at s=0.8, so single halvings read 0.56-1.44 there; a slope over
  four levels averages the steps.
* The dof gap (``dof_gap``: h-FEM dofs over hp-FEM dofs at the finest error
  both reach), measured 254x at s=0.2 and 581x at s=0.8, at least
  ``GAP_SHARE`` of the measurement. The desk criterion asks for 10x.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fracdiff.error_analysis import dof_gap, observed_orders, run_convergence_study  # noqa: E402

H_N = [64, 128, 256, 512, 1024, 2048]
HP_N = [64, 128, 256, 512, 1024, 2048, 4096]
# the measured values per order s: h-FEM finest order, hp-FEM slope, dof gap
MEASURED = {0.2: (0.964, 1.001, 254.0), 0.8: (0.907, 1.021, 581.0)}
ORDER_MARGIN = 0.02
SLOPE_MARGIN = 0.03
GAP_SHARE = 0.75


def slope(rows) -> float:
    """Least-squares slope of ``ln(energy_error)`` over ``ln(h_omega)``."""
    return np.polyfit(np.log([r.h_omega for r in rows]),
                      np.log([r.energy_error for r in rows]), 1)[0]


def check(name: str, value: float, lo: float, hi: float, detail: str = "") -> bool:
    ok = lo <= value <= hi
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3f} in [{lo:.3f}, {hi:.3f}]{detail}")
    return ok


def main() -> int:
    ok = True
    for s, (order_h, slope_hp, gap) in MEASURED.items():
        t0 = time.perf_counter()
        rows_h = run_convergence_study("hfem", s, 2, n_list=H_N)
        rows_hp = run_convergence_study("hpfem", s, 2, n_list=HP_N)
        print(f"s={s}: {len(H_N) + len(HP_N)} levels in {time.perf_counter() - t0:.1f} s")
        orders = observed_orders(rows_h)
        normalized = observed_orders(rows_h, log_power=s)
        ok &= check(f"h-FEM s={s} finest order", orders[-1], order_h - ORDER_MARGIN,
                    order_h + ORDER_MARGIN,
                    f" (orders {' '.join('%.3f' % o for o in orders)}; log-normalized "
                    f"{' '.join('%.3f' % o for o in normalized)})")
        ok &= check(f"hp-FEM s={s} slope of the finest four levels", slope(rows_hp[-4:]),
                    slope_hp - SLOPE_MARGIN, slope_hp + SLOPE_MARGIN,
                    f" (orders {' '.join('%.3f' % o for o in observed_orders(rows_hp))})")
        err, n_h, n_hp = dof_gap(rows_h, rows_hp)
        ok &= check(f"dof gap s={s}", n_h / n_hp, GAP_SHARE * gap, math.inf,
                    f" (error {err:.3g}: h-FEM {n_h} dofs, hp-FEM {n_hp})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
