#!/usr/bin/env python3
"""Regenerate ``refs.json``, the stored references of the correctness check.

For every level of every workload this stores the exact sizes (``M``,
``N_Y``, ``N_total``) and, for every mode the workload's loads can contain,
the extended-direction resolvent ``e0' (w B_mass + B_stiff)^-1 e0``, computed
by a dense, diagonally scaled Cholesky solve with iterative refinement. It
then runs the program on the default and the held-out seed, stores the errors
it reports (``null`` where a level fails), and checks them against the closed
form of ``check.py``.

Run from the repository root, only when the discretization is meant to
change:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fracdiff import cli  # noqa: E402
from fracdiff.fem1d import assemble_weighted_matrices  # noqa: E402
from fracdiff.meshing import build_ymesh, select_params_h, select_params_hp  # noqa: E402

import check  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, cli_args, load_modes  # noqa: E402


def y_matrices(level):
    """The extended-direction discretization ``run_level`` builds for a level."""
    h_omega = math.sqrt(level.d) / level.n
    lam1 = level.d * math.pi**2
    if level.scheme == "hfem":
        params = select_params_h(h_omega, level.s, lam1)
    else:
        params = select_params_hp(h_omega, level.s, lam1)
    mesh = build_ymesh(params)
    return mesh, assemble_weighted_matrices(mesh, alpha=1.0 - 2.0 * level.s)


def resolvent(weighted, w: float) -> float:
    """``e0' (w B_mass + B_stiff)^-1 e0``. The scaled matrix still has a
    condition number up to ~1e9, so a plain solve loses nine digits, and the
    identity-based energy error amplifies that ~1e5-fold; iterative
    refinement with extended-precision residuals recovers them."""
    exact = w * weighted.B_mass.toarray().astype(np.longdouble) + weighted.B_stiff.toarray()
    scale = 1.0 / np.sqrt(np.diag(exact).astype(float))
    scaled = scale[:, None] * exact * scale[None, :]
    factor = scipy.linalg.cho_factor(scaled.astype(float), lower=True)
    e0 = np.zeros(scale.size)
    e0[0] = 1.0
    x = scipy.linalg.cho_solve(factor, e0)
    for _ in range(3):
        x = x + scipy.linalg.cho_solve(factor, (e0 - scaled @ x).astype(float))
    return float(x[0] * scale[0] ** 2)


def level_refs(workload):
    out = []
    for level in workload.levels:
        mesh, weighted = y_matrices(level)
        n_y = weighted.n_dofs
        out.append({
            "scheme": level.scheme, "s": level.s, "d": level.d, "n": level.n,
            "M": mesh.M, "N_Y": n_y, "N_total": (level.n - 1) ** level.d * n_y,
            "resolvent": {
                check.index_key(idx): resolvent(weighted, check.mode_shift(level.n, idx))
                for idx in workload.mode_box()
            },
        })
    return out


def program_errors(workload, seed, refs, out_dir):
    """Errors the program reports for one seed; ``None`` where it fails."""
    modes = load_modes(workload, seed)
    values, worst = [], 0.0
    for level, ref in zip(workload.levels, refs):
        out = str(Path(out_dir) / "level")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cli_args(level, modes, out))
        if code != 0:
            values.append(None)
            continue
        row = json.loads(Path(out + ".json").read_text())["results"][level.scheme]["rows"][0]
        got = (row["energy_error"], row["trace_hs_error"])
        want = check.expected_errors(ref, modes or check.paper_modes(level.s, level.d))
        problems = check.check_row(row, ref, want)
        if problems:
            raise SystemExit(f"{workload.name} {level.label}: {problems}")
        worst = max(worst, *(abs(g - w) / w for g, w in zip(got, want)))
        values.append(list(got))
    return values, worst


def main() -> int:
    payload = {"workloads": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as out_dir:
        for workload in WORKLOADS.values():
            refs = level_refs(workload)
            seeds = {}
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                seeds[str(seed)], worst = program_errors(workload, seed, refs, out_dir)
                failed = sum(v is None for v in seeds[str(seed)])
                print(f"{workload.name} seed {seed}: {failed} failed levels, "
                      f"largest relative deviation from closed form {worst:.2e}")
            payload["workloads"][workload.name] = {"levels": refs, "program_errors": seeds}
    check.REFS_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {check.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
