"""Command-line front end.

Verbs:

* ``solve``    run the configured refinement levels and write CSV/JSON;
* ``study``    same, plus an observed-order summary and figure data files;
* ``compare``  run both schemes and emit comparison figure data;
* ``selftest`` run a quick battery of built-in consistency checks.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import error_analysis as ea
from .solver import SolverError

CSV_COLUMNS = (
    "h_omega,N_omega,M,N_Y,N_total,Y,energy_error,trace_hs_error,iters,wall_ms"
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scheme: str = "hfem"
    s: float = 0.5
    d: int = 2
    levels: int = 3
    n: list[int] | None = None
    tol: float = 1e-9
    out: str = "fracdiff_run"
    mu: float | None = None
    sigma: float = 0.125
    beta: float = 0.7
    m_mult: float = 1.0
    y_mult: float = 1.0
    modes: list[tuple[tuple[int, ...], float]] | None = None
    deterministic: bool = False

    def validate(self):
        if self.scheme not in ("hfem", "hpfem"):
            raise ConfigError(f"scheme must be hfem or hpfem, got {self.scheme!r}")
        if not 0.0 < self.s < 1.0:
            raise ConfigError(f"s must lie in (0, 1), got {self.s}")
        if self.d not in (1, 2):
            raise ConfigError(f"d must be 1 or 2, got {self.d}")
        if self.n is not None and any(k < 2 for k in self.n):
            raise ConfigError("every entry of n must be >= 2")
        if self.n is None and self.levels < 1:
            raise ConfigError("levels must be >= 1")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if not 0.0 < self.sigma < 1.0:
            raise ConfigError("sigma must lie in (0, 1)")
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        if self.mu is not None and not 0.0 < self.mu <= 1.0:
            raise ConfigError("mu must lie in (0, 1]")
        if self.modes is not None:
            for index, _ in self.modes:
                if len(index) != self.d or any(k < 1 for k in index):
                    raise ConfigError(f"mode index {index} invalid for d={self.d}")


def parse_modes(text: str) -> list[tuple[tuple[int, ...], float]]:
    """Parse ``k[,l]=coef;...`` into (index, coefficient) pairs."""
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            lhs, rhs = part.split("=")
            index = tuple(int(tok) for tok in lhs.split(","))
            out.append((index, float(rhs)))
        except ValueError as exc:
            raise ConfigError(f"cannot parse mode entry {part!r}: {exc}") from exc
    if not out:
        raise ConfigError("empty mode list")
    return out


def read_config_file(path: str) -> dict:
    """Plain key=value file; '#' starts a comment."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        if key not in {f.name for f in fields(RunConfig)}:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


_CONFIG_PARSERS = {
    "scheme": str,
    "s": float,
    "d": int,
    "levels": int,
    "n": lambda v: [int(tok) for tok in v.split(",")],
    "tol": float,
    "out": str,
    "mu": float,
    "sigma": float,
    "beta": float,
    "m_mult": float,
    "y_mult": float,
    "modes": parse_modes,
    "deterministic": lambda v: v.lower() in ("1", "true", "yes"),
}


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, raw in read_config_file(args.config).items():
            try:
                setattr(cfg, key, _CONFIG_PARSERS[key](raw))
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"config field {key}: {exc}") from exc
    for name in ("scheme", "s", "d", "levels", "tol", "out", "mu", "sigma",
                 "beta", "m_mult", "y_mult"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "n", None):
        cfg.n = [int(tok) for tok in args.n.split(",")]
    if getattr(args, "modes", None):
        cfg.modes = parse_modes(args.modes)
    if getattr(args, "deterministic", False):
        cfg.deterministic = True
    cfg.validate()
    return cfg


def _study_kwargs(cfg: RunConfig) -> dict:
    return dict(
        tol=cfg.tol,
        mu=cfg.mu,
        sigma=cfg.sigma,
        beta=cfg.beta,
        m_mult=cfg.m_mult,
        y_mult=cfg.y_mult,
    )


def _run_scheme(cfg: RunConfig, scheme: str) -> list[ea.StudyRow]:
    return ea.run_convergence_study(
        scheme,
        cfg.s,
        cfg.d,
        levels=cfg.levels if cfg.n is None else None,
        n_list=cfg.n,
        f_entries=cfg.modes,
        **_study_kwargs(cfg),
    )


def _row_record(row: ea.StudyRow, deterministic: bool) -> dict:
    wall_ms = 0.0 if deterministic else row.wall_time * 1000.0
    return {
        "h_omega": row.h_omega,
        "N_omega": row.N_omega,
        "M": row.M,
        "N_Y": row.N_Y,
        "N_total": row.N_total,
        "Y": row.Y,
        "energy_error": row.energy_error,
        "trace_hs_error": row.trace_hs_error,
        "iters": row.solve_iterations,
        "wall_ms": wall_ms,
    }


def _with_ext(path: Path, ext: str) -> Path:
    return path.with_name(path.name + ext)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(path: Path, rows: list[ea.StudyRow], deterministic: bool):
    lines = [CSV_COLUMNS]
    for row in rows:
        rec = _row_record(row, deterministic)
        lines.append(",".join(_fmt(rec[col]) for col in CSV_COLUMNS.split(",")))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, cfg: RunConfig, results: dict[str, list[ea.StudyRow]]):
    payload = {
        "config": {k: v for k, v in asdict(cfg).items()},
        "results": {},
    }
    if payload["config"]["modes"] is not None:
        payload["config"]["modes"] = [
            {"index": list(idx), "coefficient": c} for idx, c in cfg.modes
        ]
    for scheme, rows in results.items():
        payload["results"][scheme] = {
            "rows": [_row_record(r, cfg.deterministic) for r in rows],
            "orders": ea.observed_orders(rows) if len(rows) > 1 else [],
            "orders_log_normalized": (
                ea.observed_orders(rows, log_power=cfg.s) if len(rows) > 1 else []
            ),
        }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit_figure_data(results: dict[str, list[ea.StudyRow]], s: float, out_base: Path):
    """Plot-ready series: error against mesh size with reference slopes, and
    error against total dofs sorted by dof count."""
    total_rows = sum(len(rows) for rows in results.values())
    if total_rows < 2:
        raise ConfigError("figure data needs at least 2 study rows")
    lines = ["scheme,h_omega,energy_error,ref_h,ref_h_log_s"]
    for scheme in sorted(results):
        for row in results[scheme]:
            h = row.h_omega
            ref = h * abs(math.log(h)) ** s
            lines.append(
                f"{scheme},{_fmt(h)},{_fmt(row.energy_error)},{_fmt(h)},{_fmt(ref)}"
            )
    path_h = out_base.with_name(out_base.name + "_fig_error_vs_h.csv")
    path_h.write_text("\n".join(lines) + "\n")

    merged = [
        (row.N_total, scheme, row.energy_error)
        for scheme, rows in results.items()
        for row in rows
    ]
    merged.sort()
    lines = ["scheme,N_total,energy_error"]
    for n_total, scheme, err in merged:
        lines.append(f"{scheme},{n_total},{_fmt(err)}")
    path_dof = out_base.with_name(out_base.name + "_fig_error_vs_dof.csv")
    path_dof.write_text("\n".join(lines) + "\n")
    return path_h, path_dof


def _print_orders(scheme: str, rows: list[ea.StudyRow], s: float):
    if len(rows) < 2:
        return
    plain = ea.observed_orders(rows)
    normalized = ea.observed_orders(rows, log_power=s)
    print(f"{scheme}: observed orders {['%.3f' % o for o in plain]}")
    print(f"{scheme}: log-normalized orders {['%.3f' % o for o in normalized]}")


def cmd_solve(cfg: RunConfig, with_summary: bool, with_figures: bool) -> int:
    results = {cfg.scheme: _run_scheme(cfg, cfg.scheme)}
    out = Path(cfg.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(_with_ext(out, ".csv"), results[cfg.scheme], cfg.deterministic)
    write_json(_with_ext(out, ".json"), cfg, results)
    if with_summary:
        _print_orders(cfg.scheme, results[cfg.scheme], cfg.s)
    if with_figures:
        emit_figure_data(results, cfg.s, out)
    print(f"wrote {_with_ext(out, '.csv')}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    results = {scheme: _run_scheme(cfg, scheme) for scheme in ("hfem", "hpfem")}
    out = Path(cfg.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    for scheme, rows in results.items():
        write_csv(out.with_name(out.name + f"_{scheme}.csv"), rows, cfg.deterministic)
    write_json(_with_ext(out, ".json"), cfg, results)
    emit_figure_data(results, cfg.s, out)
    for scheme, rows in results.items():
        _print_orders(scheme, rows, cfg.s)
    err, n_h, n_hp = ea.dof_gap(results["hfem"], results["hpfem"])
    print(
        f"error level {err:.6g}: hfem needs {n_h} dofs, hpfem needs {n_hp} dofs "
        f"(ratio {n_h / n_hp:.1f}x)"
    )
    return 0


def cmd_selftest() -> int:
    import numpy as np

    from . import meshing, solver, spectral
    from .specialfunc import PsiProfile, derivative_coeffs, psi

    checks: list[tuple[str, bool]] = []

    z = np.linspace(0.01, 30.0, 120)
    vals = psi(PsiProfile(0.5), z)
    checks.append(("psi half-order closed form",
                   bool(np.max(np.abs(vals - np.exp(-z)) / np.exp(-z)) < 1e-12)))

    ok = True
    for n in range(15):
        a0, a1 = derivative_coeffs(n).a, derivative_coeffs(n + 1).a
        for m in range(1, n + 1):
            if a1[m] != -a0[m] + (n - 2 * (m - 1)) * a0[m - 1]:
                ok = False
    checks.append(("derivative coefficient recurrence", ok))

    mesh = meshing.hp_mesh(6, 0.125, 2.0, 0.7)
    h = mesh.h
    ok = abs(h[0] - 0.125**5 * 2.0) < 1e-15
    ok = ok and all(
        abs(h[m] - (1 - 0.125) * mesh.nodes[m + 1]) < 1e-12 * h[m]
        for m in range(1, mesh.M)
    )
    checks.append(("geometric mesh identities", ok))

    gm = meshing.graded_mesh(8, 0.4, 1.5)
    checks.append(("graded first element size",
                   abs(gm.h[0] - 8 ** (-1 / 0.4) * 1.5) < 1e-15))

    problem = spectral.benchmark_problem(0.6, 2)
    u = spectral.solve_fractional(problem)
    checks.append(("fractional norm isometry",
                   abs(spectral.hs_norm(u, 0.6) - spectral.hs_norm(problem.f, -0.6)) < 1e-13))

    level = ea.discretize(spectral.benchmark_problem(0.6, 1), "hpfem", 6)
    system = level.system
    rng = np.random.default_rng(7)
    w = rng.standard_normal((system.n_omega, system.n_y))
    rhs = solver.kron_matvec(system, w)
    rec = solver.solve(system, rhs, rel_tol=1e-12)
    rel = np.linalg.norm(rec.coefficients - w) / np.linalg.norm(w)
    checks.append(("exact solve manufactured solution", bool(rel < 1e-8)))

    omega, wm = system.omega, system.y
    dense = np.kron(wm.B_mass.toarray(), omega.A_stiff.toarray()) + np.kron(
        wm.B_stiff.toarray(), omega.A_mass.toarray()
    )
    x = rng.standard_normal(system.n_total)
    err = np.linalg.norm(solver.kron_matvec(system, x) - dense @ x) / np.linalg.norm(dense @ x)
    checks.append(("implicit operator vs dense Kronecker form", bool(err < 1e-13)))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if failed:
        print(f"{len(failed)} selftest check(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(checks)} selftest checks passed")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracdiff",
        description="Fractional diffusion solver via the truncated cylinder extension",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scheme", choices=["hfem", "hpfem"])
        p.add_argument("--s", type=float, help="fractional order in (0,1)")
        p.add_argument("--d", type=int, choices=[1, 2])
        p.add_argument("--levels", type=int, help="number of refinement levels")
        p.add_argument("--n", type=str, help="explicit comma-separated cell counts")
        p.add_argument("--tol", type=float, help="solver relative tolerance")
        p.add_argument("--out", type=str, help="output path base")
        p.add_argument("--mu", type=float, help="grading parameter override")
        p.add_argument("--sigma", type=float, help="geometric ratio override")
        p.add_argument("--beta", type=float, help="degree-vector slope override")
        p.add_argument("--m-mult", dest="m_mult", type=float,
                       help="multiplier on the element-count rule")
        p.add_argument("--y-mult", dest="y_mult", type=float,
                       help="multiplier on the truncation height rule")
        p.add_argument("--modes", type=str,
                       help="right-hand side modes 'k[,l]=coef;...'")
        p.add_argument("--config", type=str, help="key=value config file")
        p.add_argument("--deterministic", action="store_true",
                       help="zero wall-clock columns for byte-stable output")

    for name in ("solve", "study", "compare"):
        p = sub.add_parser(name)
        add_common(p)
    sub.add_parser("selftest")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest()
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "solve":
            return cmd_solve(cfg, with_summary=False, with_figures=False)
        if args.command == "study":
            return cmd_solve(cfg, with_summary=True, with_figures=True)
        if args.command == "compare":
            return cmd_compare(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
