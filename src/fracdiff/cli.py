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
from dataclasses import asdict, dataclass
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
        for name in ("tol", "beta", "m_mult", "y_mult"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not 0.0 < self.sigma < 1.0:
            raise ConfigError("sigma must lie in (0, 1)")
        if self.mu is not None and not 0.0 < self.mu <= 1.0:
            raise ConfigError("mu must lie in (0, 1]")
        if self.modes is not None:
            for index, coef in self.modes:
                if len(index) != self.d or any(k < 1 for k in index):
                    raise ConfigError(f"mode index {index} invalid for d={self.d}")
                if not math.isfinite(coef):
                    raise ConfigError(f"mode {index} has a non-finite coefficient {coef}")


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


def _cell_counts(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _switch(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected true or false, got {text!r}")
    return value in ("1", "true", "yes")


# Every option of solve/study/compare, keyed by its RunConfig field: the text
# parser and the help. The flag is ``--name`` with dashes for underscores and
# the config-file key is ``name``; both are read as text and parsed here.
OPTIONS = {
    "scheme": (str, "extended-direction scheme: hfem or hpfem"),
    "s": (float, "fractional order in (0,1)"),
    "d": (int, "base-domain dimension: 1 or 2"),
    "levels": (int, "number of refinement levels"),
    "n": (_cell_counts, "explicit comma-separated cell counts"),
    "tol": (float, "solver relative tolerance"),
    "out": (str, "output path base"),
    "mu": (float, "grading parameter override"),
    "sigma": (float, "geometric ratio override"),
    "beta": (float, "degree-vector slope override"),
    "m_mult": (float, "multiplier on the element-count rule"),
    "y_mult": (float, "multiplier on the truncation height rule"),
    "modes": (parse_modes, "right-hand side modes 'k[,l]=coef;...'"),
    "deterministic": (_switch, "zero wall-clock columns for byte-stable output"),
}


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
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def build_config(args) -> RunConfig:
    """Merge the config-file text with the flag text (flags win) and parse
    every value once through :data:`OPTIONS`."""
    text = read_config_file(args.config) if args.config else {}
    flags = vars(args)
    text.update((name, flags[name]) for name in OPTIONS if flags[name] is not None)
    values = {}
    for name, raw in text.items():
        try:
            values[name] = OPTIONS[name][0](raw)
        except ValueError as exc:
            raise ConfigError(f"{name}={raw!r}: {exc}") from exc
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _run_scheme(cfg: RunConfig, scheme: str) -> list[ea.StudyRow]:
    return ea.run_convergence_study(
        scheme, cfg.s, cfg.d, cfg.levels, cfg.n, f_entries=cfg.modes, tol=cfg.tol,
        mu=cfg.mu, sigma=cfg.sigma, beta=cfg.beta, m_mult=cfg.m_mult, y_mult=cfg.y_mult,
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
    payload = {"config": asdict(cfg), "results": {}}
    if cfg.modes is not None:
        payload["config"]["modes"] = [
            {"index": list(idx), "coefficient": c} for idx, c in cfg.modes
        ]
    for scheme, rows in results.items():
        payload["results"][scheme] = {
            "rows": [_row_record(r, cfg.deterministic) for r in rows],
            "orders": ea.observed_orders(rows),
            "orders_log_normalized": ea.observed_orders(rows, log_power=cfg.s),
        }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit_figure_data(results: dict[str, list[ea.StudyRow]], s: float, out_base: Path):
    """Plot-ready series: error against mesh size with reference slopes, and
    error against total dofs sorted by dof count."""
    lines = ["scheme,h_omega,energy_error,ref_h,ref_h_log_s"]
    for scheme in sorted(results):
        for row in results[scheme]:
            h = row.h_omega
            ref = h * abs(math.log(h)) ** s
            lines.append(
                f"{scheme},{_fmt(h)},{_fmt(row.energy_error)},{_fmt(h)},{_fmt(ref)}"
            )
    _with_ext(out_base, "_fig_error_vs_h.csv").write_text("\n".join(lines) + "\n")

    merged = [
        (row.N_total, scheme, row.energy_error)
        for scheme, rows in results.items()
        for row in rows
    ]
    merged.sort()
    lines = ["scheme,N_total,energy_error"]
    for n_total, scheme, err in merged:
        lines.append(f"{scheme},{n_total},{_fmt(err)}")
    _with_ext(out_base, "_fig_error_vs_dof.csv").write_text("\n".join(lines) + "\n")


def _print_orders(scheme: str, rows: list[ea.StudyRow], s: float):
    if len(rows) < 2:
        return
    plain = ea.observed_orders(rows)
    normalized = ea.observed_orders(rows, log_power=s)
    print(f"{scheme}: observed orders {['%.3f' % o for o in plain]}")
    print(f"{scheme}: log-normalized orders {['%.3f' % o for o in normalized]}")


def cmd_solve(cfg: RunConfig, study: bool) -> int:
    results = {cfg.scheme: _run_scheme(cfg, cfg.scheme)}
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(_with_ext(out, ".csv"), results[cfg.scheme], cfg.deterministic)
    write_json(_with_ext(out, ".json"), cfg, results)
    if study:
        _print_orders(cfg.scheme, results[cfg.scheme], cfg.s)
        emit_figure_data(results, cfg.s, out)
    print(f"wrote {_with_ext(out, '.csv')}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    results = {scheme: _run_scheme(cfg, scheme) for scheme in ("hfem", "hpfem")}
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for scheme, rows in results.items():
        write_csv(_with_ext(out, f"_{scheme}.csv"), rows, cfg.deterministic)
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
        a0, a1 = derivative_coeffs(n), derivative_coeffs(n + 1)
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
    common = argparse.ArgumentParser(add_help=False)
    for name, (parse, text) in OPTIONS.items():
        switch = dict(action="store_const", const="true") if parse is _switch else {}
        common.add_argument("--" + name.replace("_", "-"), help=text, **switch)
    common.add_argument("--config", help="key=value config file")
    parser = argparse.ArgumentParser(
        prog="fracdiff",
        description="Fractional diffusion solver via the truncated cylinder extension",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "study", "compare"):
        sub.add_parser(name, parents=[common])
    sub.add_parser("selftest")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest()
    try:
        cfg = build_config(args)
        if args.command == "study" and (cfg.levels if cfg.n is None else len(cfg.n)) < 2:
            raise ConfigError("figure data needs at least 2 study rows")
        if args.command == "compare":
            return cmd_compare(cfg)
        return cmd_solve(cfg, study=args.command == "study")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
