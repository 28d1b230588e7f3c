"""Command-line front end.

Verbs:

* ``solve``    run the configured refinement levels and write CSV/JSON;
* ``study``    same, plus an observed-order summary and figure data files;
* ``compare``  run both schemes and emit comparison figure data;
* ``selftest`` check the mesh rules, and the trace-only run path that
  ``solve`` runs, with its certificate, against the full tensor solve.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path

from . import error_analysis as ea
from .femomega import OmegaGrid
from .meshing import MeshError, check_h_omega, physical_memory_bytes, rule_override_error
from .solver import SolverError
from .spectral import BoxDomain, modal_function

CSV_COLUMNS = ",".join(f.name for f in fields(ea.StudyRow))


class ConfigError(ValueError):
    pass


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


def _option(default, parse, help_text: str):
    """A RunConfig field that is also an option: flag ``--name`` (dashes for
    underscores) and config-file key ``name``, both read as text and parsed
    by ``parse``."""
    return field(default=default, metadata={"parse": parse, "help": help_text})


@dataclass
class RunConfig:
    scheme: str = _option("hfem", str, "extended-direction scheme: hfem or hpfem")
    s: float = _option(0.5, float, "fractional order in (0,1)")
    d: int = _option(2, int, "base-domain dimension: 1 or 2")
    levels: int = _option(3, int, "number of refinement levels")
    n: list[int] | None = _option(None, _cell_counts, "explicit comma-separated cell counts")
    tol: float = _option(1e-9, float, "certificate margin: 0 < d_s*omega**s*r_h <= 1 + tol")
    out: str = _option("fracdiff_run", str, "output path base")
    mu: float | None = _option(None, float, "grading parameter override")
    sigma: float = _option(0.125, float, "geometric ratio override")
    beta: float = _option(0.7, float, "degree-vector slope override")
    m_mult: float = _option(1.0, float, "multiplier on the element-count rule")
    y_mult: float = _option(1.0, float, "multiplier on the truncation height rule")
    modes: list[tuple[tuple[int, ...], float]] | None = _option(
        None, parse_modes, "right-hand side modes 'k[,l]=coef;...'")
    deterministic: bool = _option(
        False, _switch, "zero wall-clock columns for byte-stable output")

    def validate(self):
        if self.scheme not in ("hfem", "hpfem"):
            raise ConfigError(f"scheme must be hfem or hpfem, got {self.scheme!r}")
        if not 0.0 < self.s < 1.0:
            raise ConfigError(f"s must lie in (0, 1), got {self.s}")
        if self.d not in (1, 2):
            raise ConfigError(f"d must be 1 or 2, got {self.d}")
        if self.n is not None:
            if len(set(self.n)) != len(self.n):
                raise ConfigError(f"the entries of n must be distinct, got {self.n}")
            for k in self.n:
                try:
                    check_h_omega(OmegaGrid(self.d, k).h_omega)
                except ValueError as exc:
                    raise ConfigError(f"n={k} for d={self.d}: {exc}") from exc
        if self.n is None and self.levels < 1:
            raise ConfigError("levels must be >= 1")
        cause = ea.tol_error(self.tol) or rule_override_error(
            mu=self.mu, sigma=self.sigma, beta=self.beta, m_mult=self.m_mult, y_mult=self.y_mult)
        if cause is not None:
            raise ConfigError(cause)
        if self.modes is not None:
            try:
                data = modal_function(BoxDomain(self.d), self.modes)
            except ValueError as exc:
                raise ConfigError(f"modes: {exc}") from exc
            if not any(coef for _, coef in data.modes):
                raise ConfigError("the data is zero: every merged mode coefficient is 0")
            cause = ea.data_mode_error(data.modes, physical_memory_bytes())
            if cause is not None:
                raise ConfigError(f"modes: {cause}")


# Every option of solve/study/compare, keyed by its RunConfig field: the text
# parser and the help.
OPTIONS = {f.name: (f.metadata["parse"], f.metadata["help"]) for f in fields(RunConfig)}


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


def _with_ext(path: Path, ext: str) -> Path:
    return path.with_name(path.name + ext)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_in_place(path: Path, text: str):
    """Write ``text`` to ``path`` through the file's existing inode: open it
    without truncating, write, then cut it at the end of the text. The bytes
    are those of ``path.write_text(text)``, but a symlinked output is written
    through and the file keeps its mode. Truncating a non-empty file to zero
    bytes (``O_TRUNC``) makes some file systems (ext4 with ``auto_da_alloc``)
    start writeback when it is closed, which made the output writes a sixth
    of the wall time of a small study rerun over its outputs. A write that is
    killed midway leaves a partial file, as the ``O_TRUNC`` write did:
    neither is atomic."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        f.write(text)
        f.truncate()


def write_csv(path: Path, rows: list[ea.StudyRow]):
    columns = CSV_COLUMNS.split(",")
    lines = [CSV_COLUMNS] + [",".join(_fmt(getattr(row, c)) for c in columns) for row in rows]
    write_in_place(path, "\n".join(lines) + "\n")


def _as_dict(record) -> dict:
    """The fields of a dataclass record by name, read without the deep copy
    of ``dataclasses.asdict``: the values of a ``RunConfig`` or a
    ``StudyRow`` are numbers, strings and lists of them, which ``json``
    writes the same either way."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def write_json(path: Path, cfg: RunConfig, records: dict[str, dict]):
    config = _as_dict(cfg)
    if cfg.modes is not None:
        config["modes"] = [{"index": list(idx), "coefficient": c} for idx, c in cfg.modes]
    payload = {"config": config, "results": records}
    write_in_place(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit_figure_data(results: dict[str, list[ea.StudyRow]], s: float, paths: dict[str, Path]):
    """Plot-ready series: error against mesh size with reference slopes
    (``paths["vs_h"]``), and error against total dofs sorted by dof count
    (``paths["vs_dof"]``)."""
    lines = ["scheme,h_omega,energy_error,ref_h,ref_h_log_s"]
    for scheme in sorted(results):
        for row in results[scheme]:
            h = row.h_omega
            ref = h * abs(math.log(h)) ** s
            lines.append(
                f"{scheme},{_fmt(h)},{_fmt(row.energy_error)},{_fmt(h)},{_fmt(ref)}"
            )
    write_in_place(paths["vs_h"], "\n".join(lines) + "\n")

    merged = [
        (row.N_total, scheme, row.energy_error)
        for scheme, rows in results.items()
        for row in rows
    ]
    merged.sort()
    lines = ["scheme,N_total,energy_error"]
    for n_total, scheme, err in merged:
        lines.append(f"{scheme},{n_total},{_fmt(err)}")
    write_in_place(paths["vs_dof"], "\n".join(lines) + "\n")


def output_paths(out: str, command: str, schemes) -> dict[str, Path]:
    """Every file that ``command`` writes, by role: the CSV of each scheme
    (under its name), ``json``, and for ``study`` and ``compare`` the figure
    data ``vs_h`` and ``vs_dof``. They are checked before any level runs:
    ``out`` must name a file, its directory is created, and no output may be
    a directory; any of these failures is a :class:`ConfigError` that names
    the path."""
    base = Path(out)
    if not base.name:
        raise ConfigError(f"out={out!r} names no file")
    paths = {scheme: _with_ext(base, f"_{scheme}.csv" if command == "compare" else ".csv")
             for scheme in schemes}
    paths["json"] = _with_ext(base, ".json")
    if command != "solve":
        paths["vs_h"] = _with_ext(base, "_fig_error_vs_h.csv")
        paths["vs_dof"] = _with_ext(base, "_fig_error_vs_dof.csv")
    try:
        base.parent.mkdir(parents=True, exist_ok=True)
        taken = [path for path in paths.values() if path.is_dir()]
    except OSError as exc:
        raise ConfigError(f"cannot use the output path {out!r}: {exc}") from exc
    if taken:
        raise ConfigError(f"the output path {taken[0]} is a directory")
    return paths


def cmd_run(cfg: RunConfig, command: str) -> int:
    """``solve``/``study`` run ``cfg.scheme`` and ``compare`` runs both
    schemes. Every verb writes the CSV (one per scheme for ``compare``) and
    the JSON; ``study`` and ``compare`` add the orders and the figure data."""
    if command == "study" and (cfg.levels if cfg.n is None else len(cfg.n)) < 2:
        raise ConfigError("figure data needs at least 2 study rows")
    schemes = ("hfem", "hpfem") if command == "compare" else (cfg.scheme,)
    paths = output_paths(cfg.out, command, schemes)
    results = {}
    for scheme in schemes:
        rows = ea.run_convergence_study(
            scheme, cfg.s, cfg.d, cfg.levels, cfg.n, f_entries=cfg.modes, tol=cfg.tol,
            mu=cfg.mu, sigma=cfg.sigma, beta=cfg.beta, m_mult=cfg.m_mult, y_mult=cfg.y_mult,
        )
        results[scheme] = [replace(r, wall_ms=0.0) for r in rows] if cfg.deterministic else rows
    records = {
        scheme: {"rows": [_as_dict(r) for r in rows], "orders": ea.observed_orders(rows),
                 "orders_log_normalized": ea.observed_orders(rows, log_power=cfg.s)}
        for scheme, rows in results.items()
    }
    try:
        for scheme, rows in results.items():
            write_csv(paths[scheme], rows)
        write_json(paths["json"], cfg, records)
        if command != "solve":
            emit_figure_data(results, cfg.s, paths)
    except OSError as exc:
        raise ConfigError(f"cannot write the output: {exc}") from exc
    if command != "solve":
        for scheme, record in records.items():
            for label, key in (("observed", "orders"), ("log-normalized", "orders_log_normalized")):
                if record[key]:
                    print(f"{scheme}: {label} orders {['%.3f' % o for o in record[key]]}")
    if command != "compare":
        print(f"wrote {paths[cfg.scheme]}")
        return 0
    err, n_h, n_hp = ea.dof_gap(results["hfem"], results["hpfem"])
    print(f"error level {err:.6g}: hfem needs {n_h} dofs, hpfem needs {n_hp} dofs "
          f"(ratio {n_h / n_hp:.1f}x)")
    return 0


def cmd_selftest() -> int:
    import numpy as np
    from scipy.fft import dst

    from . import meshing, solver, spectral

    checks: list[tuple[str, bool]] = []

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

    # the run path: the nodal trace of a d=1 level against the trace of the
    # full tensor solve of the same level. A level that cannot be built or
    # solved, or whose certificate fails, fails the check
    name = "trace-only run path vs full tensor solve"
    try:
        problem = spectral.benchmark_problem(0.3, 1)
        level = ea.discretize(problem, "hfem", 6)
        got = dst(solver.solve_trace(level.grid, level.weighted, level.load, s=problem.s,
                                     d_s=problem.d_s, margin=1e-9), type=1, norm="ortho")
        want = solver.solve(level.system, level.rhs).trace
        checks.append((name, bool(np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want))))
    except (SolverError, MeshError) as exc:
        checks.append((f"{name}: {type(exc).__name__}: {exc}", False))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if failed:
        print(f"{len(failed)} selftest check(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(checks)} selftest checks passed")
    return 0


@lru_cache(maxsize=1)
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
        return cmd_run(build_config(args), args.command)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
