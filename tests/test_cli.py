import csv
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import fracdiff
from fracdiff.cli import CSV_COLUMNS, OPTIONS, RunConfig, main, parse_modes, read_config_file
from fracdiff.meshing import hp_mesh

QUICK = ["--s", "0.5", "--d", "1", "--levels", "3", "--deterministic"]


def run_cli(argv):
    return main(argv)


def run_cli_capped(argv, address_space=4_000_000_000, timeout=120):
    """Run the CLI in a child process under an address-space limit and a
    timeout, so that a runaway level fails instead of exhausting memory."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(fracdiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "fracdiff.cli", *argv], preexec_fn=limit,
                          env=env, capture_output=True, text=True, timeout=timeout)


def selection_rule(scheme, n, mu=None, sigma=0.125, beta=0.7, m_mult=1.0, y_mult=1.0):
    """``(M, N_Y, Y)`` of the s=0.5, d=1 level with ``n`` cells, from the
    parameter rules written out: ``Y = y_mult*max(3|ln h|/pi, 1)``; h-FEM has
    ``M = ceil(m_mult/h)`` linear elements (``mu`` grades them and changes
    no size); hp-FEM has ``M = ceil(1.75*m_mult*|ln h|/(s*|ln sigma|))``
    geometric elements with the linear degree vector of slope ``beta``."""
    h = 1.0 / n
    Y = y_mult * max(3.0 * abs(math.log(h)) / math.pi, 1.0)
    if scheme == "hfem":
        M = math.ceil(m_mult / h)
        return M, M, Y
    M = max(1, math.ceil(1.75 * m_mult * abs(math.log(h)) / (0.5 * abs(math.log(sigma)))))
    return M, hp_mesh(M, sigma, Y, beta).n_dofs(), Y


class TestParsing:
    def test_modes_1d(self):
        assert parse_modes("1=9.87") == [((1,), 9.87)]

    def test_modes_2d_multiple(self):
        got = parse_modes("1,1=19.74; 2,1=3.0")
        assert got == [((1, 1), 19.74), ((2, 1), 3.0)]

    def test_modes_malformed(self):
        from fracdiff.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_modes("1,1")
        with pytest.raises(ConfigError):
            parse_modes("a=2")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nscheme = hpfem\ns = 0.8\nlevels=2\n")
        values = read_config_file(str(cfg))
        assert values == {"scheme": "hpfem", "s": "0.8", "levels": "2"}

    def test_config_file_bad_line(self, tmp_path):
        from fracdiff.cli import ConfigError

        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme hpfem\n")
        with pytest.raises(ConfigError) as err:
            read_config_file(str(cfg))
        assert "run.cfg:1" in str(err.value)

    def test_option_table_is_keyed_by_the_config_fields(self, capsys):
        assert list(OPTIONS) == [f.name for f in fields(RunConfig)]
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        usage = capsys.readouterr().out
        for name, (_, text) in OPTIONS.items():
            assert f"--{name.replace('_', '-')}" in usage
            assert text in usage

    def test_config_file_unknown_key(self, tmp_path):
        from fracdiff.cli import ConfigError

        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheem = hpfem\n")
        with pytest.raises(ConfigError) as err:
            read_config_file(str(cfg))
        assert "unknown key" in str(err.value)


class TestSolveCommand:
    def test_writes_csv_with_requested_rows(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["solve", "--scheme", "hpfem", *QUICK, "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "run.csv").read_text().strip().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 4  # header + 3 levels
        payload = json.loads((tmp_path / "run.json").read_text())
        assert len(payload["results"]["hpfem"]["rows"]) == 3
        orders = payload["results"]["hpfem"]["orders"]
        assert len(orders) == 2

    def test_invalid_order_exits_2(self, tmp_path, capsys):
        code = run_cli(["solve", "--s", "1.5", "--d", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "a"
        argv = ["solve", "--scheme", "hfem", *QUICK, "--out", str(out)]
        assert run_cli(argv) == 0
        first_csv = (tmp_path / "a.csv").read_bytes()
        first_json = (tmp_path / "a.json").read_bytes()
        assert run_cli(argv) == 0
        assert (tmp_path / "a.csv").read_bytes() == first_csv
        assert (tmp_path / "a.json").read_bytes() == first_json

    def test_modes_flag(self, tmp_path):
        out = tmp_path / "m"
        code = run_cli(
            ["solve", "--scheme", "hfem", "--s", "0.5", "--d", "1", "--levels", "2",
             "--modes", "1=3.0;2=1.0", "--deterministic", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["config"]["modes"] == [
            {"index": [1], "coefficient": 3.0},
            {"index": [2], "coefficient": 1.0},
        ]

    def test_bad_modes_exit_2(self, tmp_path):
        code = run_cli(
            ["solve", "--s", "0.5", "--d", "2", "--modes", "1=1.0", "--out", str(tmp_path / "x")]
        )
        assert code == 2  # 1-entry index on a 2-d domain

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key,value", [
        ("n", "8,x"), ("n", "8,,16"),
        ("m_mult", "0"), ("m_mult", "-1"), ("m_mult", "nan"), ("y_mult", "0"),
        ("beta", "nan"), ("beta", "inf"), ("modes", "1=nan"), ("tol", "nan"),
        ("s", "abc"), ("d", "3"), ("scheme", "foo"), ("levels", "2.5"), ("tol", "1e-9x"),
    ])
    def test_bad_option_value_exits_2(self, tmp_path, capsys, key, value, source):
        argv = ["solve", "--out", str(tmp_path / "x")]
        for name, good in (("s", "0.5"), ("d", "1"), ("n", "8")):
            if name != key:  # a flag would override the config value
                argv += ["--" + name, good]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            argv += ["--config", str(cfg)]
        assert run_cli(argv) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_switch_value_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("deterministic=maybe\n")
        code = run_cli(["solve", "--s", "0.5", "--d", "1", "--n", "8", "--config", str(cfg),
                        "--out", str(tmp_path / "x")])
        assert code == 2
        assert "deterministic='maybe'" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme=hpfem\ns=0.7\nd=1\nlevels=3\ndeterministic=true\n")
        out = tmp_path / "cfg_run"
        code = run_cli(["solve", "--config", str(cfg), "--levels", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "cfg_run.json").read_text())
        assert payload["config"]["levels"] == 2
        assert payload["config"]["s"] == 0.7

    def test_missing_config_file_exit_2(self, tmp_path):
        code = run_cli(["solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_explicit_n_list(self, tmp_path):
        out = tmp_path / "n"
        code = run_cli(
            ["solve", "--scheme", "hfem", "--s", "0.4", "--d", "1", "--n", "10,20",
             "--deterministic", "--out", str(out)]
        )
        assert code == 0
        lines = (tmp_path / "n.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0.1,")

    def test_solver_failure_exits_3(self, tmp_path, capsys):
        # tolerance far below attainable precision: refinement stalls
        code = run_cli(
            ["solve", "--scheme", "hfem", "--s", "0.2", "--d", "1", "--n", "64",
             "--tol", "1e-30", "--out", str(tmp_path / "x")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "solver failure" in err
        assert "below the attainable floor" in err

    def test_inaccurate_inverse_is_not_called_a_floor(self, tmp_path, capsys):
        # mu=0.05 grades the first element to ~1e-19 of Y; the refined
        # residual ends above 1, i.e. worse than X = 0
        code = run_cli(["solve", "--scheme", "hfem", "--s", "0.5", "--d", "1", "--n", "8",
                        "--mu", "0.05", "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "solver failure: hfem s=0.5 d=1 n=8: residual stalled" in err
        assert "inaccurate" in err
        assert "floor" not in err

    @pytest.mark.parametrize("command", ["solve", "study", "compare"])
    @pytest.mark.parametrize("scheme,flag,value,cause", [
        ("hfem", "--mu", "1e-3", "mesh nodes must be strictly increasing"),
        ("hpfem", "--y-mult", "1e-300", "the stiffness scale 1/h**2 is not finite"),
        ("hpfem", "--beta", "1e6", "weighted rule on"),
    ], ids=["mu", "y_mult", "beta"])
    def test_level_that_cannot_be_built_exits_3(self, tmp_path, capsys, command, scheme,
                                                 flag, value, cause):
        argv = [command, "--s", "0.5", "--d", "1", "--n", "8,16", flag, value,
                "--out", str(tmp_path / "x")]
        if command != "compare":
            argv += ["--scheme", scheme]
        elif flag == "--y-mult":
            scheme = "hfem"  # compare runs hfem first, and the height breaks it too
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert f"solver failure: {scheme} s=0.5 d=1 n=8: " in err
        assert cause in err

    @pytest.mark.parametrize("scheme,s,cause", [
        ("hfem", "0.02", None),
        ("hpfem", "0.01", "element 1: width"),
        ("hpfem", "0.014", "element 121: weighted rule on"),
    ])
    def test_small_order_level_ends_in_bounded_memory(self, tmp_path, scheme, s, cause):
        # hfem: element 2 has y_1/y_2 = 2**(-1/mu) below eps, so the weighted
        # rule must form ln(rho) without cancellation. hpfem: elements of
        # degree near 178 would fit the point cap only after ~2**33 geometric
        # splits, and at s=0.01 the first element is too thin for its stiffness.
        done = run_cli_capped(["solve", "--scheme", scheme, "--s", s, "--d", "1", "--n", "8",
                               "--out", str(tmp_path / "x")])
        assert "Traceback" not in done.stderr
        if cause is None:
            assert done.returncode == 0, done.stderr
        else:
            assert done.returncode == 3, done.stderr
            assert f"solver failure: {scheme} s={s} d=1 n=8: {cause}" in done.stderr

    def test_solver_failure_names_the_level(self, tmp_path, capsys):
        code = run_cli(
            ["solve", "--scheme", "hpfem", "--s", "0.35", "--d", "2", "--n", "8,12",
             "--tol", "1e-30", "--out", str(tmp_path / "x")]
        )
        assert code == 3
        err = capsys.readouterr().err
        for part in ("hpfem", "s=0.35", "d=2", "n=8"):
            assert part in err

    @pytest.mark.xfail(strict=True, reason=(
        "residual floor (ROADMAP item 1): with M=12 geometric elements the "
        "refined solve stalls at 1.26e-9, above the default tol 1e-9"))
    def test_hp_level_with_more_elements_reaches_tol(self, tmp_path):
        code = run_cli(
            ["solve", "--scheme", "hpfem", "--s", "0.5", "--d", "1", "--n", "16",
             "--m-mult", "2", "--out", str(tmp_path / "x")]
        )
        assert code == 0

    @pytest.mark.parametrize("scheme,name,value", [
        ("hfem", "mu", 0.9),
        ("hfem", "m_mult", 2.0),
        ("hfem", "y_mult", 2.0),
        ("hpfem", "sigma", 0.3),
        ("hpfem", "beta", 1.4),
        # at 2 the hp levels from n=16 on stop at the residual floor (exit 3)
        ("hpfem", "m_mult", 1.5),
        ("hpfem", "y_mult", 2.0),
    ])
    def test_mesh_override_moves_sizes_by_the_rule(self, tmp_path, scheme, name, value):
        argv = ["solve", "--scheme", scheme, "--s", "0.5", "--d", "1", "--n", "8,32",
                "--deterministic"]
        flag = "--" + name.replace("_", "-")
        assert run_cli([*argv, "--out", str(tmp_path / "default")]) == 0
        assert run_cli([*argv, flag, str(value), "--out", str(tmp_path / "override")]) == 0
        with open(tmp_path / "default.csv") as f0, open(tmp_path / "override.csv") as f1:
            pairs = list(zip(csv.DictReader(f0), csv.DictReader(f1)))
        assert len(pairs) == 2
        for n, (default, changed) in zip((8, 32), pairs):
            for row, kwargs in ((default, {}), (changed, {name: value})):
                M, N_Y, Y = selection_rule(scheme, n, **kwargs)
                assert (int(row["M"]), int(row["N_Y"])) == (M, N_Y)
                assert float(row["Y"]) == pytest.approx(Y, rel=1e-11)
            if name != "mu":
                assert selection_rule(scheme, n, **{name: value}) != selection_rule(scheme, n)
            assert changed["energy_error"] != default["energy_error"]

    def test_preconditioner_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preconditioner=jacobi\n")
        code = run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "unknown key 'preconditioner'" in capsys.readouterr().err


class TestStudyAndCompare:
    @pytest.mark.parametrize("rows", [["--levels", "1"], ["--n", "8"]], ids=["levels", "n"])
    def test_study_with_one_row_exits_2_before_any_level(self, tmp_path, capsys, rows):
        out = tmp_path / "run" / "x"
        code = run_cli(["study", "--scheme", "hfem", "--s", "0.5", "--d", "1", *rows,
                        "--out", str(out)])
        assert code == 2
        assert "figure data needs at least 2 study rows" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_study_emits_figure_data(self, tmp_path):
        out = tmp_path / "study"
        code = run_cli(["study", "--scheme", "hpfem", *QUICK, "--out", str(out)])
        assert code == 0
        fig_h = (tmp_path / "study_fig_error_vs_h.csv").read_text().strip().splitlines()
        assert fig_h[0] == "scheme,h_omega,energy_error,ref_h,ref_h_log_s"
        assert len(fig_h) == 4
        fig_dof = (tmp_path / "study_fig_error_vs_dof.csv").read_text().strip().splitlines()
        assert fig_dof[0] == "scheme,N_total,energy_error"

    def test_compare_outputs_sorted_by_dof(self, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli(["compare", *QUICK, "--out", str(out)])
        assert code == 0
        assert (tmp_path / "cmp_hfem.csv").exists()
        assert (tmp_path / "cmp_hpfem.csv").exists()
        lines = (tmp_path / "cmp_fig_error_vs_dof.csv").read_text().strip().splitlines()[1:]
        dofs = [int(line.split(",")[1]) for line in lines]
        assert dofs == sorted(dofs)
        payload = json.loads((tmp_path / "cmp.json").read_text())
        assert set(payload["results"]) == {"hfem", "hpfem"}

    def test_reproduce_figures_script(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
        done = subprocess.run(
            [sys.executable, str(script), "--out", str(tmp_path / "fig"), "--levels", "2",
             "--orders", "0.5", "--d", "1"],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        for suffix in ("_hfem.csv", "_hpfem.csv", "_fig_error_vs_h.csv", "_fig_error_vs_dof.csv"):
            assert (tmp_path / f"fig_s0.5{suffix}").is_file()


def test_cli_import_leaves_quadrature_modules_unloaded():
    # scipy.integrate (and the scipy.optimize it imports) serve only oracles
    src = str(Path(fracdiff.__file__).resolve().parents[1])
    code = ("import sys, fracdiff.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
