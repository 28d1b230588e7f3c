import csv
import json
import math

import pytest

from fracdiff.cli import CSV_COLUMNS, main, parse_modes, read_config_file
from fracdiff.meshing import hp_mesh

QUICK = ["--s", "0.5", "--d", "1", "--levels", "3", "--deterministic"]


def run_cli(argv):
    return main(argv)


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
        assert "solver failure" in capsys.readouterr().err

    def test_solver_failure_names_the_level(self, tmp_path, capsys):
        code = run_cli(
            ["solve", "--scheme", "hpfem", "--s", "0.35", "--d", "2", "--n", "8,12",
             "--tol", "1e-30", "--out", str(tmp_path / "x")]
        )
        assert code == 3
        err = capsys.readouterr().err
        for part in ("hpfem", "s=0.35", "d=2", "n=8"):
            assert part in err

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


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
