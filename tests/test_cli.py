import csv
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

import fracdiff
from fracdiff import cli, error_analysis, meshing
from fracdiff.cli import (
    CSV_COLUMNS,
    OPTIONS,
    ConfigError,
    RunConfig,
    build_config,
    main,
    make_parser,
    parse_modes,
    read_config_file,
)
from fracdiff.error_analysis import StudyRow, discretize
from fracdiff.meshing import hp_mesh
from fracdiff.spectral import benchmark_problem

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


def scale_y_elements(monkeypatch, factor):
    """Make every level's y-element matrices ``factor`` times their value:
    r_h, and with it the certificate ``d_s*omega**s*r_h``, scales by
    ``1/factor``."""
    assemble = fracdiff.error_analysis.assemble_weighted_matrices

    def scaled(*args, **kwargs):
        weighted = assemble(*args, **kwargs)
        return replace(weighted, groups=tuple(
            (ms, factor * mass, factor * stiff) for ms, mass, stiff in weighted.groups))

    monkeypatch.setattr(fracdiff.error_analysis, "assemble_weighted_matrices", scaled)


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
    return M, sum(hp_mesh(M, sigma, Y, beta).degrees), Y


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
        assert lines[0] == "h_omega,N_omega,M,N_Y,N_total,Y,energy_error,trace_hs_error,wall_ms"
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

    def test_json_is_bytewise_that_of_the_asdict_config(self, tmp_path):
        # the config is read field by field, not deep-copied by asdict:
        # the bytes must not change
        argv = ["solve", "--scheme", "hpfem", "--s", "0.6", "--d", "2", "--n", "8,16",
                "--modes", "1,1=1.0;2,3=-0.5;3,2=0.25", "--deterministic",
                "--out", str(tmp_path / "m")]
        assert run_cli(argv) == 0
        written = (tmp_path / "m.json").read_bytes()
        cfg = build_config(make_parser().parse_args(argv))
        config = asdict(cfg)
        config["modes"] = [{"index": list(idx), "coefficient": c} for idx, c in cfg.modes]
        payload = {"config": config, "results": json.loads(written)["results"]}
        assert config["n"] == [8, 16]
        assert written == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("coef", ["1e160", "1e-300"])
    def test_extreme_data_scale(self, tmp_path, coef):
        # f_k**2 overflows at 1e160 and underflows to 0 at 1e-300; the
        # errors are linear in f: coef times the energy error
        # 0.0485488718134 of f_1 = 1
        out = tmp_path / "x"
        assert run_cli(["solve", "--d", "1", "--n", "8", "--modes", f"1={coef}",
                        "--out", str(out)]) == 0
        row = json.loads((tmp_path / "x.json").read_text())["results"]["hfem"]["rows"][0]
        assert row["energy_error"] == pytest.approx(float(coef) * 0.0485488718134, rel=1e-11)
        assert math.isfinite(row["trace_hs_error"]) and row["trace_hs_error"] > 0.0

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
        ("y_mult", "-1"), ("mu", "5"), ("beta", "-1"), ("sigma", "2"),
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

    def test_solver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # element matrices half as large double d_s*omega**s*r_h
        scale_y_elements(monkeypatch, 0.5)
        code = run_cli(
            ["solve", "--scheme", "hfem", "--s", "0.2", "--d", "1", "--n", "64",
             "--out", str(tmp_path / "x")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "solver failure" in err
        assert "y-resolvent certificate failed at 190 of 190 interpolation points" in err

    def test_extreme_grading_matches_the_exact_resolvent(self, tmp_path, exact_energy_error):
        # mu=0.05 grades the first element to ~1e-19 of Y, where the full
        # solve's refinement ends above relative residual 1; the fold still
        # matches the exact elimination, and the large error is the mesh's
        code = run_cli(["solve", "--scheme", "hfem", "--s", "0.5", "--d", "1", "--n", "8",
                        "--mu", "0.05", "--out", str(tmp_path / "x")])
        assert code == 0
        with open(tmp_path / "x.csv") as f:
            (row,) = csv.DictReader(f)
        problem = benchmark_problem(0.5, 1)
        want = exact_energy_error(problem, discretize(problem, "hfem", 8, mu=0.05))
        assert float(row["energy_error"]) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("command", ["solve", "study", "compare"])
    @pytest.mark.parametrize("scheme,s,flag,value,cause", [
        ("hfem", "0.5", "--mu", "1e-3", "the first element width (1/M)**(1/mu)*Y = 10**-902.8 "
                                        "underflows to 0"),
        ("hpfem", "0.5", "--y-mult", "1e-300", "the stiffness scale 1/h**2 is not finite"),
        # degrees near 2e6: the element matrices could never fit, which the
        # storage estimate says before any node is built
        ("hpfem", "0.5", "--beta", "1e6", "M = 4 elements keep at least "),
        ("hfem", "0.5", "--m-mult", "1e308", "the element count M = inf is not finite"),
        ("hpfem", "0.5", "--m-mult", "1e308", "the element count M = inf is not finite"),
        ("hfem", "0.5", "--y-mult", "1e308", "the truncation height Y = inf is not finite"),
        # the storage estimate's degree sums overflow: inf, before any node
        ("hpfem", "0.5", "--beta", "1e308", "M = 4 elements keep at least inf bytes"),
        # y**0.6 overflows on the first element, whose top is near 1e284
        ("hfem", "0.2", "--y-mult", "1e290", "element 1: the weighted element matrices on "),
        ("hpfem", "0.2", "--y-mult", "1e290", "element 1: the weighted element matrices on "),
    ], ids=["mu", "y_mult", "beta", "hfem-m_mult-inf", "hpfem-m_mult-inf", "y_mult-inf",
            "beta-inf", "hfem-y_mult-overflow", "hpfem-y_mult-overflow"])
    def test_level_that_cannot_be_built_exits_3(self, tmp_path, capsys, command, scheme, s,
                                                 flag, value, cause):
        argv = [command, "--s", s, "--d", "1", "--n", "8,16", flag, value,
                "--out", str(tmp_path / "x")]
        if command != "compare":
            argv += ["--scheme", scheme]
        elif flag != "--beta":
            scheme = "hfem"  # compare runs hfem first, and only --beta leaves it intact
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert f"solver failure: {scheme} s={s} d=1 n=8: " in err
        assert cause in err

    def test_first_width_of_a_tiny_order_is_one_short_line(self, tmp_path, capsys):
        # s = 1e-300 grades the h-FEM mesh with mu near s, so the first
        # width's exponent is about -1e300: four significant digits of it
        assert run_cli(["solve", "--d", "1", "--n", "8", "--s", "1e-300",
                        "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err == ("solver failure: hfem s=1e-300 d=1 n=8: the first element width "
                       "(1/M)**(1/mu)*Y = 10**-1.129e+300 underflows to 0\n")

    @pytest.mark.parametrize("scheme,s,n,cause", [
        pytest.param("hfem", "0.02", "8", None, id="hfem-0.02-None"),
        pytest.param("hpfem", "0.01", "8", "element 1: width", id="hpfem-0.01-element 1: width"),
        pytest.param("hpfem", "0.014", "8", "element 121: weighted rule on",
                     id="hpfem-0.014-element 121: weighted rule on"),
        pytest.param("hpfem", "0.005", "8", "element 1: width 1.3e-315",
                     id="hpfem-0.005-n8-subnormal width"),
        pytest.param("hpfem", "0.01", "64", "element 1: width 2.6e-315",
                     id="hpfem-0.01-n64-subnormal width"),
        pytest.param("hpfem", "1e-320", "8", "the element count M = inf is not finite",
                     id="hpfem-1e-320-n8-element count"),
        pytest.param("hpfem", "1e-9", "8", "M = 1750000000 elements keep at least ",
                     id="hpfem-1e-9-n8-storage"),
    ])
    def test_small_order_level_ends_in_bounded_memory(self, tmp_path, scheme, s, n, cause):
        # hfem: element 2 has y_1/y_2 = 2**(-1/mu) below eps, so the weighted
        # rule must form ln(rho) without cancellation. hpfem: elements of
        # degree near 178 would fit the point cap only after ~2**33 geometric
        # splits, and at s=0.01 the first element is too thin for its stiffness;
        # at s=0.005 (n=8) and s=0.01 (n=64) it is subnormal, so the degree
        # rule must not divide by it. At s=1e-320 the element count overflows;
        # at s=1e-9 it is 1.75e9, and the level's storage estimate must reject
        # it before the nodes are built.
        done = run_cli_capped(["solve", "--scheme", scheme, "--s", s, "--d", "1", "--n", n,
                               "--out", str(tmp_path / "x")])
        assert "Traceback" not in done.stderr
        assert "RuntimeWarning" not in done.stderr
        if cause is None:
            assert done.returncode == 0, done.stderr
        else:
            assert done.returncode == 3, done.stderr
            assert f"solver failure: {scheme} s={float(s):g} d=1 n={n}: {cause}" in done.stderr

    @pytest.mark.parametrize("scheme,M", [("hfem", 8_000_000_000_000),
                                          ("hpfem", 3_500_000_000_000)])
    def test_level_beyond_physical_memory_exits_3_before_building_nodes(self, tmp_path,
                                                                        scheme, M):
        # M = m_mult/h (h-FEM) or 1.75*m_mult*|ln h|/(s*|ln sigma|) (hp-FEM):
        # millions of times the physical memory of any machine. The child has
        # an address-space cap and a timeout, so a level that starts building
        # its nodes fails there instead of exhausting the machine
        done = run_cli_capped(["solve", "--scheme", scheme, "--s", "0.5", "--d", "1", "--n", "8",
                               "--m-mult", "1e12", "--out", str(tmp_path / "x")],
                              address_space=1_000_000_000, timeout=60)
        assert done.returncode == 3, done.stderr
        assert "Traceback" not in done.stderr
        assert (f"solver failure: {scheme} s=0.5 d=1 n=8: M = {M} elements keep at least "
                in done.stderr)
        assert "bytes of physical memory" in done.stderr

    def test_base_domain_beyond_physical_memory_exits_3_before_the_load(self, tmp_path, capsys,
                                                                       monkeypatch):
        # d=2 n=30000: two arrays of N_omega = 29999**2 doubles are 14.4 GB,
        # more than the 8.41 GB set here; nothing of that size is allocated
        monkeypatch.setattr(error_analysis, "physical_memory_bytes", lambda: 8_410_000_000)
        tracemalloc.start()
        try:
            code = run_cli(["solve", "--d", "2", "--n", "30000", "--out", str(tmp_path / "x")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert ("solver failure: hfem s=0.5 d=2 n=30000: N_omega = 899940001 base-domain dofs "
                "keep at least 1.44e+10 bytes" in capsys.readouterr().err)
        assert peak < 1 << 20

    def test_solver_failure_names_the_level(self, tmp_path, capsys, monkeypatch):
        # element matrices half as large double d_s*omega**s*r_h: the
        # certificate's bound 1 + tol fails at every interpolation point,
        # the lowest of which is the lowest shift
        scale_y_elements(monkeypatch, 0.5)
        code = run_cli(
            ["solve", "--scheme", "hpfem", "--s", "0.35", "--d", "2", "--n", "8,12",
             "--out", str(tmp_path / "x")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert ("solver failure: hpfem s=0.35 d=2 n=8: y-resolvent certificate failed at "
                "106 of 106 interpolation points, first at shift omega=19.") in err
        assert "Traceback" not in err

    def test_out_of_memory_exits_3_and_names_the_level(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 90.3 MiB for an array")

        monkeypatch.setattr(fracdiff.error_analysis, "solve_trace", exhausted)
        code = run_cli(["solve", "--scheme", "hfem", "--s", "0.8", "--d", "2", "--n", "8",
                        "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert ("solver failure: hfem s=0.8 d=2 n=8: out of memory "
                "(Unable to allocate 90.3 MiB for an array)") in err
        assert "Traceback" not in err

    def test_negative_energy_radicand_exits_3_and_names_the_level(self, tmp_path, capsys,
                                                                   monkeypatch):
        solve_trace = fracdiff.error_analysis.solve_trace

        def overshooting(*args, **kwargs):
            # a trace 1.5 times too large puts I_h above I_exact
            return 1.5 * solve_trace(*args, **kwargs)

        monkeypatch.setattr(fracdiff.error_analysis, "solve_trace", overshooting)
        code = run_cli(["solve", "--scheme", "hfem", "--s", "0.5", "--d", "1", "--n", "8",
                        "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert ("solver failure: hfem s=0.5 d=1 n=8: energy identity produced negative "
                "radicand") in err
        assert "Traceback" not in err

    def test_hp_level_with_more_elements_reaches_tol(self, tmp_path):
        # M=12 geometric elements: the full solve stalls at 1.26e-9 here
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

    @pytest.mark.parametrize("scheme,levels", [("hpfem", "6"), ("hfem", "8")])
    def test_small_order_study_completes(self, tmp_path, capsys, scheme, levels):
        # the paper's s=0.2 d=1 studies: the full solve stalls at the
        # residual floor on hp n=128 and h n=1024
        code = run_cli(["study", "--scheme", scheme, "--s", "0.2", "--d", "1",
                        "--levels", levels, "--out", str(tmp_path / "x")])
        assert code == 0, capsys.readouterr().err
        payload = json.loads((tmp_path / "x.json").read_text())
        assert len(payload["results"][scheme]["rows"]) == int(levels)

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

    def test_compare_writes_the_csv_of_solve_for_each_scheme(self, tmp_path):
        assert run_cli(["compare", *QUICK, "--out", str(tmp_path / "cmp")]) == 0
        for scheme in ("hfem", "hpfem"):
            out = tmp_path / scheme
            assert run_cli(["solve", "--scheme", scheme, *QUICK, "--out", str(out)]) == 0
            assert ((tmp_path / f"cmp_{scheme}.csv").read_bytes()
                    == (tmp_path / f"{scheme}.csv").read_bytes())

    def test_json_rows_are_the_study_row_fields(self, tmp_path):
        assert run_cli(["study", "--scheme", "hfem", *QUICK, "--out", str(tmp_path / "s")]) == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        names = [f.name for f in fields(StudyRow)]
        assert CSV_COLUMNS.split(",") == names
        for row in payload["results"]["hfem"]["rows"]:
            assert list(row) == sorted(names)  # the JSON is written with sorted keys
            assert row["wall_ms"] == 0.0

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


class TestRejectedBeforeAnyLevel:
    """Configurations that no level sequence can complete exit 2 before any
    level runs and write no file."""

    @staticmethod
    def rejects(tmp_path, capsys, argv, message):
        code = run_cli([*argv, "--out", str(tmp_path / "run" / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["solve", "--scheme", "hfem"], ["solve", "--scheme", "hpfem"],
        ["study", "--scheme", "hpfem"], ["compare"],
    ], ids=["solve-hfem", "solve-hpfem", "study", "compare"])
    def test_base_mesh_coarser_than_the_rules_accept(self, tmp_path, capsys, command):
        # d=2, n=2 has h_omega = sqrt(2)/2 > 1/2, the bound of the selection rules
        self.rejects(tmp_path, capsys, [*command, "--s", "0.5", "--d", "2", "--n", "2,4"],
                     "n=2 for d=2: h_omega=0.7071067811865476 must lie in (0, 1/2]")

    @pytest.mark.parametrize("d", ["1", "2"])
    def test_fewer_than_two_cells(self, tmp_path, capsys, d):
        # the grid's own check: validate builds OmegaGrid(d, n) for every n
        self.rejects(tmp_path, capsys, ["solve", "--s", "0.5", "--d", d, "--n", "8,1"],
                     f"configuration error: n=1 for d={d}: need at least 2 cells per direction\n")

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_tol_outside_the_margin_check(self, tmp_path, capsys, value):
        # the message of the one check that run_level also reads
        # (test_error_analysis.TestLibraryRejectsWhatTheCliRejects)
        message = error_analysis.tol_error(float(value))
        assert message == f"tol must be finite and positive, got {float(value)}"
        self.rejects(tmp_path, capsys, ["solve", "--s", "0.5", "--d", "1", "--n", "8",
                                        "--tol", value],
                     f"configuration error: {message}\n")

    @pytest.mark.parametrize("command", ["solve", "study", "compare"])
    @pytest.mark.parametrize("n", ["8,8", "8,16,8"])
    def test_repeated_cell_counts(self, tmp_path, capsys, command, n):
        self.rejects(tmp_path, capsys, [command, "--s", "0.5", "--d", "1", "--n", n],
                     "the entries of n must be distinct")

    @pytest.mark.parametrize("modes,levels", [("1=0", "2"), ("1=1;1=-1", "1")],
                             ids=["zero", "cancelling"])
    def test_zero_data(self, tmp_path, capsys, modes, levels):
        self.rejects(tmp_path, capsys, ["solve", "--s", "0.5", "--d", "1", "--levels", levels,
                                        "--modes", modes],
                     "the data is zero")

    def test_merged_coefficient_overflow(self, tmp_path, capsys):
        self.rejects(tmp_path, capsys, ["solve", "--s", "0.5", "--d", "1", "--n", "8",
                                        "--modes", "1=1e308;1=1e308"],
                     "modes: mode (1,) has a non-finite coefficient inf")

    @pytest.mark.parametrize("d,modes,have,message", [
        # 1e20 used to overflow int64 in the load's placement (a traceback);
        # (3e9, 1) used to list its modes for about 20 minutes
        ("1", "100000000000000000000=1", 8_410_000_000,
         "(100000000000000000000,) holds at least 1.04e+22 bytes"),
        ("2", "3000000000,1=1", 8_410_000_000, "(3000000000, 1) holds at least 6.12e+20 bytes"),
        ("1", "1=1;20000=1", 600_000, "(20000,) holds at least 2.08e+06 bytes"),
        ("2", "1,1=1;300,300=1", 3_000_000, "(300, 300) holds at least 1.22e+07 bytes"),
    ], ids=["d1-1e20", "d2-3e9", "d1-20000", "d2-300"])
    def test_data_mode_whose_list_outgrows_memory(self, tmp_path, capsys, monkeypatch, d,
                                                  modes, have, message):
        monkeypatch.setattr(cli, "physical_memory_bytes", lambda: have)
        self.rejects(tmp_path, capsys, ["solve", "--s", "0.5", "--d", d, "--n", "8",
                                        "--modes", modes],
                     f"modes: the trace error of data mode {message} of listed modes, more "
                     f"than the {have:.3g} bytes of physical memory")

    @pytest.mark.parametrize("scheme,name,value", [
        ("hfem", "m_mult", "-1"), ("hpfem", "m_mult", "0"), ("hfem", "y_mult", "-1"),
        ("hfem", "mu", "5"), ("hpfem", "beta", "-1"), ("hpfem", "sigma", "2"),
    ])
    def test_rule_override_out_of_range(self, tmp_path, capsys, scheme, name, value):
        # the message of the one check that run_level also reads, through
        # select_params_h/hp (test_error_analysis.TestLibraryOverrideChecks)
        message = meshing.rule_override_error(**{name: float(value)})
        assert message is not None
        self.rejects(tmp_path, capsys, ["solve", "--scheme", scheme, "--s", "0.5", "--d", "1",
                                        "--n", "8", "--" + name.replace("_", "-"), value],
                     f"configuration error: {message}\n")

    @pytest.mark.parametrize("index", [(20000,), (600, 600), (1, 2), (7,)])
    def test_mode_list_check_rejects_only_beyond_memory(self, monkeypatch, index):
        need = error_analysis.mode_list_bytes(index)
        cfg = RunConfig(d=len(index), n=[8], modes=[(index, 1.0)])
        monkeypatch.setattr(cli, "physical_memory_bytes", lambda: need)
        cfg.validate()
        monkeypatch.setattr(cli, "physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ConfigError, match=r"^modes: the trace error of data mode"):
            cfg.validate()


class TestUnusableOut:
    """An out path that cannot take the outputs exits 2, naming the path,
    before any level runs."""

    @staticmethod
    def rejects(monkeypatch, capsys, command, out, named):
        def run_level(*args, **kwargs):
            raise AssertionError("a level ran")

        monkeypatch.setattr(fracdiff.error_analysis, "run_level", run_level)
        assert run_cli([*command, "--d", "1", "--n", "8,16", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert named in err

    @pytest.mark.parametrize("command", [["solve"], ["study"], ["compare"]])
    def test_empty_out(self, monkeypatch, capsys, command):
        self.rejects(monkeypatch, capsys, command, "", "out=''")

    @pytest.mark.parametrize("command", [["solve"], ["study"], ["compare"]])
    def test_out_below_a_regular_file(self, tmp_path, monkeypatch, capsys, command):
        (tmp_path / "file").write_text("kept")
        self.rejects(monkeypatch, capsys, command, str(tmp_path / "file" / "run"),
                     str(tmp_path / "file"))
        assert (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize("command", [["solve"], ["study"], ["compare"]])
    def test_directory_at_an_output_path(self, tmp_path, monkeypatch, capsys, command):
        (tmp_path / "run.json").mkdir()
        self.rejects(monkeypatch, capsys, command, str(tmp_path / "run"),
                     str(tmp_path / "run.json"))
        assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]

    def test_failed_write_exits_2_and_names_the_path(self, tmp_path, monkeypatch, capsys):
        # a directory that appears at an output path while the levels run
        (tmp_path / "run.csv").write_text("")
        solve_trace = fracdiff.error_analysis.solve_trace

        def taking(*args, **kwargs):
            (tmp_path / "run.json").mkdir(exist_ok=True)
            return solve_trace(*args, **kwargs)

        monkeypatch.setattr(fracdiff.error_analysis, "solve_trace", taking)
        assert run_cli(["solve", "--d", "1", "--n", "8", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "configuration error: cannot write the output" in err
        assert str(tmp_path / "run.json") in err


class TestOutputFiles:
    """Every output is rewritten through its existing file: the bytes of a
    fresh out path, the same inode, its mode kept, and a symlink written
    through. Each study runs in its own directory with the relative out path
    ``run``, so the JSON's config is the same in every directory."""

    OUTPUTS = (".csv", ".json", "_fig_error_vs_h.csv", "_fig_error_vs_dof.csv")

    def study(self, directory, monkeypatch, n):
        directory.mkdir(exist_ok=True)
        monkeypatch.chdir(directory)
        assert run_cli(["study", "--d", "1", "--n", n, "--deterministic", "--out", "run"]) == 0
        return {ext: directory / f"run{ext}" for ext in self.OUTPUTS}

    def test_shorter_rerun_writes_the_bytes_of_a_fresh_out(self, tmp_path, monkeypatch):
        longer = {ext: path.stat().st_size for ext, path in
                  self.study(tmp_path / "reused", monkeypatch, "8,16,32").items()}
        reused = self.study(tmp_path / "reused", monkeypatch, "8,16")
        fresh = self.study(tmp_path / "fresh", monkeypatch, "8,16")
        for ext in self.OUTPUTS:
            assert reused[ext].stat().st_size < longer[ext]
            assert reused[ext].read_bytes() == fresh[ext].read_bytes()

    def test_symlinked_output_is_written_through(self, tmp_path, monkeypatch):
        target = tmp_path / "kept.json"
        target.write_text("x" * 100_000)
        (tmp_path / "linked").mkdir()
        (tmp_path / "linked" / "run.json").symlink_to(target)
        linked = self.study(tmp_path / "linked", monkeypatch, "8,16")[".json"]
        fresh = self.study(tmp_path / "fresh", monkeypatch, "8,16")[".json"]
        assert linked.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()

    def test_rewrite_keeps_the_file_mode(self, tmp_path, monkeypatch):
        for path in self.study(tmp_path, monkeypatch, "8,16").values():
            path.chmod(0o640)
        for path in self.study(tmp_path, monkeypatch, "8,16,32").values():
            assert path.stat().st_mode & 0o777 == 0o640

    def test_rewrite_keeps_the_inode(self, tmp_path, monkeypatch):
        # a hard link holds each first inode, so a file created anew could
        # not reuse its number
        for ext, path in self.study(tmp_path, monkeypatch, "8,16,32").items():
            os.link(path, tmp_path / f"held{ext}")
        for ext, path in self.study(tmp_path, monkeypatch, "8,16").items():
            held = tmp_path / f"held{ext}"
            assert path.stat().st_ino == held.stat().st_ino
            assert held.read_bytes() == path.read_bytes()


def test_cli_import_leaves_quadrature_modules_unloaded(tmp_path):
    # scipy serves only selftest, the oracles and the tests: a fresh
    # interpreter loads no scipy module to import the CLI, nor to solve with
    # either scheme in d=1 and d=2
    src = str(Path(fracdiff.__file__).resolve().parents[1])
    code = f"""if True:
        import json, sys
        import fracdiff.cli

        def loaded():
            return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

        seen = {{"import": loaded()}}
        for scheme in ("hfem", "hpfem"):
            for d in ("1", "2"):
                code = fracdiff.cli.main(["solve", "--scheme", scheme, "--d", d, "--n", "8,12",
                                          "--out", {str(tmp_path / "run")!r}])
                seen[f"{{scheme}} d={{d}}"] = loaded() + ([] if code == 0 else [f"exit {{code}}"])
        print(json.dumps(seen))
        """
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert list(seen) == ["import", "hfem d=1", "hfem d=2", "hpfem d=1", "hpfem d=2"]
    assert all(modules == [] for modules in seen.values()), seen


def test_selftest_loads_no_scipy_linalg():
    # selftest compares the run path with the package's own full solve: a
    # fresh interpreter runs it with scipy.fft and scipy.sparse only
    src = str(Path(fracdiff.__file__).resolve().parents[1])
    code = """if True:
        import json, sys
        import fracdiff.cli

        code = fracdiff.cli.main(["selftest"])
        print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy.linalg"))]))
        """
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, []]


def test_cold_solve_loads_only_the_run_path(tmp_path):
    # the oracles of the analysis (the Bessel profile, the extended solution,
    # the direct energy quadrature, the y-interpolant) live with the tests
    src = str(Path(fracdiff.__file__).resolve().parents[1])
    code = f"""if True:
        import json, sys
        import fracdiff.cli

        code = fracdiff.cli.main(["solve", "--scheme", "hpfem", "--d", "2", "--n", "8,12",
                                  "--out", {str(tmp_path / "run")!r}])
        print(json.dumps([code, sorted(m for m in sys.modules
                                       if m.split(".")[0] in ("fracdiff", "scipy"))]))
        """
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert modules == ["fracdiff"] + [f"fracdiff.{name}" for name in (
        "cli", "error_analysis", "fem1d", "femomega", "meshing", "solver", "spectral")]


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS  geometric mesh identities",
            "PASS  graded first element size",
            "PASS  trace-only run path vs full tensor solve",
            "all 3 selftest checks passed",
        ]

    @pytest.mark.parametrize("target,fault,line", [
        ("solver.y_resolvent", lambda fold: lambda y, w: -fold(y, w),
         "FAIL  trace-only run path vs full tensor solve: SolverError: y-resolvent "
         "certificate failed at 85 of 85 interpolation points, first at shift omega="),
        ("error_analysis.build_ymesh", lambda build: lambda params: build(replace(params,
                                                                                  mu=1e-3)),
         "FAIL  trace-only run path vs full tensor solve: MeshError: the first element "
         "width (1/M)**(1/mu)*Y = 10**"),
        # at most 4 points a piece, element 2 of the level would need more
        # than 256 pieces: the split limit, a traceback before it was a MeshError
        ("fem1d._MAX_GL_POINTS", lambda points: 4,
         "FAIL  trace-only run path vs full tensor solve: MeshError: element 2: weighted "
         "rule on ["),
    ], ids=["negated-fold", "mesh", "split-limit"])
    def test_run_path_error_is_a_failed_check(self, monkeypatch, capsys, target, fault, line):
        # a SolverError or MeshError of the run path fails the check that
        # raised it, and selftest exits 1 with no traceback
        module, name = target.split(".")
        module = getattr(fracdiff, module)
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        assert run_cli(["selftest"]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[:2] == ["PASS  geometric mesh identities", "PASS  graded first element size"]
        assert lines[2].startswith(line)
        assert len(lines) == 3
        assert err == "1 selftest check(s) failed\n"
