import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdiff import cli, error_analysis, femomega, meshing, solver
from fracdiff.error_analysis import (
    StudyRow,
    discretize,
    dof_gap,
    energy_error,
    exact_data_product,
    observed_orders,
    run_convergence_study,
    run_level,
    trace_hs_error,
)
from fracdiff.fem1d import assemble_weighted_matrices
from fracdiff.femomega import OmegaGrid, assemble_load
from fracdiff.solver import KroneckerSystem, SolverError, cylinder_rhs, solve
from fracdiff.spectral import (
    BoxDomain,
    FractionalProblem,
    benchmark_problem,
    modal_function,
    solve_fractional,
)
from oracles import data_product_per_mode, direct_energy_error_small, dst

# a fixed six-mode load from {1..7} (plain sine coefficients)
SIX_MODE_LOAD = [((1,), -0.92405), ((2,), 1.147553), ((3,), 1.217464),
                 ((5,), -1.448832), ((6,), -1.404512), ((7,), 1.127371)]


def solve_benchmark(s, d, n, scheme="hfem", tol=1e-11):
    problem = benchmark_problem(s, d)
    level = discretize(problem, scheme, n)
    sol = solve(level.system, level.rhs, rel_tol=tol)
    return problem, level.grid, level.weighted, sol


def exact_nodal_trace(problem, grid):
    u = solve_fractional(problem)
    if grid.d == 1:
        return u(grid.interior_nodes)
    x1, x2 = np.meshgrid(grid.interior_nodes, grid.interior_nodes, indexing="ij")
    pts = np.stack([x1, x2], axis=-1)
    return u(pts).reshape(-1)


def sine_coefficients(grid, trace):
    """Orthonormal DST-I coefficients of a nodal trace, the input of the
    error measures."""
    return dst(trace, (grid.n - 1,) * grid.d)


def per_mode_chain_trace_error(problem, grid, trace, k_modes):
    """The trace error with one contraction chain per mode: the trace
    contracted with the sine-hat vector of each frequency of the mode, one
    axis at a time, slowest first."""
    domain = problem.domain
    exact = {idx: c for idx, _, c in solve_fractional(problem).orthonormal_items()}
    value_sq = 0.0
    for idx in domain.modes_by_eigenvalue(k_modes):
        T = trace
        for k in idx:
            T = femomega.sine_hat_integrals(grid, k) @ T.reshape(grid.n - 1, -1)
        c = exact.get(idx, 0.0) - 2.0 ** (grid.d / 2.0) * float(T[0])
        value_sq += domain.eigenvalue(idx) ** problem.s * c * c
    return math.sqrt(value_sq)


def load_problem(s, d, entries=None):
    """The benchmark problem, or the load with the given plain sine
    coefficients."""
    if entries is None:
        return benchmark_problem(s, d)
    domain = BoxDomain(d)
    return FractionalProblem(s=s, domain=domain, f=modal_function(domain, entries))


def assert_direct_matches_identity(problem, scheme, n):
    level = discretize(problem, scheme, n)
    sol = solve(level.system, level.rhs, rel_tol=1e-11)
    assert sol.coefficients.size <= 5000
    via_identity = energy_error(problem, level.load, sine_coefficients(level.grid, sol.trace))
    direct = direct_energy_error_small(problem, level.grid, level.weighted, sol)
    assert abs(direct - via_identity) <= 1e-8 * via_identity


# the benchmark in d=1, then loads whose modes differ between the axes: with
# the axes of the exact modes swapped, the 2-d cases are off by 5-8 times
# the error itself
ASYMMETRIC_2D = [((1, 2), 1.0), ((3, 1), -0.7)]
AGREEMENT_CASES = [
    *(pytest.param(scheme, s, 1, 24, None, id=f"{scheme}-{s}")
      for scheme in ("hfem", "hpfem") for s in (0.3, 0.5, 0.75)),
    pytest.param("hfem", 0.6, 2, 8, ASYMMETRIC_2D, id="hfem-0.6-d2-asymmetric"),
    pytest.param("hpfem", 0.4, 2, 8, ASYMMETRIC_2D, id="hpfem-0.4-d2-asymmetric"),
    pytest.param("hpfem", 0.4, 1, 24, [((1,), 1.0), ((3,), -0.7), ((5,), 0.4)],
                 id="hpfem-0.4-d1-asymmetric"),
]


class TestEnergyError:
    def test_zero_solution_closed_form(self):
        # error of the zero trace: d_s * lambda_1^s / 4 under the square root
        for s in [0.2, 0.5, 0.8]:
            problem = benchmark_problem(s, 2)
            grid = OmegaGrid(2, 8)
            err = energy_error(problem, assemble_load(grid, problem), np.zeros(grid.n_dofs))
            want = math.sqrt(problem.d_s * (2 * math.pi**2) ** s / 4.0)
            assert err == pytest.approx(want, rel=1e-9)
        problem = benchmark_problem(0.5, 2)
        err = energy_error(problem, assemble_load(OmegaGrid(2, 8), problem), np.zeros(49))
        assert err == pytest.approx(1.0539073652554058, rel=1e-9)

    def test_exact_data_product(self):
        problem = benchmark_problem(0.5, 2)
        assert exact_data_product(problem) == pytest.approx(
            math.sqrt(2.0) * math.pi / 4.0, rel=1e-14
        )

    def test_exact_data_product_of_coefficients_whose_squares_overflow(self):
        # f_10 = 2**516 squares to about 2**1031, beyond the double range, but
        # lambda_10**(-0.9) < 2**-8.9 brings the product back into it; the
        # product is quadratic in f, so it is 4**k times that of the unscaled data
        def product(k):
            domain = BoxDomain(1)
            entries = [((10,), math.ldexp(1.0, k)), ((12,), math.ldexp(-0.75, k))]
            return exact_data_product(
                FractionalProblem(s=0.9, domain=domain, f=modal_function(domain, entries)))

        for k in (-300, 0, 516):
            assert product(k) == math.ldexp(product(0), 2 * k)

    def test_exact_data_product_beyond_the_double_range_raises(self):
        domain = BoxDomain(1)
        problem = FractionalProblem(s=0.5, domain=domain,
                                    f=modal_function(domain, [((1,), 1e160)]))
        with pytest.raises(OverflowError):
            exact_data_product(problem)

    def test_exact_trace_gives_small_error(self):
        problem = benchmark_problem(0.6, 1)
        errs = []
        for n in (16, 32, 64):
            grid = OmegaGrid(1, n)
            errs.append(energy_error(problem, assemble_load(grid, problem),
                                     sine_coefficients(grid, exact_nodal_trace(problem, grid))))
        assert errs[0] < 0.2
        assert errs[1] < errs[0] and errs[2] < errs[1]

    @pytest.mark.parametrize("scheme", ["hfem", "hpfem"])
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_errors_decrease_along_refinement(self, scheme, s):
        rows = run_convergence_study(scheme, s, 1, levels=4)
        errs = [r.energy_error for r in rows]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_inconsistent_trace_rejected(self):
        problem = benchmark_problem(0.5, 1)
        grid = OmegaGrid(1, 8)
        giant = 100.0 * exact_nodal_trace(problem, grid)
        with pytest.raises(SolverError, match="negative radicand"):
            energy_error(problem, assemble_load(grid, problem), sine_coefficients(grid, giant))


class TestDirectEnergyError:
    def test_zero_data(self):
        from fracdiff.spectral import BoxDomain, FractionalProblem, modal_function
        from fracdiff.solver import SolutionTensor

        domain = BoxDomain(1)
        problem = FractionalProblem(
            s=0.5, domain=domain, f=modal_function(domain, [((1,), 0.0)])
        )
        level = discretize(problem, "hfem", 6)
        grid, weighted = level.grid, level.weighted
        sol = SolutionTensor(
            coefficients=np.zeros((grid.n_dofs, weighted.n_dofs)),
            iterations=0,
            residual=0.0,
        )
        assert direct_energy_error_small(problem, grid, weighted, sol) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("scheme,s,d,n,entries", AGREEMENT_CASES)
    def test_agrees_with_identity(self, scheme, s, d, n, entries):
        assert_direct_matches_identity(load_problem(s, d, entries), scheme, n)

    def test_agrees_with_identity_2d(self):
        assert_direct_matches_identity(benchmark_problem(0.7, 2), "hfem", 8)

    def test_quadrature_self_convergence(self):
        problem, grid, weighted, sol = solve_benchmark(0.4, 1, 12)
        coarse = direct_energy_error_small(problem, grid, weighted, sol, nx_gauss=6, ny_extra=12)
        fine = direct_energy_error_small(problem, grid, weighted, sol, nx_gauss=12, ny_extra=24)
        assert abs(coarse - fine) <= 1e-6 * fine

    def test_size_guard(self):
        problem, grid, weighted, sol = solve_benchmark(0.5, 2, 32)
        assert sol.coefficients.size > 5000
        with pytest.raises(ValueError):
            direct_energy_error_small(problem, grid, weighted, sol)


class TestTraceHsError:
    def test_zero_trace_gives_solution_norm(self):
        problem = benchmark_problem(0.6, 2)
        grid = OmegaGrid(2, 12)
        lam = 2 * math.pi**2
        err = trace_hs_error(problem, grid, np.zeros(grid.n_dofs), k_modes=10)
        # orthonormal coefficient of the solution is 1/2
        assert err == pytest.approx(lam ** (0.6 / 2) * 0.5, rel=1e-8)

    def test_interpolated_exact_trace_small_and_decreasing(self):
        problem = benchmark_problem(0.5, 1)
        vals = []
        for n in (16, 32, 64):
            grid = OmegaGrid(1, n)
            vals.append(
                trace_hs_error(problem, grid,
                               sine_coefficients(grid, exact_nodal_trace(problem, grid)), 12)
            )
        assert vals[0] < 0.1
        assert vals[1] < vals[0] and vals[2] < vals[1]

    def test_requires_mode_coverage(self):
        problem = benchmark_problem(0.5, 2)
        grid = OmegaGrid(2, 8)
        with pytest.raises(ValueError):
            trace_hs_error(problem, grid, np.zeros(grid.n_dofs), k_modes=0)

    def test_coverage_check_of_many_modes_searches_no_list(self, monkeypatch):
        # 4,000 d=1 data modes: searching the list of the k_modes indices
        # once per data mode took 0.30 s a call. With a zero trace the error
        # is the solution's norm, sum_k c_k**2 / (2 lambda_k**s) squared
        listed = BoxDomain.modes_by_eigenvalue

        class Unsearched(list):
            def __contains__(self, item):
                raise AssertionError("searched the list of modes")

        monkeypatch.setattr(BoxDomain, "modes_by_eigenvalue",
                            lambda domain, count: Unsearched(listed(domain, count)))
        domain, s = BoxDomain(1), 0.5
        coefs = [1.0 / k for k in range(1, 4001)]
        problem = FractionalProblem(s=s, domain=domain, f=modal_function(
            domain, [((k,), c) for k, c in enumerate(coefs, start=1)]))
        grid = OmegaGrid(1, 64)
        want = math.sqrt(math.fsum(c * c / (2.0 * (math.pi * k) ** (2 * s))
                                   for k, c in enumerate(coefs, start=1)))
        k_modes = error_analysis._default_mode_count(problem)
        got = trace_hs_error(problem, grid, np.zeros(grid.n_dofs), k_modes=k_modes)
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValueError, match="cover every mode"):
            trace_hs_error(problem, grid, np.zeros(grid.n_dofs), k_modes=3999)

    @pytest.mark.parametrize("load_index", [(2, 1), (1, 2)], ids=["load21", "load12"])
    def test_sampled_asymmetric_mode_projects_onto_its_own_axes(self, load_index):
        # trace = sin(2 pi x1) sin(pi x2) at the nodes. Its sine-hat integrals
        # are gamma_k sin(k pi x_i), gamma_k = 4 sin^2(k pi h/2)/((k pi)^2 h),
        # and sum_i sin(k pi x_i) sin(l pi x_i) = (n/2) delta_kl for k, l < n:
        # the orthonormal projection is 2 gamma_2 gamma_1 (n/2)^2 onto (2, 1)
        # and 0 onto (1, 2) and every other mode. Contracting the axes the
        # other way round swaps the two.
        n, s = 8, 0.4
        grid = OmegaGrid(2, n)
        x = grid.interior_nodes
        trace = np.outer(np.sin(2 * math.pi * x), np.sin(math.pi * x)).ravel()

        def gamma(k):
            return 4 * math.sin(k * math.pi / (2 * n)) ** 2 * n / (k * math.pi) ** 2

        projection = 2 * gamma(2) * gamma(1) * (n / 2) ** 2
        domain = BoxDomain(2)
        problem = FractionalProblem(
            s=s, domain=domain, f=modal_function(domain, [(load_index, 1.0)])
        )
        ((_, lam, u),) = solve_fractional(problem).orthonormal_items()
        if load_index == (2, 1):
            want = lam ** (s / 2) * abs(u - projection)
        else:
            want = lam ** (s / 2) * math.hypot(u, projection)
        got = trace_hs_error(problem, grid, sine_coefficients(grid, trace), k_modes=16)
        assert got == pytest.approx(want, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        indices=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                         min_size=1, max_size=6),
    )
    def test_default_mode_count_is_first_covering_step(self, d, indices):
        domain = BoxDomain(d)
        f = modal_function(domain, [(idx[:d], 1.0) for idx in indices])
        problem = FractionalProblem(s=0.5, domain=domain, f=f)
        # the smallest base + 8*j whose eigenvalue-ordered modes hold the data
        wanted = {idx[:d] for idx in indices}
        order = domain.modes_by_eigenvalue(300)
        count = 12 if d == 1 else 16
        while not wanted.issubset(order[:count]):
            count += 8
        assert error_analysis._default_mode_count(problem) == count

    def test_default_mode_count_lists_no_more_modes_than_the_data_box(self, monkeypatch):
        # listing sum(k*k) modes for the d=1 index k = 5000 would take 25 M of them
        listed = BoxDomain.modes_by_eigenvalue

        def bounded(domain, count):
            assert count <= 20_000, f"listed {count} modes"
            return listed(domain, count)

        monkeypatch.setattr(BoxDomain, "modes_by_eigenvalue", bounded)
        domain = BoxDomain(1)
        problem = FractionalProblem(s=0.5, domain=domain,
                                    f=modal_function(domain, [((5000,), 1.0)]))
        assert error_analysis._default_mode_count(problem) == 5004  # 12 + 8*624 >= 5000

    def test_default_mode_count_counts_the_d2_order_in_place(self):
        # every single mode (k, l) up to 40 against its place in the listed
        # order, then one mode (600, 600): listing its isqrt(2k**2)**2 box
        # into a dict took 152 MB (traced) and 6.1 s
        domain = BoxDomain(2)
        order = domain.modes_by_eigenvalue(3300)
        assert (40, 40) in order
        for position, index in enumerate(order):
            if max(index) <= 40:
                problem = FractionalProblem(s=0.5, domain=domain,
                                            f=modal_function(domain, [(index, 1.0)]))
                want = 16 + 8 * max(0, -(-(position + 1 - 16) // 8))
                assert error_analysis._default_mode_count(problem) == want, index
        problem = FractionalProblem(s=0.5, domain=domain,
                                    f=modal_function(domain, [((600, 600), 1.0), ((3, 1), 1.0)]))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            count = error_analysis._default_mode_count(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 64 << 10
        # the modes of eigenvalue below 720,000 number about pi/4 * 720,000
        assert abs(count - math.pi / 4 * 720_000) <= 2_000

    @pytest.mark.parametrize("index", [(1,), (40,), (5000,), (1, 1), (2, 40), (60, 60), (90, 7)])
    def test_mode_list_bytes_is_a_lower_bound_on_the_trace_error_peak(self, index):
        domain = BoxDomain(len(index))
        problem = FractionalProblem(s=0.5, domain=domain,
                                    f=modal_function(domain, [(index, 1.0)]))
        grid = OmegaGrid(domain.d, 8)
        k_modes = error_analysis._default_mode_count(problem)
        need = error_analysis.mode_list_bytes(index)
        assert need <= (72 + 32 * domain.d) * k_modes  # counts no mode the list lacks
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace_hs_error(problem, grid, np.ones(grid.n_dofs), k_modes)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert need <= peak

    @pytest.mark.parametrize("index,old", [((20000,), 640_000), ((600, 600), 14_352_040)])
    def test_mode_list_floor_is_counted(self, index, old):
        # 104 bytes a listed d=1 mode and 136 a counted d=2 mode, where 32
        # and 40 were counted: memory between the two counts passed the old
        # check, and the trace error then outgrew it (150-290 traced)
        need = error_analysis.mode_list_bytes(index)
        assert need == (72 + 32 * len(index)) / (8 * (len(index) + 3)) * old
        have = (old + need) // 2
        assert error_analysis.data_mode_error([(index, 1.0)], have).startswith(
            f"the trace error of data mode {index} holds at least {need:.3g} bytes")
        assert error_analysis.data_mode_error([(index, 1.0)], need) is None

    @pytest.mark.parametrize("scheme", ["hfem", "hpfem"])
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_bounded_by_energy_error(self, scheme, s):
        rows = run_convergence_study(scheme, s, 1, levels=4)
        for row in rows:
            assert row.trace_hs_error <= 1.5 * row.energy_error


class TestBaseDomainMemory:
    """``discretize`` rejects a grid whose ``solver.trace_bytes`` exceed
    the physical memory before the load or the y-mesh is built."""

    def test_bound_is_two_arrays_and_one_chunk_budget(self, monkeypatch):
        # d=2 n=64: 3969 dofs, 63,504 bytes of coefficients and the budget
        need = 16 * 63**2 + (1 << 20)
        assert solver.trace_bytes(63**2) == need
        problem = benchmark_problem(0.5, 2)
        monkeypatch.setattr(error_analysis, "physical_memory_bytes", lambda: need)
        assert discretize(problem, "hpfem", 64).load.size == 63**2
        monkeypatch.setattr(error_analysis, "physical_memory_bytes", lambda: need - 1)
        monkeypatch.setattr(error_analysis, "assemble_load", None)
        monkeypatch.setattr(error_analysis, "build_ymesh", None)
        with pytest.raises(error_analysis.MeshError,
                           match=r"^N_omega = 3969 base-domain dofs keep at least 1\.11e\+06 "
                                 r"bytes while the level is solved, more than the 1\.11e\+06 "
                                 r"bytes of physical memory$"):
            discretize(problem, "hpfem", 64)


class TestLibraryDataChecks:
    """``run_level`` rejects data that the CLI's ``RunConfig.validate``
    rejects, as a :class:`SolverError` naming the level, before the load is
    placed."""

    def test_index_past_int64_is_a_solver_error_naming_the_level(self):
        # the list of modes up to 1e20 outgrows any memory; the load's
        # placement used to raise OverflowError from femomega._aliased_cells
        with pytest.raises(SolverError, match=r"^hfem s=0\.5 d=1 n=8: the trace error of data "
                                              r"mode \(100000000000000000000,\) holds at least "
                                              r"1\.04e\+22 bytes of listed modes"):
            run_convergence_study("hfem", 0.5, 1, n_list=[8], f_entries=[((10**20,), 1.0)])

    @pytest.mark.parametrize("index", [(2**63,), (1, 2**63)])
    def test_index_past_int64_within_memory_is_rejected_before_the_load(self, monkeypatch,
                                                                         index):
        monkeypatch.setattr(error_analysis, "physical_memory_bytes", lambda: 10**60)
        monkeypatch.setattr(error_analysis, "assemble_load", None)
        domain = BoxDomain(len(index))
        problem = FractionalProblem(s=0.5, domain=domain,
                                    f=modal_function(domain, [(index, 1.0)]))
        with pytest.raises(SolverError, match=rf"^hpfem s=0\.5 d={len(index)} n=8: data mode "
                                              r"\([0-9, ]+\) has an index past the int64 range"):
            run_level(problem, "hpfem", 8)

    @pytest.mark.parametrize("index", [(20000,), (600, 600)])
    def test_mode_list_beyond_memory_is_rejected_before_the_load(self, monkeypatch, index):
        need = error_analysis.mode_list_bytes(index)
        domain = BoxDomain(len(index))
        problem = FractionalProblem(s=0.5, domain=domain,
                                    f=modal_function(domain, [((1,) * len(index), 1.0),
                                                              (index, 1.0)]))
        monkeypatch.setattr(error_analysis, "physical_memory_bytes", lambda: need - 1)
        monkeypatch.setattr(error_analysis, "assemble_load", None)
        with pytest.raises(SolverError, match=rf"^hfem s=0\.5 d={len(index)} n=8: the trace "
                                              r"error of data mode .* more than the .* bytes of "
                                              r"physical memory$"):
            run_level(problem, "hfem", 8)


# mesh-rule overrides outside their ranges, each with a scheme that reads it
BAD_OVERRIDES = [
    ("hfem", "m_mult", -1.0), ("hpfem", "m_mult", -1.0), ("hfem", "m_mult", 0.0),
    ("hpfem", "m_mult", 0.0), ("hfem", "y_mult", -1.0), ("hpfem", "y_mult", -1.0),
    ("hfem", "mu", 5.0), ("hpfem", "beta", -1.0), ("hpfem", "sigma", 2.0),
]


class TestLibraryOverrideChecks:
    """``run_level`` rejects the mesh-rule overrides that the CLI rejects,
    through the one check of ``meshing.rule_override_error``, as a
    :class:`SolverError` naming the level. ``m_mult=-1`` used to run with
    ``M = 1``; ``y_mult=-1``, ``mu=5``, ``beta=-1`` and ``sigma=2`` raised a
    bare ``ValueError``."""

    @pytest.mark.parametrize("scheme,name,value", BAD_OVERRIDES)
    def test_rejected_as_a_solver_error_naming_the_level(self, monkeypatch, scheme, name,
                                                         value):
        monkeypatch.setattr(error_analysis, "build_ymesh", None)
        message = meshing.rule_override_error(**{name: value})
        assert message.startswith(f"{name} must ")
        with pytest.raises(SolverError) as err:
            run_level(benchmark_problem(0.5, 1), scheme, 8, **{name: value})
        assert str(err.value) == f"{scheme} s=0.5 d=1 n=8: {message}"
        assert isinstance(err.value.__cause__, meshing.MeshError)


class TestLibraryRejectsWhatTheCliRejects:
    """``run_level`` refuses a ``tol`` outside the one margin check
    (``error_analysis.tol_error``, which ``RunConfig.validate`` reads too), a
    grid of fewer than 2 cells or coarser than the rules' ``h_omega <= 1/2``,
    and an unknown scheme (``TestStudyDriver``), as a :class:`SolverError`
    naming the level.
    ``tol=inf`` and ``tol=0`` used to run, ``tol=-1`` and ``nan`` failed the
    certificate at every interpolation point, and the rest raised a bare
    ``ValueError``."""

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("scheme", ["hfem", "hpfem"])
    def test_tol_outside_the_margin_check(self, monkeypatch, scheme, tol):
        monkeypatch.setattr(error_analysis, "discretize", None)  # refused before the level
        with pytest.raises(SolverError) as err:
            run_level(benchmark_problem(0.5, 1), scheme, 8, tol=tol)
        assert str(err.value) == (f"{scheme} s=0.5 d=1 n=8: tol must be finite and positive, "
                                  f"got {tol}")

    @pytest.mark.parametrize("scheme,d,n,message", [
        ("hfem", 1, 1, "need at least 2 cells per direction"),
        ("hpfem", 2, 1, "need at least 2 cells per direction"),
        ("hfem", 2, 2, "h_omega=0.7071067811865476 must lie in (0, 1/2]"),
        ("hpfem", 2, 2, "h_omega=0.7071067811865476 must lie in (0, 1/2]"),
    ], ids=["n1-d1", "n1-d2", "hfem-d2-n2", "hpfem-d2-n2"])
    def test_level_that_cannot_be_built(self, scheme, d, n, message):
        with pytest.raises(SolverError) as err:
            run_level(benchmark_problem(0.5, d), scheme, n)
        assert str(err.value) == f"{scheme} s=0.5 d={d} n={n}: {message}"
        assert isinstance(err.value.__cause__, meshing.MeshError)

    def test_one_margin_check_serves_both_paths(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(error_analysis, "tol_error", lambda tol: f"no margin {tol:g}")
        with pytest.raises(SolverError, match=r"^hfem s=0\.5 d=1 n=8: no margin 1e-09$"):
            run_level(benchmark_problem(0.5, 1), "hfem", 8)
        assert cli.main(["solve", "--d", "1", "--n", "8", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "configuration error: no margin 1e-09\n"


class TestParsevalDataProduct:
    """``energy_error`` forms ``int f * tr u_h`` as the load's sine
    coefficients against the trace's over ``d_s``. Within rounding that is
    the per-mode sum of ``oracles.data_product_per_mode``, also where the
    grid aliases modes: ``k`` and ``2n - k`` share a cell with opposite
    signs, multiples of ``n`` have none, and indices above ``2n`` wrap."""

    ALIASED = {
        1: [((3,), 0.8), ((13,), -0.6), ((8,), 1.1), ((16,), 0.4), ((5,), -0.9), ((21,), 0.7)],
        2: [((1, 2), 0.8), ((15, 2), -0.6), ((8, 3), 1.1), ((2, 3), -0.9), ((2, 19), 0.7),
            ((16, 16), 0.3), ((4, 4), 0.5)],
    }

    @staticmethod
    def problem(d):
        domain = BoxDomain(d)
        entries = TestParsevalDataProduct.ALIASED[d]
        return FractionalProblem(s=0.4, domain=domain, f=modal_function(domain, entries))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_mode_sum(self, d, seed):
        problem, grid = self.problem(d), OmegaGrid(d, 8)
        factor, cell = femomega._aliased_cells(grid, [index for index, _ in problem.f.modes])
        assert (factor == 0.0).sum() == 2 and len(set(cell[factor != 0.0])) == len(cell) - 4
        load = assemble_load(grid, problem)
        # I_h < 0 and over 1e2 times I_exact: the squared error is I_h to
        # within its own rounding, with no cancellation
        coeffs = -1e4 * (1.0 + np.random.default_rng(seed).random(grid.n_dofs)) * load
        i_h = data_product_per_mode(problem, grid, coeffs)
        assert -i_h > 1e2 * exact_data_product(problem)
        err = energy_error(problem, load, coeffs)
        assert err**2 / problem.d_s == pytest.approx(exact_data_product(problem) - i_h,
                                                     rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_places_no_data(self, monkeypatch, d):
        problem, grid = self.problem(d), OmegaGrid(d, 8)
        load = assemble_load(grid, problem)
        coeffs = 1e-3 * np.random.default_rng(d).standard_normal(grid.n_dofs)
        calls = []

        def spy(module, name):
            wrapped = getattr(module, name)

            def recorded(*args, **kwargs):
                calls.append(name)
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        spy(femomega, "_aliased_cells")
        spy(femomega, "sine_projections")
        spy(error_analysis, "sine_projections")
        assert energy_error(problem, load, coeffs) > 0.0
        assert calls == []
        # the spies see the trace error, which does place its modes
        trace_hs_error(problem, grid, coeffs, error_analysis._default_mode_count(problem))
        assert calls == ["sine_projections", "_aliased_cells"]


class TestStudyDriver:
    def test_row_bookkeeping(self):
        rows = run_convergence_study("hpfem", 0.5, 1, levels=3)
        assert len(rows) == 3
        for row in rows:
            assert row.N_total == row.N_omega * row.N_Y
            assert row.wall_ms > 0.0
            assert row.Y >= 1.0
        assert rows[0].h_omega == pytest.approx(1 / 8)
        assert rows[1].h_omega == pytest.approx(1 / 16)

    def test_explicit_n_list(self):
        rows = run_convergence_study("hfem", 0.4, 1, n_list=[10, 20])
        assert [r.h_omega for r in rows] == [pytest.approx(0.1), pytest.approx(0.05)]

    def test_observed_orders_on_synthetic_rows(self):
        def make_row(h, e):
            return StudyRow(
                h_omega=h, N_omega=1, M=1, N_Y=1, N_total=1, Y=1.0,
                energy_error=e, trace_hs_error=0.0, wall_ms=0.0,
            )

        rows = [make_row(0.1, 1.0), make_row(0.05, 0.5), make_row(0.025, 0.25)]
        assert observed_orders(rows) == pytest.approx([1.0, 1.0])
        rows = [make_row(0.1, 1.0), make_row(0.05, 0.25)]
        assert observed_orders(rows) == pytest.approx([2.0])

    def test_dof_gap(self):
        def make_row(n_total, e):
            return StudyRow(
                h_omega=0.1, N_omega=1, M=1, N_Y=1, N_total=n_total, Y=1.0,
                energy_error=e, trace_hs_error=0.0, wall_ms=0.0,
            )

        ref = [make_row(100, 0.5), make_row(1000, 0.1)]
        alt = [make_row(50, 0.4), make_row(80, 0.1), make_row(200, 0.05)]
        err, n_ref, n_alt = dof_gap(ref, alt)
        assert err == pytest.approx(0.1)
        assert n_ref == 1000
        assert n_alt == 80

    def test_energy_monotone_under_degree_elevation(self):
        # nested spaces: raising every degree cannot increase the error
        from fracdiff.meshing import YMesh

        problem = benchmark_problem(0.6, 1)
        level = discretize(problem, "hpfem", 12)
        mesh = level.mesh
        raised = YMesh(nodes=mesh.nodes, degrees=tuple(p + 1 for p in mesh.degrees))
        raised_system = KroneckerSystem(
            level.system.omega, assemble_weighted_matrices(raised, alpha=problem.alpha)
        )
        errs = []
        load = dst(level.load, (11,))  # nodal: level.load holds sine coefficients
        for system in (level.system, raised_system):
            sol = solve(system, cylinder_rhs(system, load), rel_tol=1e-12)
            errs.append(energy_error(problem, level.load,
                                     sine_coefficients(level.grid, sol.trace)))
        assert errs[1] <= errs[0] * (1 + 1e-10)

    def test_level_mesh_is_the_weighted_matrices_mesh(self):
        # the mesh has one source: a level with other weighted matrices
        # reads their mesh
        level = discretize(benchmark_problem(0.5, 1), "hpfem", 8)
        assert level.mesh is level.weighted.mesh
        other = discretize(benchmark_problem(0.5, 1), "hfem", 8).weighted
        assert replace(level, weighted=other).mesh is other.mesh

    def test_run_level_rejects_unknown_scheme(self):
        problem = benchmark_problem(0.5, 1)
        with pytest.raises(SolverError, match=r"^spectral s=0\.5 d=1 n=8: unknown scheme"):
            run_level(problem, "spectral", 8)

    @pytest.mark.parametrize("name", ["assemble_omega_matrices", "cylinder_rhs"])
    def test_run_level_builds_no_full_tensor_system(self, monkeypatch, name):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name} called on the run path")

        monkeypatch.setattr(error_analysis, name, forbidden)
        row = run_level(benchmark_problem(0.5, 2), "hpfem", 8)
        assert row.N_total == 49 * row.N_Y

    @pytest.mark.parametrize("scheme,d", [("hfem", 1), ("hpfem", 2)])
    def test_errors_scale_with_the_data_by_powers_of_two(self, scheme, d):
        # 2**530 squared overflows a double and 2**-1000 squared underflows
        # to 0; the errors are linear in f, and scaling by a power of two
        # is exact, so they are 2**k times those of the unscaled data
        def errors(k):
            domain = BoxDomain(d)
            entries = [((1,) * d, math.ldexp(1.0, k)), ((2,) * d, math.ldexp(-0.7, k))]
            problem = FractionalProblem(s=0.4, domain=domain, f=modal_function(domain, entries))
            row = run_level(problem, scheme, 8)
            return row.energy_error, row.trace_hs_error

        base = errors(0)
        assert all(e > 0.0 for e in base)
        for k in (-1000, 0, 530):
            assert errors(k) == tuple(math.ldexp(e, k) for e in base)


class TestSineHatReuse:
    """The load is placed in sine coordinates and the error measures read
    the trace's: neither takes a closed-form sine-hat vector."""

    LOAD = [((1, 1), 1.0), ((2, 3), -0.5), ((3, 2), 0.25), ((5, 5), 0.7), ((1, 4), -0.3)]

    def test_load_is_bitwise_the_per_mode_placement_and_trace_error_near_them(self):
        domain = BoxDomain(2)
        problem = FractionalProblem(s=0.8, domain=domain, f=modal_function(domain, self.LOAD))
        grid = OmegaGrid(2, 12)
        load = assemble_load(grid, problem)
        factor, cell = femomega._aliased_cells(grid, [index for index, _ in problem.f.modes])
        placed = np.zeros(grid.n_dofs)
        for (_, coef), f, c in zip(problem.f.modes, factor, cell):
            placed[c] += problem.d_s * coef * f
        assert load.tobytes() == placed.tobytes()
        want = np.zeros(grid.n_dofs)
        for index, coef in problem.f.modes:
            want += coef * np.kron(*(femomega.sine_hat_integrals(grid, k) for k in index))
        nodal = dst(load, (11, 11))
        assert np.max(np.abs(nodal - problem.d_s * want)) <= 1e-14 * problem.d_s * np.abs(want).max()

        coeffs = np.random.default_rng(8).standard_normal(grid.n_dofs)
        trace = dst(coeffs, (11, 11))
        k_modes = error_analysis._default_mode_count(problem)
        got = trace_hs_error(problem, grid, coeffs, k_modes)
        assert got == pytest.approx(per_mode_chain_trace_error(problem, grid, trace, k_modes),
                                    rel=1e-14)

    def test_error_measures_compute_no_sine_hat_vector(self, monkeypatch):
        calls = []
        integrals = femomega.sine_hat_integrals

        def counted(grid, k):
            calls.append(k)
            return integrals(grid, k)

        monkeypatch.setattr(femomega, "sine_hat_integrals", counted)
        domain = BoxDomain(2)
        problem = FractionalProblem(s=0.8, domain=domain, f=modal_function(domain, self.LOAD))
        grid = OmegaGrid(2, 12)
        load = assemble_load(grid, problem)
        coeffs = np.random.default_rng(9).standard_normal(grid.n_dofs)
        trace_hs_error(problem, grid, coeffs, error_analysis._default_mode_count(problem))
        energy_error(problem, load, 1e-3 * coeffs)
        assert calls == []


class TestTraceErrorGather:
    """``trace_hs_error`` gathers the projections of the trace onto every
    mode from its sine coefficients; within rounding they are those of one
    contraction chain per mode over the nodal trace. The levels d=1 n=5 and
    d=2 n=4 project onto modes whose indices pass ``n``."""

    @pytest.mark.parametrize("d,n", [(1, 5), (1, 40), (2, 4), (2, 9), (2, 33)])
    def test_near_the_per_mode_chain(self, d, n):
        domain = BoxDomain(d)
        entries = SIX_MODE_LOAD if d == 1 else [((1, 1), 1.0), ((4, 2), -0.6), ((2, 5), 0.3)]
        problem = FractionalProblem(s=0.3, domain=domain, f=modal_function(domain, entries))
        grid = OmegaGrid(d, n)
        coeffs = np.random.default_rng(n).standard_normal(grid.n_dofs)
        trace = dst(coeffs, (n - 1,) * d)
        k_modes = error_analysis._default_mode_count(problem)
        if n < 8:
            assert max(max(idx) for idx in domain.modes_by_eigenvalue(k_modes)) >= n
        got = trace_hs_error(problem, grid, coeffs, k_modes)
        assert got == pytest.approx(per_mode_chain_trace_error(problem, grid, trace, k_modes),
                                    rel=1e-14)


class TestSolverAccuracy:
    def test_energy_error_matches_exact_discrete_value(self, exact_energy_error):
        # hp, s=0.2: the identity-based energy error amplifies the relative
        # error of the trace about 1e5-fold. The reference eliminates the
        # element matrices in 60-digit arithmetic; a long-double refined
        # solve of the assembled matrices, whose summed entries are rounded,
        # is 1.9e-6 off it here
        s, n = 0.2, 128
        domain = BoxDomain(1)
        problem = FractionalProblem(
            s=s, domain=domain, f=modal_function(domain, SIX_MODE_LOAD)
        )
        row = run_level(problem, "hpfem", n)
        want = exact_energy_error(problem, discretize(problem, "hpfem", n), digits=60)
        assert row.energy_error == pytest.approx(want, rel=1e-8)

    def test_solver_failure_names_the_level(self, monkeypatch):
        # element matrices half as large double r_h, and so the certificate
        # d_s*omega**s*r_h, at every shift and every interpolation point;
        # the points are certified first
        assemble = error_analysis.assemble_weighted_matrices

        def halved(*args, **kwargs):
            weighted = assemble(*args, **kwargs)
            return replace(weighted, groups=tuple(
                (ms, 0.5 * mass, 0.5 * stiff) for ms, mass, stiff in weighted.groups))

        monkeypatch.setattr(error_analysis, "assemble_weighted_matrices", halved)
        problem = benchmark_problem(0.4, 1)
        with pytest.raises(SolverError) as err:
            run_level(problem, "hfem", 16)
        assert str(err.value).startswith(
            "hfem s=0.4 d=1 n=16: y-resolvent certificate failed at 127 of 127 interpolation "
            "points")
