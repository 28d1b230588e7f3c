import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdiff import error_analysis
from fracdiff.error_analysis import (
    StudyRow,
    direct_energy_error_small,
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
    via_identity = energy_error(problem, level.load, sol.trace)
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

    def test_exact_trace_gives_small_error(self):
        problem = benchmark_problem(0.6, 1)
        errs = []
        for n in (16, 32, 64):
            grid = OmegaGrid(1, n)
            errs.append(energy_error(problem, assemble_load(grid, problem),
                                     exact_nodal_trace(problem, grid)))
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
        with pytest.raises(ValueError):
            energy_error(problem, assemble_load(grid, problem), giant)


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
                trace_hs_error(problem, grid, exact_nodal_trace(problem, grid), 12)
            )
        assert vals[0] < 0.1
        assert vals[1] < vals[0] and vals[2] < vals[1]

    def test_requires_mode_coverage(self):
        problem = benchmark_problem(0.5, 2)
        grid = OmegaGrid(2, 8)
        with pytest.raises(ValueError):
            trace_hs_error(problem, grid, np.zeros(grid.n_dofs), k_modes=0)

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
        got = trace_hs_error(problem, grid, trace, k_modes=16)
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

    @pytest.mark.parametrize("scheme", ["hfem", "hpfem"])
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_bounded_by_energy_error(self, scheme, s):
        rows = run_convergence_study(scheme, s, 1, levels=4)
        for row in rows:
            assert row.trace_hs_error <= 1.5 * row.energy_error


class TestStudyDriver:
    def test_row_bookkeeping(self):
        rows = run_convergence_study("hpfem", 0.5, 1, levels=3)
        assert len(rows) == 3
        for row in rows:
            assert row.N_total == row.N_omega * row.N_Y
            assert row.solve_iterations >= 1
            assert row.wall_time > 0.0
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
                energy_error=e, trace_hs_error=0.0, solve_iterations=1, wall_time=0.0,
            )

        rows = [make_row(0.1, 1.0), make_row(0.05, 0.5), make_row(0.025, 0.25)]
        assert observed_orders(rows) == pytest.approx([1.0, 1.0])
        rows = [make_row(0.1, 1.0), make_row(0.05, 0.25)]
        assert observed_orders(rows) == pytest.approx([2.0])

    def test_dof_gap(self):
        def make_row(n_total, e):
            return StudyRow(
                h_omega=0.1, N_omega=1, M=1, N_Y=1, N_total=n_total, Y=1.0,
                energy_error=e, trace_hs_error=0.0, solve_iterations=1, wall_time=0.0,
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
        raised = YMesh(
            Y=mesh.Y, nodes=mesh.nodes,
            degrees=tuple(p + 1 for p in mesh.degrees),
            family="geometric", param=mesh.param,
        )
        raised_system = KroneckerSystem(
            level.system.omega, assemble_weighted_matrices(raised, alpha=problem.alpha)
        )
        errs = []
        for system in (level.system, raised_system):
            sol = solve(system, cylinder_rhs(system, level.load), rel_tol=1e-12)
            errs.append(energy_error(problem, level.load, sol.trace))
        assert errs[1] <= errs[0] * (1 + 1e-10)

    def test_run_level_rejects_unknown_scheme(self):
        problem = benchmark_problem(0.5, 1)
        with pytest.raises(ValueError):
            run_level(problem, "spectral", 8)


def refined_resolvent(weighted, w):
    """``e0' (w B_mass + B_stiff)^-1 e0`` from a diagonally scaled dense
    Cholesky solve, iteratively refined with extended-precision residuals."""
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


class TestSolverAccuracy:
    def test_energy_error_matches_exact_discrete_value(self):
        # hp, s=0.2: the identity-based energy error amplifies the solver's
        # relative error about 1e5-fold, so a single application of the
        # exact inverse in double precision is not accurate enough
        s, n = 0.2, 128
        domain = BoxDomain(1)
        problem = FractionalProblem(
            s=s, domain=domain, f=modal_function(domain, SIX_MODE_LOAD)
        )
        row = run_level(problem, "hpfem", n)

        # every plain sine is an eigenvector of the uniform P1 pencil, so the
        # exact discrete solution splits into one resolvent per mode
        level = discretize(problem, "hpfem", n)
        weighted, h = level.weighted, level.grid.h
        i_h = 0.0
        for (k,), c in SIX_MODE_LOAD:
            cos = math.cos(k * math.pi * h)
            mass, stiff = h * (4.0 + 2.0 * cos) / 6.0, (2.0 - 2.0 * cos) / h
            gamma = 2.0 * (1.0 - cos) / ((k * math.pi) ** 2 * h)
            r = refined_resolvent(weighted, stiff / mass)
            i_h += problem.d_s * (c * gamma) ** 2 * r / mass * n / 2.0
        want = math.sqrt(problem.d_s * (exact_data_product(problem) - i_h))
        assert row.energy_error == pytest.approx(want, rel=1e-6)

    def test_solver_failure_names_the_level(self):
        problem = benchmark_problem(0.4, 1)
        with pytest.raises(SolverError) as err:
            run_level(problem, "hfem", 16, tol=1e-30)
        assert str(err.value).startswith("hfem s=0.4 d=1 n=16: ")
        assert err.value.residual > 0.0
        assert err.value.iterations >= 2
