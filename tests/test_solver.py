import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdiff import error_analysis, solver
from fracdiff.error_analysis import discretize, run_level
from fracdiff.fem1d import assemble_weighted_matrices
from fracdiff.femomega import OmegaGrid, assemble_load, assemble_omega_matrices
from fracdiff.meshing import graded_mesh, hp_mesh
from fracdiff.solver import (
    KroneckerSystem,
    SolutionTensor,
    SolverError,
    TensorPreconditioner,
    cylinder_rhs,
    kron_matvec,
    solve,
    solve_trace,
    y_resolvent,
)
from fracdiff.spectral import BoxDomain, FractionalProblem, benchmark_problem, modal_function
from oracles import dst
from y_reference import element_loop_fold, unique_shifts, unique_solve_trace


def _distinct(grid):
    """The ascending distinct base-domain shifts of a grid, sorted out of
    the shift of every mode."""
    return unique_shifts(grid)[1]


def make_system(d=1, n=8, mesh=None, alpha=0.0):
    if mesh is None:
        mesh = graded_mesh(6, 0.5, 1.5)
    omega = assemble_omega_matrices(OmegaGrid(d, n))
    weighted = assemble_weighted_matrices(mesh, alpha=alpha)
    return KroneckerSystem(omega, weighted)


def dense_operator(system):
    # oracle: explicit Kronecker form
    return np.kron(
        system.y.B_mass.toarray(), system.omega.A_stiff.toarray()
    ) + np.kron(system.y.B_stiff.toarray(), system.omega.A_mass.toarray())


class TestKronMatvec:
    def test_zero_vector(self):
        system = make_system()
        assert np.all(kron_matvec(system, np.zeros(system.n_total)) == 0.0)

    def test_unit_vectors_match_dense_oracle(self):
        system = make_system(d=1, n=3, mesh=graded_mesh(2, 1.0, 1.0))
        dense = dense_operator(system)
        for j in range(system.n_total):
            e = np.zeros(system.n_total)
            e[j] = 1.0
            got = kron_matvec(system, e)
            assert np.max(np.abs(got - dense[:, j])) <= 1e-14 * np.abs(dense).max()

    @pytest.mark.parametrize(
        "d,n,mesh,alpha",
        [
            (1, 12, graded_mesh(8, 0.4, 1.5), 0.2),
            (1, 9, hp_mesh(4, 0.125, 2.0, 0.7), -0.6),
            (2, 4, hp_mesh(3, 0.125, 1.0, 0.7), 0.6),
        ],
    )
    def test_random_vectors_match_dense_oracle(self, d, n, mesh, alpha):
        system = make_system(d=d, n=n, mesh=mesh, alpha=alpha)
        assert system.n_total <= 1000
        dense = dense_operator(system)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(system.n_total)
            got = kron_matvec(system, x)
            want = dense @ x
            assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()

    def test_symmetry(self):
        system = make_system(d=2, n=5, mesh=hp_mesh(3, 0.2, 1.0, 0.8), alpha=-0.4)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.standard_normal(system.n_total)
            y = rng.standard_normal(system.n_total)
            a = float(kron_matvec(system, x) @ y)
            b = float(x @ kron_matvec(system, y))
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_tensor_and_flat_agree(self):
        system = make_system()
        rng = np.random.default_rng(2)
        X = rng.standard_normal((system.n_omega, system.n_y))
        flat = kron_matvec(system, X.reshape(-1, order="F"))
        tensor = kron_matvec(system, X)
        assert tensor.flags.f_contiguous
        assert np.allclose(flat.reshape(X.shape, order="F"), tensor)

    def test_dimension_mismatch(self):
        system = make_system()
        with pytest.raises(ValueError):
            kron_matvec(system, np.zeros(system.n_total + 1))

    @pytest.mark.parametrize("layout", ["F", "C"])
    def test_layout_does_not_change_the_product_bitwise(self, layout):
        # A_stiff (B_mass X^T)^T + A_mass (B_stiff X^T)^T, the same bits for a
        # C- or Fortran-ordered X, and within rounding of the dense operator
        system = make_system(d=2, n=7, mesh=hp_mesh(5, 0.125, 1.5, 0.7), alpha=-0.3)
        X = np.random.default_rng(4).standard_normal((system.n_omega, system.n_y))
        want = kron_matvec(system, np.asfortranarray(X))
        got = kron_matvec(system, np.asarray(X, order=layout))
        assert got.flags.f_contiguous
        assert got.tobytes() == want.tobytes()
        flat = kron_matvec(system, X.reshape(-1, order="F"))
        assert flat.tobytes() == want.reshape(-1, order="F").tobytes()
        dense = dense_operator(system) @ X.reshape(-1, order="F")
        assert np.max(np.abs(flat - dense)) <= 1e-13 * np.abs(dense).max()

    def test_positive_definite(self):
        system = make_system(d=1, n=10, mesh=graded_mesh(7, 0.3, 1.2), alpha=0.5)
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = rng.standard_normal(system.n_total)
            assert float(x @ kron_matvec(system, x)) > 0.0

def jacobi_pcg_reference(system, rhs, rel_tol):
    # oracle: diagonally scaled conjugate gradients on the operator
    diag = np.outer(system.omega.A_stiff.diagonal(), system.y.B_mass.diagonal())
    diag += np.outer(system.omega.A_mass.diagonal(), system.y.B_stiff.diagonal())
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = r / diag
    p = z.copy()
    rz = float(np.vdot(r, z))
    target = rel_tol * np.linalg.norm(rhs)
    for _ in range(20 * system.n_total):
        if np.linalg.norm(r) <= target:
            return x
        q = kron_matvec(system, p)
        step = rz / float(np.vdot(p, q))
        x += step * p
        r -= step * q
        z = r / diag
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("Jacobi PCG reference did not converge")


def tensor_eigen_reference(system, rhs, rel_tol):
    # oracle: generalized eigenpairs in both directions diagonalize S
    lam, V = scipy.linalg.eigh(system.omega.A_stiff.toarray(), system.omega.A_mass.toarray())
    mu, W = scipy.linalg.eigh(system.y.B_stiff.toarray(), system.y.B_mass.toarray())
    return V @ ((V.T @ rhs @ W) / (lam[:, None] + mu[None, :])) @ W.T


def refinement_reference(system, rhs, rel_tol):
    # oracle: the refinement loop with the full residual B - S X from
    # kron_matvec and its np.linalg.norm; returns the solution, the number of
    # applies, the last relative residual and whether the loop stalled
    inverse = TensorPreconditioner.build(system)
    norm_b = np.linalg.norm(rhs)
    X = inverse.apply(rhs)
    applies, previous = 1, math.inf
    while True:
        R = rhs - kron_matvec(system, X)
        relres = np.linalg.norm(R) / norm_b
        if relres <= rel_tol or not relres <= 0.5 * previous:
            return X, applies, relres, relres > rel_tol
        previous = relres
        X += inverse.apply(R)
        applies += 1


class TestSolve:
    @pytest.mark.parametrize("reference", ["jacobi", "tensor"])
    def test_manufactured_solution(self, reference):
        system = make_system(d=1, n=14, mesh=graded_mesh(9, 0.35, 1.8), alpha=-0.2)
        rng = np.random.default_rng(7)
        w = rng.standard_normal((system.n_omega, system.n_y))
        rhs = kron_matvec(system, w)
        sol = solve(system, rhs, rel_tol=1e-10)
        rel = np.linalg.norm(sol.coefficients - w) / np.linalg.norm(w)
        assert rel < 1e-8
        oracle = {"jacobi": jacobi_pcg_reference, "tensor": tensor_eigen_reference}
        ref = oracle[reference](system, rhs, 1e-10)
        assert np.linalg.norm(ref - w) / np.linalg.norm(w) < 1e-8
        assert np.linalg.norm(sol.coefficients - ref) / np.linalg.norm(ref) < 1e-8

    @pytest.mark.parametrize("mesh,alpha", [(graded_mesh(16, 0.1, 2.5), 0.6),
                                            (hp_mesh(8, 0.125, 2.5, 0.7), -0.6)],
                             ids=["graded", "hp"])
    def test_rhs_layout_does_not_change_the_result(self, mesh, alpha):
        system = make_system(d=2, n=8, mesh=mesh, alpha=alpha)
        rhs = np.random.default_rng(5).standard_normal((system.n_omega, system.n_y))
        # just below the residual of one apply, so one refinement step runs
        rel_tol = 0.99 * solve(system, rhs, rel_tol=1.0).residual
        c = solve(system, np.ascontiguousarray(rhs), rel_tol=rel_tol)
        f = solve(system, np.asfortranarray(rhs), rel_tol=rel_tol)
        assert c.coefficients.tobytes() == f.coefficients.tobytes()
        assert c.iterations == f.iterations == 2

    @pytest.mark.parametrize("case", ["converging", "refining", "stalling"])
    @pytest.mark.parametrize("d,n", [(1, 24), (2, 8)])
    @pytest.mark.parametrize("mesh,alpha", [(graded_mesh(16, 0.1, 2.5), 0.6),
                                            (hp_mesh(8, 0.125, 2.5, 0.7), -0.6)],
                             ids=["graded", "hp"])
    def test_matches_the_reference_refinement(self, mesh, alpha, d, n, case):
        system = make_system(d=d, n=n, mesh=mesh, alpha=alpha)
        rhs = np.asfortranarray(np.random.default_rng(5).standard_normal(
            (system.n_omega, system.n_y)))
        first = refinement_reference(system, rhs, 1.0)[2]
        rel_tol = {"converging": 1.01 * first, "refining": 0.99 * first,
                   "stalling": 1e-30}[case]
        X, applies, relres, stalled = refinement_reference(system, rhs, rel_tol)
        assert stalled == (case == "stalling")
        if stalled:
            with pytest.raises(SolverError) as err:
                solve(system, rhs, rel_tol=rel_tol)
            assert err.value.iterations == applies
            assert err.value.residual == relres
        else:
            assert applies == {"converging": 1, "refining": 2}[case]
            sol = solve(system, rhs, rel_tol=rel_tol)
            assert sol.coefficients.tobytes() == X.tobytes()
            assert sol.iterations == applies
            assert sol.residual == relres

    def test_zero_rhs(self):
        system = make_system()
        sol = solve(system, np.zeros((system.n_omega, system.n_y)))
        assert sol.iterations == 0
        assert np.all(sol.coefficients == 0.0)

    def test_dense_factorization_oracle(self):
        # unweighted half-order case against a direct dense solve
        problem = benchmark_problem(0.5, 1)
        level = discretize(problem, "hfem", 12)
        system, rhs = level.system, level.rhs
        assert problem.alpha == 0.0
        assert system.n_total <= 400
        sol = solve(system, rhs, rel_tol=1e-12)
        dense = dense_operator(system)
        want = np.linalg.solve(dense, rhs.reshape(-1, order="F"))
        got = sol.coefficients.reshape(-1, order="F")
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8

    def test_residual_contract_after_solve(self):
        system = make_system(d=1, n=16, mesh=graded_mesh(10, 0.24, 2.1), alpha=0.6)
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((system.n_omega, system.n_y))
        tol = 1e-10
        sol = solve(system, rhs, rel_tol=tol)
        res = kron_matvec(system, sol.coefficients) - rhs
        assert np.linalg.norm(res) / np.linalg.norm(rhs) <= tol

    def test_nonconvergence_reports_residual(self):
        # an unattainable tolerance: refinement stalls at the rounding floor
        system = make_system(d=1, n=10, mesh=graded_mesh(6, 0.3, 1.5), alpha=0.4)
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal((system.n_omega, system.n_y))
        with pytest.raises(SolverError) as err:
            solve(system, rhs, rel_tol=1e-30)
        assert err.value.residual > 0.0
        assert err.value.iterations >= 2
        assert "stalled" in str(err.value)
        assert "below the attainable floor" in str(err.value)

    def test_inaccurate_inverse_is_not_called_a_floor(self, monkeypatch):
        # an inverse three times too large: the residual is -2B after the
        # first application and 4B after the second, worse than X = 0
        system = make_system(d=1, n=10, mesh=graded_mesh(6, 0.3, 1.5), alpha=0.4)
        rhs = np.random.default_rng(9).standard_normal((system.n_omega, system.n_y))
        exact = TensorPreconditioner.apply
        monkeypatch.setattr(TensorPreconditioner, "apply", lambda self, R: 3.0 * exact(self, R))
        with pytest.raises(SolverError) as err:
            solve(system, rhs, rel_tol=1e-9)
        assert err.value.residual == pytest.approx(4.0, rel=1e-9)
        assert err.value.iterations == 2
        assert "no better than X = 0" in str(err.value)
        assert "inaccurate" in str(err.value)
        assert "floor" not in str(err.value)

    def test_steep_grading_is_a_pivot_error_naming_the_shift(self):
        # mu=0.05 grades the first element to ~1e-19 of Y: the assembled
        # pair of the lowest shift is not numerically positive definite
        level = discretize(benchmark_problem(0.5, 1), "hfem", 8, mu=0.05)
        first = _distinct(level.grid)[0]
        with pytest.raises(SolverError) as err:
            solve(level.system, level.rhs, rel_tol=1e-9)
        message = str(err.value)
        assert "pivot" in message
        assert f"shift omega={first:.6g}" in message
        assert "assembled" in message
        assert "floor" not in message

    def test_hp_2d_matches_dense_solve(self):
        system = make_system(d=2, n=6, mesh=hp_mesh(4, 0.125, 1.5, 0.7), alpha=-0.6)
        rng = np.random.default_rng(31)
        rhs = rng.standard_normal((system.n_omega, system.n_y))
        a = np.linalg.solve(dense_operator(system), rhs.reshape(-1, order="F"))
        b = solve(system, rhs, rel_tol=1e-12).coefficients.reshape(-1, order="F")
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-9

    def test_tensor_iterations_stay_small_on_hard_mesh(self):
        # severe grading: the exact inverse needs at most two refinement
        # steps where diagonal scaling would need thousands of iterations
        mesh = graded_mesh(64, 0.16, 2.5)
        system = make_system(d=1, n=64, mesh=mesh, alpha=0.6)
        rng = np.random.default_rng(13)
        rhs = rng.standard_normal((system.n_omega, system.n_y))
        sol = solve(system, rhs, rel_tol=1e-10)
        assert sol.iterations <= 3

    def test_non_finite_rhs_raises(self):
        system = make_system()
        rhs = np.ones((system.n_omega, system.n_y))
        rhs[0, 0] = np.nan
        with pytest.raises(SolverError):
            solve(system, rhs)

    def test_nan_load_raises(self):
        system = make_system(d=2, n=6, mesh=hp_mesh(3, 0.125, 1.0, 0.7))
        load = np.ones(system.n_omega)
        load[4] = np.nan
        with pytest.raises(SolverError):
            solve(system, cylinder_rhs(system, load))

    def test_invalid_tolerance(self):
        system = make_system()
        for tol in (0.0, -1e-9):
            with pytest.raises(ValueError):
                solve(system, np.ones((system.n_omega, system.n_y)), rel_tol=tol)

    @pytest.mark.parametrize("mesh", [graded_mesh(6, 0.5, 1.5), hp_mesh(4, 0.125, 2.0, 0.7)])
    def test_indefinite_y_pair_raises(self, mesh):
        # negated stiffness: omega*B_mass - B_stiff is indefinite for the
        # smallest shifts, so the factorization meets a non-positive pivot
        system = make_system(d=1, n=8, mesh=mesh, alpha=0.3)
        flipped = replace(system.y, groups=tuple((ms, mass, -stiff)
                                                 for ms, mass, stiff in system.y.groups))
        system = KroneckerSystem(system.omega, flipped)
        first = _distinct(system.omega.grid)[0]
        with pytest.raises(SolverError) as err:
            solve(system, np.ones((system.n_omega, system.n_y)))
        assert "pivot" in str(err.value)
        assert f"shift omega={first:.6g}" in str(err.value)


def _ymesh(family, M, grading, Y):
    if family == "graded":
        return graded_mesh(M, grading, Y)
    return hp_mesh(M, grading / 4.0, Y, 0.7)


@st.composite
def oracle_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 12 if d == 1 else 6))
    family = draw(st.sampled_from(["graded", "geometric"]))
    M = draw(st.integers(1, 4))
    mesh = _ymesh(family, M, draw(st.floats(0.2, 1.0)), draw(st.floats(0.5, 3.0)))
    degrees = draw(st.one_of(
        st.none(), st.lists(st.integers(1, 4), min_size=M, max_size=M)
    ))
    alpha = draw(st.floats(-0.99, 0.99))
    return d, n, mesh, degrees, alpha, draw(st.integers(0, 2**32 - 1))


class TestExactSolveOracle:
    @settings(max_examples=60, deadline=None)
    @given(oracle_cases())
    def test_matches_dense_kronecker_solve(self, case):
        d, n, mesh, degrees, alpha, seed = case
        omega = assemble_omega_matrices(OmegaGrid(d, n))
        if degrees is not None:
            mesh = replace(mesh, degrees=tuple(degrees))
        system = KroneckerSystem(omega, assemble_weighted_matrices(mesh, alpha=alpha))
        rhs = np.random.default_rng(seed).standard_normal((system.n_omega, system.n_y))
        # symmetric diagonal scaling keeps the dense oracle accurate on
        # strongly graded meshes
        dense = dense_operator(system)
        scale = 1.0 / np.sqrt(np.diag(dense))
        want = scale * np.linalg.solve(
            scale[:, None] * dense * scale[None, :], scale * rhs.reshape(-1, order="F")
        )
        got = solve(system, rhs, rel_tol=1e-10).coefficients.reshape(-1, order="F")
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


class TestTrace:
    def test_zero_solution(self):
        system = make_system()
        sol = solve(system, np.zeros((system.n_omega, system.n_y)))
        assert np.all(sol.trace == 0.0)

    def test_trace_reads_bottom_slice(self):
        system = make_system()
        coeffs = np.zeros((system.n_omega, system.n_y))
        coeffs[:, 0] = np.arange(system.n_omega, dtype=float)
        sol = SolutionTensor(coefficients=coeffs, iterations=0, residual=0.0)
        assert np.allclose(sol.trace, np.arange(system.n_omega))

    def test_benchmark_trace_peak_near_one(self):
        level = discretize(benchmark_problem(0.5, 2), "hfem", 16)
        sol = solve(level.system, level.rhs, rel_tol=1e-10)
        # peak of sin(pi x)sin(pi y), sampled at the center node (8, 8)
        assert abs(sol.trace.reshape(15, 15)[7, 7] - 1.0) < 0.05

    def test_cylinder_rhs_shape(self):
        system = make_system()
        load = np.ones(system.n_omega)
        rhs = cylinder_rhs(system, load)
        assert rhs.shape == (system.n_omega, system.n_y)
        assert rhs.flags.f_contiguous
        assert np.all(rhs[:, 1:] == 0.0)
        with pytest.raises(ValueError):
            cylinder_rhs(system, np.ones(system.n_omega + 1))


def _sampled_shifts(level):
    """The lowest, a middle and the top distinct shift of a level."""
    distinct = _distinct(level.grid)
    return distinct[[0, distinct.size // 2, -1]]


def _log_uniform_shifts(level, count=12, seed=2017):
    """``count`` distinct shifts of a level drawn log-uniformly, seeded,
    between its lowest and its top distinct shift."""
    distinct = _distinct(level.grid)
    rng = np.random.default_rng(seed)
    return np.unique(np.exp(rng.uniform(np.log(distinct[0]), np.log(distinct[-1]), count)))


# degree-1 elements above elements with bumps, which no mesh rule gives
_INTERLEAVED = replace(hp_mesh(6, 0.125, 2.0, 0.7), degrees=(1, 3, 1, 4, 1, 2))


class TestYResolvent:
    @pytest.mark.parametrize("scheme,s,n", [("hfem", 0.2, 16), ("hfem", 0.2, 64),
                                            ("hpfem", 0.2, 16), ("hpfem", 0.5, 16)])
    def test_fold_matches_exact_elimination(self, exact_resolvent, scheme, s, n):
        # every sampled shift of each level against an exact rational
        # elimination of the assembled pair
        level = discretize(benchmark_problem(s, 1), scheme, n)
        shifts = _sampled_shifts(level)
        got = y_resolvent(level.weighted, shifts)
        for w, r in zip(shifts, got):
            want = exact_resolvent(level.weighted, w)
            assert abs(Fraction(float(r)) - want) <= 1e-14 * want

    @pytest.mark.parametrize("scheme,n", [("hfem", 64), ("hpfem", 16)])
    def test_fold_matches_exact_elimination_across_the_shift_range(self, exact_resolvent,
                                                                    scheme, n):
        # twelve seeded log-uniform shifts between the lowest and the top one
        level = discretize(benchmark_problem(0.2, 1), scheme, n)
        shifts = _log_uniform_shifts(level)
        assert shifts.size == 12
        got = y_resolvent(level.weighted, shifts)
        for w, r in zip(shifts, got):
            want = exact_resolvent(level.weighted, w)
            assert abs(Fraction(float(r)) - want) <= 1e-14 * want

    def test_fold_matches_exact_elimination_with_more_elements(self, exact_resolvent):
        # hp s=0.2 n=16 with twice the elements (436 y-dofs); exact
        # rationals take too long here, so the reference is a 60-digit
        # elimination
        level = discretize(benchmark_problem(0.2, 1), "hpfem", 16, m_mult=2.0)
        shifts = _sampled_shifts(level)
        got = y_resolvent(level.weighted, shifts)
        for w, r in zip(shifts, got):
            want = exact_resolvent(level.weighted, w, digits=60)
            assert abs(Decimal(float(r)) - want) <= Decimal(1e-14) * want

    def test_small_geometric_case_matches_exact_elimination(self, exact_resolvent):
        # a case the random search of TestExactSolveOracle draws now and then
        # (d=1, n=2, alpha=-0.9375, degrees 1, 3, 6, 8). The full solve's
        # residual here is rounding noise near 1e-10: 3.4e-11 after one
        # application, 3.0e-10 after the next; 3.0e-10 and 2.0e-10 with other
        # forms of the bump eigen-reduction. The fold is exact to 1e-14
        system = make_system(d=1, n=2, mesh=hp_mesh(4, 0.0546875, 0.5, 0.7), alpha=-0.9375)
        shifts = np.array([0.5, 30.0, 4e3, *_distinct(system.omega.grid)])
        for w, r in zip(shifts, y_resolvent(system.y, shifts)):
            want = exact_resolvent(system.y, w)
            assert abs(Fraction(float(r)) - want) <= 1e-14 * want

    def test_one_element_chain(self):
        # r_h = 1/E00 of the single element, its top vertex constrained
        for mesh in (graded_mesh(1, 1.0, 1.5), replace(hp_mesh(1, 0.2, 1.5, 0.7), degrees=(4,))):
            weighted = assemble_weighted_matrices(mesh, alpha=0.3)
            shifts = np.array([0.5, 30.0, 4e3])
            dense = [np.linalg.inv(w * weighted.B_mass.toarray() + weighted.B_stiff.toarray())[0, 0]
                     for w in shifts]
            assert y_resolvent(weighted, shifts) == pytest.approx(dense, rel=1e-13)

    def test_indefinite_bump_block_is_a_pivot_error_naming_the_lowest_element(self):
        # one element a group: the bump mass of elements 3 and 6 (the top
        # one) negated, so neither bump block has a Cholesky factor
        weighted = assemble_weighted_matrices(hp_mesh(6, 0.125, 2.0, 0.7), alpha=-0.3)
        groups = []
        for ms, mass, stiff in weighted.groups:
            mass = mass.copy()
            if ms[0] in (3, 6):
                mass[:, 2:, 2:] *= -1.0
            groups.append((ms, mass, stiff))
        assert [ms.tolist() for ms, _, _ in groups] == [[1], [2], [3], [4], [5], [6]]
        weighted = replace(weighted, groups=tuple(groups))
        with pytest.raises(SolverError, match=r"bump block of element 3\)"):
            y_resolvent(weighted, np.array([0.5, 30.0, 4e3]))

    @pytest.mark.parametrize("n", [1, 2, 511, 512, 43690])
    def test_fold_rows_are_disjoint_and_1_kib_apart_modulo_4_kib(self, n):
        rows = solver._rows(n, 4)
        starts = [row.ctypes.data for row in rows]
        assert [row.size for row in rows] == [n] * 4
        assert [(a - starts[0]) % 4096 for a in starts] == [0, 1024, 2048, 3072]
        assert all(b - a >= 8 * n for a, b in zip(starts, starts[1:]))

    @pytest.mark.parametrize("scheme", ["hfem", "hpfem"])
    def test_fold_caches_no_dof_map(self, scheme):
        # the fold takes M from the mesh: a dof map built on the way would
        # stay cached on the matrices as long as they live
        problem = benchmark_problem(0.2, 1)
        level = discretize(problem, scheme, 64)
        weighted = assemble_weighted_matrices(level.mesh, alpha=problem.alpha)
        assert "dofmap" not in vars(weighted)
        y_resolvent(weighted, _distinct(level.grid))
        assert "dofmap" not in vars(weighted)

    @pytest.mark.parametrize("scheme", ["hfem", "hpfem"])
    def test_run_level_caches_no_dof_map(self, monkeypatch, scheme):
        # the level reads N_Y twice: through a dof map that would be a
        # cumulative sum over M elements, kept as long as the matrices live
        built = []

        def kept(*args, **kwargs):
            built.append(assemble_weighted_matrices(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(error_analysis, "assemble_weighted_matrices", kept)
        row = run_level(benchmark_problem(0.2, 1), scheme, 64)
        (weighted,) = built
        assert row.N_Y == weighted.n_dofs == sum(weighted.mesh.degrees)
        assert "dofmap" not in vars(weighted)

    def test_shift_blocks_do_not_change_the_fold(self, monkeypatch):
        level = discretize(benchmark_problem(0.2, 1), "hpfem", 42)
        shifts = _distinct(level.grid)
        want = y_resolvent(level.weighted, shifts)
        bumps = max(level.mesh.degrees) - 1
        monkeypatch.setattr(solver, "_BLOCK_BYTES", 5 * 8 * (bumps + solver._FOLD_ROWS))
        assert solver._shift_blocks(shifts.size, bumps)[0].stop == 5
        assert np.array_equal(y_resolvent(level.weighted, shifts), want)


    @pytest.mark.parametrize("step", [2, 3, 5, 16])
    @pytest.mark.parametrize("d,n", [(1, 42), (2, 9)])
    @pytest.mark.parametrize("mesh", [graded_mesh(6, 0.5, 1.5), hp_mesh(6, 0.125, 2.0, 0.7),
                                      _INTERLEAVED], ids=["graded", "hp", "interleaved"])
    def test_shift_blocks_match_one_block_bitwise(self, monkeypatch, mesh, d, n, step):
        # 41 or 36 distinct shifts: with 2, 3 or 5 per block the last block
        # is narrower than the others; up to 8 bumps an element on the
        # second mesh, 3 on the third and none on the first
        system = make_system(d=d, n=n, mesh=mesh, alpha=-0.3)
        shifts = _distinct(system.omega.grid)
        blocked, whole = _blocked_and_one_block(monkeypatch, system, shifts, step)
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("step", [2, 3, 5, 16])
    @pytest.mark.parametrize("d,n", [(1, 42), (2, 9)])
    def test_shift_blocks_move_many_bumps_a_few_ulp(self, monkeypatch, exact_resolvent, d, n,
                                                     step):
        # 21 bumps on the top element: BLAS rounds the pole sums of a block
        # of 2 or 3 columns through other kernels than those of a wide one.
        # Measured at most 3 ulp here, and 7 over blocks of 1-19, 33, 64
        # and 100 columns on four meshes, both alphas and four grids
        system = make_system(d=d, n=n, mesh=hp_mesh(6, 0.125, 2.0, 2.0), alpha=-0.3)
        shifts = _distinct(system.omega.grid)
        blocked, whole = _blocked_and_one_block(monkeypatch, system, shifts, step)
        assert np.all(np.abs(blocked - whole) <= 8 * np.spacing(whole))
        for w, *folds in zip(shifts, blocked, whole):
            want = exact_resolvent(system.y, w, digits=60)
            for r in folds:
                assert abs(Decimal(float(r)) - want) <= Decimal(1e-14) * want

    @pytest.mark.parametrize("alpha", [-0.3, 0.4])
    @pytest.mark.parametrize("mesh", [hp_mesh(6, 0.125, 2.0, 2.0), _INTERLEAVED],
                             ids=["hp-many-bumps", "interleaved"])
    def test_expanded_pole_sums_match_exact_elimination(self, exact_resolvent, mesh, alpha):
        # the pole sums add w**2*S0 + w*S1 + S2 of sums over up to 21 bumps,
        # where terms of both signs can cancel: the d=1 n=42 shifts and
        # twelve seeded log-uniform ones up to 1e7. Measured at most 1.6e-15
        system = make_system(d=1, n=42, mesh=mesh, alpha=alpha)
        distinct = _distinct(system.omega.grid)
        rng = np.random.default_rng(2017)
        shifts = np.concatenate([distinct, np.exp(rng.uniform(np.log(distinct[0]),
                                                              np.log(1e7), 12))])
        for w, r in zip(shifts, y_resolvent(system.y, shifts)):
            want = exact_resolvent(system.y, w, digits=60)
            assert abs(Decimal(float(r)) - want) <= Decimal(1e-14) * want


def _blocked_and_one_block(monkeypatch, system, shifts, step):
    """The fold of ``shifts`` in blocks of ``step`` columns, the last block
    taking what is left, and in one block."""
    bumps = max(system.y.mesh.degrees) - 1
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 1 << 40)
    assert len(solver._shift_blocks(shifts.size, bumps)) == 1
    whole = y_resolvent(system.y, shifts)
    monkeypatch.setattr(solver, "_BLOCK_BYTES", step * 8 * (bumps + solver._FOLD_ROWS))
    blocks = solver._shift_blocks(shifts.size, bumps)
    assert blocks[0].stop == step
    assert blocks[-1].stop == shifts.size
    return y_resolvent(system.y, shifts), whole


class TestFoldAgainstPerElementReference:
    """The fold, one in-place loop over per-element scalars read from the
    group arrays, against one two-port per element
    (``y_reference.element_loop_fold``): bitwise the same resolvent."""

    @pytest.mark.parametrize("alpha", [-0.3, 0.4])
    @pytest.mark.parametrize("d,n", [(1, 42), (2, 9)])
    @pytest.mark.parametrize("mesh", [graded_mesh(6, 0.5, 1.5), hp_mesh(6, 0.125, 2.0, 0.7),
                                      hp_mesh(6, 0.125, 2.0, 2.0), hp_mesh(5, 1e-4, 1.5, 0.7),
                                      graded_mesh(1, 1.0, 1.5), _INTERLEAVED],
                             ids=["graded", "hp", "hp-many-bumps", "geometric-split", "M1",
                                  "interleaved"])
    @pytest.mark.parametrize("step", [None, 3])
    def test_fold_is_bitwise_the_element_loop(self, monkeypatch, mesh, d, n, alpha, step):
        # the geometric-split mesh has split elements above the Gauss-Jacobi
        # first one; step 3 cuts the 41 (d=1) or 36 (d=2) shifts into blocks
        system = make_system(d=d, n=n, mesh=mesh, alpha=alpha)
        shifts = _distinct(system.omega.grid)
        if step is not None:
            bumps = max(mesh.degrees) - 1
            monkeypatch.setattr(solver, "_BLOCK_BYTES", step * 8 * (bumps + solver._FOLD_ROWS))
            assert len(solver._shift_blocks(shifts.size, bumps)) >= 11
        want = element_loop_fold(system.y, shifts)
        assert y_resolvent(system.y, shifts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme,s,d,n", [("hfem", 0.8, 2, 64), ("hpfem", 0.8, 2, 64),
                                              ("hpfem", 0.2, 1, 64), ("hfem", 0.2, 1, 256)])
    def test_workload_levels_are_bitwise_the_element_loop(self, scheme, s, d, n):
        level = discretize(benchmark_problem(s, d), scheme, n)
        shifts = _distinct(level.grid)
        want = element_loop_fold(level.weighted, shifts)
        assert y_resolvent(level.weighted, shifts).tobytes() == want.tobytes()


# the benchmark workloads' levels with n <= 64
_WORKLOAD_LEVELS = [(scheme, s, d, n) for scheme, s, d in [("hfem", 0.8, 2), ("hpfem", 0.8, 2),
                                                            ("hpfem", 0.2, 1), ("hfem", 0.2, 1)]
                    for n in (8, 16, 32, 64)]


class TestSolveTrace:
    @pytest.mark.parametrize("scheme,s,d,n", _WORKLOAD_LEVELS)
    def test_matches_the_full_solve(self, scheme, s, d, n):
        problem = benchmark_problem(s, d)
        level = discretize(problem, scheme, n)
        load = np.random.default_rng(n).standard_normal(level.grid.n_dofs)
        full = solve(level.system, cylinder_rhs(level.system, load), rel_tol=1e-9)
        coeffs = dst(load, (n - 1,) * d)
        got = dst(solve_trace(level.grid, level.weighted, coeffs, s=s, d_s=problem.d_s,
                              margin=1e-9), (n - 1,) * d)
        # the full solve vouches for its trace only to about its residual,
        # which reaches 1e-10 on the hp s=0.2 levels; the fold is exact to
        # rounding (TestYResolvent). Measured: at most 0.35 times the
        # residual, and 1.9e-12 where that is smaller (hp s=0.8 n=64)
        rel = np.linalg.norm(got - full.trace) / np.linalg.norm(full.trace)
        assert rel <= max(1e-11, full.residual)

    def test_leaves_the_load_unchanged(self):
        problem = benchmark_problem(0.5, 2)
        level = discretize(problem, "hpfem", 9)
        load = level.load.copy()
        solve_trace(level.grid, level.weighted, level.load, s=0.5, d_s=problem.d_s, margin=1e-9)
        assert level.load.tobytes() == load.tobytes()

    def test_margin_is_the_slack_of_the_certificate(self):
        # hfem s=0.5 n=64 reaches d_s*omega**s*r_h = 0.99977 at its lowest
        # shift; element matrices 0.999 times too small push that to 1.00077
        problem = benchmark_problem(0.5, 1)
        level = discretize(problem, "hfem", 64)
        scaled = replace(level.weighted, groups=tuple(
            (ms, 0.999 * mass, 0.999 * stiff) for ms, mass, stiff in level.weighted.groups))
        args = (level.grid, scaled, level.load)
        solve_trace(*args, s=0.5, d_s=problem.d_s, margin=1e-3)
        with pytest.raises(SolverError, match="first at shift omega=9.8"):
            solve_trace(*args, s=0.5, d_s=problem.d_s, margin=1e-4)

    @pytest.mark.parametrize("factor", [0.5, -1.0], ids=["above", "below"])
    def test_certificate_names_the_first_failing_shift(self, factor):
        # scaling both element matrices by c scales r_h by 1/c: 0.5 doubles
        # d_s*omega**s*r_h, and -1 makes it negative
        problem = benchmark_problem(0.5, 1)
        level = discretize(problem, "hfem", 8)
        scaled = replace(level.weighted, groups=tuple(
            (ms, factor * mass, factor * stiff) for ms, mass, stiff in level.weighted.groups))
        first = _distinct(level.grid)[0]
        with pytest.raises(SolverError) as err:
            solve_trace(level.grid, scaled, level.load, s=0.5, d_s=problem.d_s, margin=1e-9)
        message = str(err.value)
        assert message.startswith("y-resolvent certificate failed at 7 of 7 shifts")
        assert f"shift omega={first:.6g}" in message


def _tile_side(monkeypatch, y, side):
    """Shrink ``_BLOCK_BYTES`` so that the d=2 tiles of ``y`` have ``side``
    indices a side."""
    bumps = max(y.mesh.degrees) - 1
    monkeypatch.setattr(solver, "_BLOCK_BYTES", side * side * 8 * (bumps + solver._FOLD_ROWS))
    assert math.isqrt(solver._block_columns(bumps)) == side


def _tiled_resolvent(y, n):
    """``r_h`` at every d=2 mode ``(k, l)`` of the grid with ``n`` cells a
    side, as :func:`solver._scale_tiles` applies it: unit coefficients and
    unit mass eigenvalues, so each coefficient becomes its mode's ``r_h``."""
    mass, stiff = solver._p1_eigenvalues(n)
    R = np.ones((n - 1, n - 1))
    failed, _ = solver._scale_tiles(R, y, np.ones(n - 1), stiff / mass, s=0.5, d_s=1.0,
                                    margin=math.inf)
    assert failed == 0
    return R


class TestBaseTriangle:
    """The d=2 base modes ``(k, l)``, ``k <= l``, in the square tiles of
    :func:`solver._scale_tiles`, against the distinct shifts that ``np.unique``
    sorts out of the shift of every mode (``y_reference``)."""

    @pytest.mark.parametrize("n", [*range(2, 66), 128, 255, 256, 1024, 2048])
    def test_every_cell_lies_in_one_tile_and_the_tiles_hold_every_distinct_shift(self,
                                                                                 monkeypatch, n):
        # a fold that returns r_h = 1/(1/w) records each tile's shifts: every
        # coefficient must be scaled once, by the r_h of its own shift. Tiles
        # of the h-FEM side (209), and of 7 up to n = 256 for ragged ones
        folded = []

        def fold(chain, w, q, g, t):
            folded.append(w.copy())
            np.divide(1.0, w, out=q)

        monkeypatch.setattr(solver, "_fold", fold)
        y = assemble_weighted_matrices(graded_mesh(2, 0.5, 1.5), alpha=0.0)
        mass, stiff = solver._p1_eigenvalues(n)
        want = 1.0 / (1.0 / np.add.outer(stiff / mass, stiff / mass))
        sides = {min(n - 1, math.isqrt(solver._block_columns(0)))}
        if n <= 256:
            sides.add(7)
        for side in sides:
            _tile_side(monkeypatch, y, side)
            folded.clear()
            assert _tiled_resolvent(y, n).tobytes() == want.tobytes()
            assert max(w.size for w in folded) <= side * side
            shifts = np.concatenate(folded)
            assert shifts.size == n * (n - 1) // 2
            assert np.unique(shifts).tobytes() == _distinct(OmegaGrid(2, n)).tobytes()

    def test_d1_shifts_are_distinct_and_ascending(self):
        for n in range(2, 4097):
            mass, stiff = solver._p1_eigenvalues(n)
            assert np.all(np.diff(stiff / mass) > 0.0), n

    @pytest.mark.parametrize("load_kind", ["modal", "random"])
    @pytest.mark.parametrize("scheme", ["hfem", "hpfem"])
    @pytest.mark.parametrize("n", [2, 3, 8, 16, 64, 128])
    def test_solve_trace_is_bitwise_the_unique_form(self, n, scheme, load_kind):
        # n = 2 and 3 have no level of their own (h_omega > 1/2): they take
        # the y-matrices of n = 4
        domain = BoxDomain(2)
        problem = FractionalProblem(s=0.8, domain=domain, f=modal_function(
            domain, [((1, 1), 1.0), ((2, 3), -0.5), ((3, 2), 0.25), ((5, 4), 0.7)]))
        level = discretize(problem, scheme, max(n, 4))
        grid = OmegaGrid(2, n)
        if load_kind == "modal":
            load = assemble_load(grid, problem)
        else:
            load = dst(np.random.default_rng(n).standard_normal(grid.n_dofs), (n - 1,) * 2)
        args = (grid, level.weighted, load)
        kwargs = dict(s=problem.s, d_s=problem.d_s, margin=1e-9)
        want = unique_solve_trace(*args, **kwargs)
        assert solve_trace(*args, **kwargs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", [3, 4, 6])
    @pytest.mark.parametrize("mesh", [graded_mesh(6, 0.5, 1.5), hp_mesh(6, 0.125, 2.0, 0.7),
                                      _INTERLEAVED], ids=["graded", "hp", "interleaved"])
    def test_tile_size_changes_no_bit(self, monkeypatch, mesh, side):
        # 11 indices a side: tiles of 3, 4 or 6 leave a ragged last row and
        # column, and every tile is a block of 3 shift columns or more. Each
        # mode gets bitwise the r_h of one block of all 66 shifts
        y = assemble_weighted_matrices(mesh, alpha=-0.3)
        grid = OmegaGrid(2, 12)
        mass, stiff = solver._p1_eigenvalues(12)
        shifts = np.add.outer(stiff / mass, stiff / mass)
        load = np.random.default_rng(3).standard_normal(grid.n_dofs)
        kwargs = dict(s=0.5, d_s=1.0, margin=math.inf)
        whole = y_resolvent(y, shifts[np.triu_indices(11)])
        want = solve_trace(grid, y, load, **kwargs)
        _tile_side(monkeypatch, y, side)
        R = _tiled_resolvent(y, 12)
        assert R.tobytes() == R.T.tobytes()
        assert R[np.triu_indices(11)].tobytes() == whole.tobytes()
        assert solve_trace(grid, y, load, **kwargs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", [1, 2, 3, 4])
    def test_tile_size_moves_many_bumps_a_few_ulp(self, monkeypatch, exact_resolvent, side):
        # 21 bumps on the top element: the rule of
        # TestYResolvent::test_shift_blocks_move_many_bumps_a_few_ulp, with
        # one-cell corner tiles at side 1 and 2
        y = assemble_weighted_matrices(hp_mesh(6, 0.125, 2.0, 2.0), alpha=-0.3)
        mass, stiff = solver._p1_eigenvalues(10)
        sigma = stiff / mass
        cells = np.triu_indices(9)
        shifts = np.add.outer(sigma, sigma)[cells]
        whole = y_resolvent(y, shifts)
        _tile_side(monkeypatch, y, side)
        R = _tiled_resolvent(y, 10)
        assert R.tobytes() == R.T.tobytes()
        tiled = R[cells]
        assert np.all(np.abs(tiled - whole) <= 8 * np.spacing(whole))
        for w, r in zip(shifts[::4], tiled[::4]):
            want = exact_resolvent(y, w, digits=60)
            assert abs(Decimal(float(r)) - want) <= Decimal(1e-14) * want

    @pytest.mark.parametrize("side", [2, 3])
    def test_certificate_is_raised_after_the_last_tile(self, monkeypatch, side):
        # the level of the test below in tiles of 2 or 3: the first tile
        # with failing shifts, in the first row of tiles, fails at 2038.0
        # first, and the smallest failing shift, 1820.37, lies in a later
        # tile. The tiles' shifts are recorded as they are folded
        problem = benchmark_problem(0.5, 2)
        level = discretize(problem, "hfem", 16)
        scaled = replace(level.weighted, groups=tuple(
            (ms, 0.9 * mass, 0.9 * stiff) if ms[0] == 1 else (ms, mass, stiff)
            for ms, mass, stiff in level.weighted.groups))
        kwargs = dict(s=0.5, d_s=problem.d_s, margin=1e-9)
        folded, fold = [], solver._fold

        def recorded(chain, w, *rows):
            folded.append(w.copy())
            fold(chain, w, *rows)

        monkeypatch.setattr(solver, "_fold", recorded)
        _tile_side(monkeypatch, scaled, side)
        with pytest.raises(SolverError) as err:
            solve_trace(level.grid, scaled, level.load, **kwargs)
        assert str(err.value).startswith("y-resolvent certificate failed at 67 of 120 shifts, "
                                         "first at shift omega=1820.37:")
        monkeypatch.undo()
        firsts = []
        for shifts in folded:
            r = y_resolvent(scaled, shifts)
            count, (least, _) = solver._failures(shifts, r, np.empty(shifts.size), **kwargs)
            if count:
                firsts.append(least)
        assert len(firsts) > 1
        assert f"{firsts[0]:.6g}" == "2038" and f"{min(firsts):.6g}" == "1820.37"

    def test_certificate_names_the_smallest_of_some_failing_shifts(self):
        # the first element's matrices 0.9 times too small raise r_h at the
        # high shifts, which see mostly that element: 67 of the 120 shifts
        # fail, and the first failing cell in row order (2038.0) is not the
        # smallest failing shift (1820.37)
        problem = benchmark_problem(0.5, 2)
        level = discretize(problem, "hfem", 16)
        scaled = replace(level.weighted, groups=tuple(
            (ms, 0.9 * mass, 0.9 * stiff) if ms[0] == 1 else (ms, mass, stiff)
            for ms, mass, stiff in level.weighted.groups))
        kwargs = dict(s=0.5, d_s=problem.d_s, margin=1e-9)
        messages = []
        for trace in (solve_trace, unique_solve_trace):
            with pytest.raises(SolverError) as err:
                trace(level.grid, scaled, level.load, **kwargs)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("y-resolvent certificate failed at 67 of 120 shifts, "
                                      "first at shift omega=1820.37:")


class TestPreconditionerApply:
    @pytest.mark.parametrize("mesh", [graded_mesh(6, 0.5, 1.5), hp_mesh(4, 0.125, 2.0, 0.7)])
    def test_one_dense_pair_per_distinct_shift(self, mesh):
        # the pairs are w*B_mass + B_stiff of the dense assembled matrices,
        # one per distinct shift, and expanding them to one pair a mode
        # changes no bit of the result
        system = make_system(d=2, n=9, mesh=mesh, alpha=0.3)
        inverse = TensorPreconditioner.build(system)
        assert inverse.shifts.size < inverse.mass_eig.size
        Bm, Bs = system.y.B_mass.toarray(), system.y.B_stiff.toarray()
        assert inverse.pairs.shape == (inverse.shifts.size, system.n_y, system.n_y)
        for w, K in zip(inverse.shifts, inverse.pairs):
            assert K.tobytes() == (w * Bm + Bs).tobytes()
        expanded = replace(inverse, shifts=inverse.shifts[inverse.shift_of],
                           shift_of=np.arange(system.n_omega),
                           pairs=inverse.pairs[inverse.shift_of])
        R = np.random.default_rng(6).standard_normal((system.n_omega, system.n_y))
        assert inverse.apply(R).tobytes() == expanded.apply(R).tobytes()

    def test_every_d1_shift_has_its_own_pair(self):
        system = make_system(d=1, n=12)
        inverse = TensorPreconditioner.build(system)
        assert np.array_equal(inverse.shift_of, np.arange(system.n_omega))
        assert inverse.pairs.shape == (system.n_omega, system.n_y, system.n_y)

    @pytest.mark.parametrize("d,n", [(1, 24), (2, 9)])
    @pytest.mark.parametrize("mesh", [graded_mesh(6, 0.5, 1.5), hp_mesh(4, 0.125, 2.0, 0.7)],
                             ids=["graded", "hp"])
    def test_apply_matches_dense_solve(self, mesh, d, n):
        # measured at most 7e-15 (condition numbers 94 to 3.9e3)
        system = make_system(d=d, n=n, mesh=mesh, alpha=0.3)
        R = np.random.default_rng(11).standard_normal((system.n_omega, system.n_y))
        want = np.linalg.solve(dense_operator(system), R.reshape(-1, order="F"))
        got = TensorPreconditioner.build(system).apply(R)
        assert got.flags.f_contiguous
        got = got.reshape(-1, order="F")
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-13

    @pytest.mark.parametrize("mesh", [graded_mesh(6, 0.5, 1.5), hp_mesh(4, 0.125, 2.0, 0.7)])
    @pytest.mark.parametrize("columns", [[0], [0, 3], [2, 5]])
    def test_sparse_columns_match_dense_solve(self, mesh, columns):
        # right-hand sides with a few nonzero y-columns, the cylinder one
        # among them; measured at most 2.5e-15
        system = make_system(d=2, n=9, mesh=mesh, alpha=0.3)
        R = np.zeros((system.n_omega, system.n_y))
        R[:, columns] = np.random.default_rng(11).standard_normal((system.n_omega, len(columns)))
        want = np.linalg.solve(dense_operator(system), R.reshape(-1, order="F"))
        got = TensorPreconditioner.build(system).apply(R).reshape(-1, order="F")
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-13

    @pytest.mark.parametrize("layout", ["F", "C"])
    def test_apply_leaves_input_unchanged(self, layout):
        system = make_system(d=2, n=6, mesh=hp_mesh(4, 0.125, 2.0, 0.7), alpha=-0.4)
        inverse = TensorPreconditioner.build(system)
        rng = np.random.default_rng(12)
        dense = rng.standard_normal((system.n_omega, system.n_y))
        one_column = cylinder_rhs(system, rng.standard_normal(system.n_omega))
        for R in (dense, one_column):
            R = np.asarray(R, order=layout)
            kept = R.copy()
            inverse.apply(R)
            assert R.tobytes() == kept.tobytes()


def _traced_fold(weighted, shifts):
    """The fold of ``shifts`` under tracemalloc: the result, the traced
    bytes it keeps and the peak beyond them. A fold of other matrices, of
    degree 1 and as many elements, runs first: the interpreter's free lists
    of floats and tuples, which the first fold in a process fills (about
    6.5 KB), are not the fold's, while anything kept for ``weighted`` is
    made under the trace."""
    other = graded_mesh(len(weighted.mesh.degrees), 0.5, 1.5)
    y_resolvent(assemble_weighted_matrices(other, alpha=0.0), shifts[:2])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        r = y_resolvent(weighted, shifts)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return r, kept - before, peak - kept


class TestWorkingSet:
    """Peak of the traced allocations of the run path: the fold of
    :func:`y_resolvent` and a whole ``run_level``. The full solve is a
    reference for desk sizes and has no working-set bound."""

    @pytest.mark.parametrize("scheme,s", [("hfem", 0.8), ("hpfem", 0.2)])
    def test_fold_peak_is_its_result_and_one_block_budget(self, scheme, s):
        # 300,000 shifts in 7 blocks (h-FEM) or 22 (hp-FEM, degree 26);
        # measured 0.42 and 0.98 of the budget beyond the result (1.01 for
        # hp-FEM with one of the _FOLD_ROWS fewer)
        level = discretize(benchmark_problem(s, 1), scheme, 64)
        shifts = np.linspace(10.0, 1e5, 300_000)
        bumps = max(level.mesh.degrees) - 1
        assert len(solver._shift_blocks(shifts.size, bumps)) >= 7
        r, kept, peak = _traced_fold(level.weighted, shifts)
        assert kept <= r.nbytes + 4096
        assert peak <= solver._BLOCK_BYTES

    @pytest.mark.parametrize("scheme,bound", [("hfem", 0.15), ("hpfem", 0.9)])
    def test_run_level_peak_in_full_size_arrays(self, scheme, bound):
        # the run path holds arrays of N_omega doubles and the fold's shift
        # blocks, never an N_total array; measured 0.13 (h-FEM) and 0.85
        # (hp-FEM: 21 y-dofs, so the block budget weighs more)
        domain = BoxDomain(2)
        data = modal_function(domain, [((1, 1), 1.0), ((2, 3), -0.5), ((5, 5), 0.7)])
        problem = FractionalProblem(s=0.8, domain=domain, f=data)
        level = discretize(problem, scheme, 128)
        full = 8 * level.grid.n_dofs * level.weighted.n_dofs
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            row = run_level(problem, scheme, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.N_total * 8 == full
        assert (peak - before) / full <= bound

    def test_d2_run_level_peak_is_the_trace_bytes(self):
        # hp-FEM d=2 n=1024, N_omega = 1.05 M doubles, 8.4 MB an array: the
        # level holds the load's and the trace's coefficients and one tile,
        # measured 2.49 arrays, 0.97 of the block budget beyond the two (the
        # bound the memory check of discretize assumes). The level-wide
        # k <= l triangle of shifts and r_h, half an array each, peaked at
        # 3.13 arrays
        domain = BoxDomain(2)
        problem = FractionalProblem(s=0.8, domain=domain, f=modal_function(
            domain, [((1, 1), 1.0), ((2, 3), -0.5), ((5, 5), 0.7)]))
        run_level(problem, "hpfem", 16)  # the interpreter's free lists are not the level's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            row = run_level(problem, "hpfem", 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.N_omega == 1023**2
        assert peak - before <= solver.trace_bytes(row.N_omega)

    def test_run_level_of_high_index_data_holds_no_sine_hat_table(self):
        # d=1 data with the index 20000 on n = 1024: the trace error reads
        # its 20,004 modes off the sine coefficients of the trace. A table
        # of their sine-hat vectors is 20,000 x 1023 doubles, 164 MB, and
        # the run path peaked at 318 MiB while it held one (with its dict of
        # the same rows); measured 3.3 MiB without it
        domain = BoxDomain(1)
        problem = FractionalProblem(s=0.5, domain=domain, f=modal_function(
            domain, [((1,), 1.0), ((20000,), 1.0)]))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            row = run_level(problem, "hfem", 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.trace_hs_error > 0.0
        assert peak - before <= 8 << 20


class TestNoTransform:
    """The run path places the load in sine coordinates and reads both
    errors off the trace's sine coefficients: a level calls no ``numpy.fft``
    function."""

    @pytest.mark.parametrize("scheme,d", [("hfem", 1), ("hpfem", 2)])
    def test_run_level_calls_no_numpy_fft(self, monkeypatch, scheme, d):
        calls = []
        for name in np.fft.__all__:
            def counted(*args, _name=name, _call=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _call(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        np.fft.rfft(np.ones(4))  # the count sees a call
        assert calls == ["rfft"]
        run_level(benchmark_problem(0.5, d), scheme, 16)
        assert calls == ["rfft"]
