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

    @pytest.mark.parametrize("s,d,n,degree,shifts", [
        (0.2, 2, 1024, 41, ["2sigma1"]), (0.2, 2, 2048, 45, ["2sigma1"]),
        (0.1, 1, 64, 51, ["2sigma1", 1e3]), (0.05, 1, 32, 86, [1e3])])
    def test_fold_matches_exact_elimination_at_high_degrees(self, exact_resolvent, s, d, n,
                                                           degree, shifts):
        # hp-FEM levels of the program's top degrees. Condensing the bumps
        # through the bump mass, whose condition grows with the degree, was
        # off by 9.2e-15, 2.5e-14, 3.1e-14 and 2.7e-14, and 1.2e-13 at these
        # shifts; the stiffness metric measured at most 9.2e-16. A 40-digit
        # elimination takes about 3 s a shift at degree 86
        level = discretize(benchmark_problem(s, d), "hpfem", n)
        assert max(level.mesh.degrees) == degree
        lowest = _distinct(OmegaGrid(1, n))[0]
        shifts = np.array([d * lowest if w == "2sigma1" else w for w in shifts])
        for w, r in zip(shifts, y_resolvent(level.weighted, shifts)):
            want = exact_resolvent(level.weighted, w, digits=40)
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

    @pytest.mark.parametrize("d,n", [(1, 42), (2, 9)])
    def test_fold_of_many_bumps_matches_exact_elimination(self, exact_resolvent, d, n):
        # 21 bumps on the top element, at the 41 (d=1) or 36 (d=2) distinct
        # shifts; measured at most 6.7e-16
        system = make_system(d=d, n=n, mesh=hp_mesh(6, 0.125, 2.0, 2.0), alpha=-0.3)
        shifts = _distinct(system.omega.grid)
        for w, r in zip(shifts, y_resolvent(system.y, shifts)):
            want = exact_resolvent(system.y, w, digits=60)
            assert abs(Decimal(float(r)) - want) <= Decimal(1e-14) * want

    @pytest.mark.parametrize("step", [2, 3, 5, 16])
    @pytest.mark.parametrize("d,n", [(1, 42), (2, 9)])
    def test_fold_in_slices_moves_many_bumps_a_few_ulp(self, d, n, step):
        # 21 bumps on the top element: BLAS rounds the pole sums of 2 or 3
        # shifts through other kernels than those of all 41 or 36, and a
        # ragged last slice through others again. Measured at most 2 ulp
        # over slices of 1, 2, 3, 5 and 16 shifts and three alphas
        system = make_system(d=d, n=n, mesh=hp_mesh(6, 0.125, 2.0, 2.0), alpha=-0.3)
        shifts = _distinct(system.omega.grid)
        whole = y_resolvent(system.y, shifts)
        sliced = _sliced(y_resolvent, system.y, shifts, step)
        assert np.all(np.abs(sliced - whole) <= 8 * np.spacing(whole))

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


def _sliced(fold, y, shifts, step):
    """``fold(y, shifts)`` called on slices of ``step`` shifts, the last
    slice taking what is left, and the results joined."""
    return np.concatenate([fold(y, shifts[i:i + step]) for i in range(0, shifts.size, step)])


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
    def test_fold_is_bitwise_the_element_loop(self, mesh, d, n, alpha, step):
        # the geometric-split mesh has split elements above the Gauss-Jacobi
        # first one; step 3 folds the 41 (d=1) or 36 (d=2) shifts 3 at a
        # time, so BLAS forms the pole sums of narrow products, and both
        # folds must still agree bitwise
        system = make_system(d=d, n=n, mesh=mesh, alpha=alpha)
        shifts = _distinct(system.omega.grid)
        step = step or shifts.size
        want = _sliced(element_loop_fold, system.y, shifts, step)
        assert _sliced(y_resolvent, system.y, shifts, step).tobytes() == want.tobytes()

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
        # d_s*omega**s*r_h, and -1 makes it negative. The interpolant's
        # points are certified first: all 106 fail, the lowest the lowest
        # shift, and _scale is never reached (its count of the 7 distinct
        # shifts: TestBaseTriangle)
        problem = benchmark_problem(0.5, 1)
        level = discretize(problem, "hfem", 8)
        scaled = replace(level.weighted, groups=tuple(
            (ms, factor * mass, factor * stiff) for ms, mass, stiff in level.weighted.groups))
        first = _distinct(level.grid)[0]
        with pytest.raises(SolverError) as err:
            solve_trace(level.grid, scaled, level.load, s=0.5, d_s=problem.d_s, margin=1e-9)
        message = str(err.value)
        assert message.startswith("y-resolvent certificate failed at 106 of 106 interpolation "
                                  "points")
        assert f"shift omega={first:.6g}" in message


class _Reciprocal:
    """A stand-in for the interpolant in :func:`solver._scale`: ``f =
    1/(1/w)`` in chunks of ``cells`` shifts, each chunk's shifts recorded;
    with ``s = 0`` it is also ``r_h``, bit for bit."""

    def __init__(self, cells):
        self.cells, self.chunks = cells, []

    def __call__(self, w):
        self.chunks.append(w.copy())
        return 1.0 / (1.0 / w)


class _Folded:
    """A stand-in for the interpolant in :func:`solver._scale`: ``f =
    w**s * r_h`` folded at each shift of ``y``, in chunks of ``cells``
    shifts. It carries a level whose fold fails the certificate past the
    interpolant's own check at its points."""

    def __init__(self, y, s, cells):
        self.y, self.s, self.cells = y, s, cells

    def __call__(self, w):
        return w**self.s * y_resolvent(self.y, w)


def _chunked_resolvent(r_h, n, s=0.5):
    """``r_h`` at every d=2 mode ``(k, l)`` of the grid with ``n`` cells a
    side, as :func:`solver._scale` applies it: unit coefficients and unit
    mass eigenvalues, so each coefficient becomes its mode's ``r_h``, the
    interpolated ``f`` over ``w**s``."""
    mass, stiff = solver._p1_eigenvalues(n)
    R = np.ones((n - 1, n - 1))
    solver._scale(R, r_h, np.ones(n - 1), stiff / mass, 2, s=s, d_s=1.0, margin=math.inf)
    return R


def _level_interpolant(y, d, n, s=0.5):
    """The interpolant that :func:`solver.solve_trace` builds for the grid of
    ``n`` cells a side in ``d`` dimensions; its certificate holds each
    positive point."""
    mass, stiff = solver._p1_eigenvalues(n)
    sigma = stiff / mass
    return solver._interpolant(y, d * sigma[0], d * sigma[-1], s=s, d_s=1.0, margin=math.inf)


def _failing_level():
    """hfem s=0.5 d=2 n=16 with the first element's matrices 0.9 times too
    small: that raises r_h at the high shifts, which see mostly that
    element, so 67 of the 120 shifts fail the certificate, and the first
    failing cell in row order (2038.0) is not the smallest failing shift
    (1820.37)."""
    problem = benchmark_problem(0.5, 2)
    level = discretize(problem, "hfem", 16)
    scaled = replace(level.weighted, groups=tuple(
        (ms, 0.9 * mass, 0.9 * stiff) if ms[0] == 1 else (ms, mass, stiff)
        for ms, mass, stiff in level.weighted.groups))
    return level.grid, scaled, level.load, dict(s=0.5, d_s=problem.d_s, margin=1e-9)


class TestBaseTriangle:
    """The d=2 base modes ``(k, l)``, ``k <= l``, in the chunks of
    :func:`solver._scale`, against the distinct shifts that ``np.unique``
    sorts out of the shift of every mode (``y_reference``)."""

    @pytest.mark.parametrize("n", [*range(2, 66), 128, 255, 256, 1024, 2048])
    def test_every_cell_lies_in_one_chunk_and_the_chunks_hold_every_distinct_shift(self, n):
        # every coefficient must be scaled once, by the r_h of its own
        # shift. Chunks of a 15-panel level (5,242 cells), and of 7 and 50
        # cells up to n = 256: several chunks a row, and several rows a band
        mass, stiff = solver._p1_eigenvalues(n)
        want = 1.0 / (1.0 / np.add.outer(stiff / mass, stiff / mass))
        sizes = {solver._CHUNK_BYTES // (8 * (solver._PANEL_POINTS + 16 + 12))}
        if n <= 256:
            sizes |= {7, 50}
        for cells in sizes:
            r_h = _Reciprocal(cells)
            assert _chunked_resolvent(r_h, n, s=0.0).tobytes() == want.tobytes()
            assert max(w.size for w in r_h.chunks) <= cells
            shifts = np.concatenate(r_h.chunks)
            assert shifts.size == n * (n - 1) // 2
            assert np.unique(shifts).tobytes() == _distinct(OmegaGrid(2, n)).tobytes()

    @pytest.mark.parametrize("n", [2, 9, 100, 1025])
    def test_every_d1_shift_lies_in_one_chunk(self, n):
        # d=1 is the one row of shift 0 and mass 1: chunks of 7 cells, and
        # of the row, scale every coefficient once by r_h/m of its shift
        mass, stiff = solver._p1_eigenvalues(n)
        sigma = stiff / mass
        for cells in (7, 5242):
            r_h = _Reciprocal(cells)
            G = np.ones(n - 1)
            solver._scale(G, r_h, mass, sigma, 1, s=0.0, d_s=1.0, margin=math.inf)
            assert G.tobytes() == (1.0 / (1.0 / sigma) / mass).tobytes()
            assert np.concatenate(r_h.chunks).tobytes() == sigma.tobytes()
            assert max(w.size for w in r_h.chunks) <= cells

    def test_d1_shifts_are_distinct_and_ascending(self):
        for n in range(2, 4097):
            mass, stiff = solver._p1_eigenvalues(n)
            assert np.all(np.diff(stiff / mass) > 0.0), n

    @pytest.mark.parametrize("load_kind", ["modal", "random"])
    @pytest.mark.parametrize("scheme", ["hfem", "hpfem"])
    @pytest.mark.parametrize("n", [2, 3, 8, 16, 64, 128])
    def test_solve_trace_is_the_unique_form_to_rounding(self, n, scheme, load_kind):
        # the fold at every distinct shift against the interpolant: n = 2
        # and 3 have no level of their own (h_omega > 1/2), they take the
        # y-matrices of n = 4. Measured at most 2.4e-15 relative
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
        got = solve_trace(*args, **kwargs)
        assert np.count_nonzero(want) > 0
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("cells", [3, 16, 40])
    @pytest.mark.parametrize("mesh", [graded_mesh(6, 0.5, 1.5), hp_mesh(6, 0.125, 2.0, 0.7),
                                      _INTERLEAVED], ids=["graded", "hp", "interleaved"])
    def test_chunk_size_moves_r_h_a_few_ulp(self, mesh, cells):
        # 11 indices a side: chunks of 3 cells cut each row, 16 hold a row,
        # 40 hold three rows and leave a ragged band. BLAS rounds the
        # barycentric sums of chunks of other widths through other kernels:
        # measured at most 8 ulp over chunks of 1-40, 64, 100, 200 and 500
        # cells, on these meshes and 21 bumps, at n = 12 and 30. Each mode
        # and its mirror get the same bits
        y = assemble_weighted_matrices(mesh, alpha=-0.3)
        r_h = _level_interpolant(y, 2, 12)
        whole = _chunked_resolvent(r_h, 12)
        R = _chunked_resolvent(replace(r_h, cells=cells), 12)
        assert R.tobytes() == R.T.tobytes()
        assert np.all(np.abs(R - whole) <= 16 * np.spacing(whole))

    @pytest.mark.parametrize("cells", [1, 2, 3, 4])
    def test_chunk_size_moves_many_bumps_a_few_ulp(self, exact_resolvent, cells):
        # 21 bumps on the top element, 9 indices a side: chunks of 1-4
        # cells, of 45, each move r_h by at most 6 ulp (measured), and
        # every fourth cell matches a 60-digit elimination
        y = assemble_weighted_matrices(hp_mesh(6, 0.125, 2.0, 2.0), alpha=-0.3)
        mass, stiff = solver._p1_eigenvalues(10)
        sigma = stiff / mass
        triangle = np.triu_indices(9)
        shifts = np.add.outer(sigma, sigma)[triangle]
        r_h = _level_interpolant(y, 2, 10)
        whole = _chunked_resolvent(r_h, 10)[triangle]
        R = _chunked_resolvent(replace(r_h, cells=cells), 10)
        assert R.tobytes() == R.T.tobytes()
        chunked = R[triangle]
        assert np.all(np.abs(chunked - whole) <= 16 * np.spacing(whole))
        for w, r in zip(shifts[::4], chunked[::4]):
            want = exact_resolvent(y, w, digits=60)
            assert abs(Decimal(float(r)) - want) <= Decimal(1e-14) * want

    @pytest.mark.parametrize("cells", [4, 9])
    def test_certificate_is_raised_after_the_last_chunk(self, monkeypatch, cells):
        # the failing level's fold in chunks of 4 or 9 cells: the first
        # chunk with failing shifts fails at a larger shift than the
        # smallest failing one, 1820.37, which lies in a later chunk. The
        # chunks' certificates are recorded as they are checked
        grid, scaled, _, kwargs = _failing_level()
        firsts, failures = [], solver._failures

        def recorded(*args):
            count, (least, ratio) = failures(*args)
            if count:
                firsts.append(least)
            return count, (least, ratio)

        monkeypatch.setattr(solver, "_failures", recorded)
        mass, stiff = solver._p1_eigenvalues(grid.n)
        with pytest.raises(SolverError) as err:
            solver._scale(np.ones((grid.n - 1) ** 2), _Folded(scaled, 0.5, cells), mass,
                          stiff / mass, 2, **kwargs)
        assert str(err.value).startswith("y-resolvent certificate failed at 67 of 120 shifts, "
                                         "first at shift omega=1820.37:")
        assert len(firsts) > 1
        assert firsts[0] > min(firsts) and f"{min(firsts):.6g}" == "1820.37"

    @pytest.mark.parametrize("d,n,shifts", [(1, 8, 7), (1, 100, 99), (2, 8, 28), (2, 16, 120)])
    def test_certificate_counts_the_distinct_shifts(self, d, n, shifts):
        # f = 1/(1/w) > 1 + margin at every shift: the message counts the
        # n - 1 shifts in d=1 and the cells k <= l in d=2, in chunks of 50
        # cells, and names the lowest one
        mass, stiff = solver._p1_eigenvalues(n)
        lowest = d * (stiff / mass)[0]
        with pytest.raises(SolverError) as err:
            solver._scale(np.ones((n - 1) ** d), _Reciprocal(50), mass, stiff / mass, d, s=0.5,
                          d_s=1.0, margin=1e-9)
        assert str(err.value) == (f"y-resolvent certificate failed at {shifts} of {shifts} "
                                  f"shifts, first at shift omega={lowest:.6g}: d_s*omega**s*r_h "
                                  f"= {lowest:.6g} is not in (0, 1 + 1e-09]")

    def test_certificate_names_the_smallest_of_some_failing_shifts(self):
        # the failing level's fold at every distinct shift through _scale
        # gives the message of the fold at the np.unique shifts. Whole, the
        # level fails at its interpolation points first
        grid, scaled, load, kwargs = _failing_level()
        mass, stiff = solver._p1_eigenvalues(grid.n)
        messages = []
        for trace in (lambda: solver._scale(load.copy(), _Folded(scaled, 0.5, 5242), mass,
                                            stiff / mass, 2, **kwargs),
                      lambda: unique_solve_trace(grid, scaled, load, **kwargs)):
            with pytest.raises(SolverError) as err:
                trace()
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("y-resolvent certificate failed at 67 of 120 shifts, "
                                      "first at shift omega=1820.37:")
        with pytest.raises(SolverError, match=r"^y-resolvent certificate failed at \d+ of \d+ "
                                              r"interpolation points, first at shift omega="):
            solve_trace(grid, scaled, load, **kwargs)


def _sampled_interpolant_shifts(r_h, count, seed=2017):
    """Shifts of the interpolant's range that test it: ``count`` seeded
    log-uniform ones, which no data mode has, the midpoint and a point a
    third of the way between two points of a middle panel, a panel edge and
    both range ends."""
    rng = np.random.default_rng(seed)
    panel = r_h.table.shape[0] // 2
    lo, a, b, edge, hi = np.exp(r_h.x0 + np.array([
        0.0, panel + solver._NODES[10], panel + solver._NODES[11], panel,
        r_h.table.shape[0] - 1]))
    return np.array([*np.exp(rng.uniform(np.log(lo), np.log(hi), count)), (a + b) / 2,
                     a + (b - a) / 3, edge, lo, hi])


def _corrupted_fold(monkeypatch, index, factor):
    """Make :func:`solver.y_resolvent` return its ``index``-th value
    ``factor`` times too large, and fail any call of :func:`solver._scale`:
    a bad fold must stop the level before a chunk of shifts is evaluated."""
    fold = solver.y_resolvent

    def corrupted(y, w):
        r = fold(y, w)
        r[index] *= factor
        return r

    def unreached(*args, **kwargs):
        raise AssertionError("a chunk of shifts was evaluated")

    monkeypatch.setattr(solver, "y_resolvent", corrupted)
    monkeypatch.setattr(solver, "_scale", unreached)


class TestInterpolant:
    """``f = omega**s * r_h`` from the Chebyshev-Lobatto interpolant in
    ``ln(omega)`` that :func:`solver.solve_trace` folds and certifies once
    a level."""

    @pytest.mark.parametrize("scheme,s,d,n,count", [
        ("hfem", 0.2, 1, 64, 3), ("hpfem", 0.2, 1, 64, 3), ("hfem", 0.8, 2, 64, 3),
        ("hpfem", 0.8, 2, 128, 3), ("hpfem", 0.2, 2, 1024, 0)])
    def test_matches_exact_elimination(self, exact_resolvent, scheme, s, d, n, count):
        # h- and hp-FEM in d=1 and d=2, the last of degree 41, at shifts
        # off the data, between points, on a panel edge and at both range
        # ends, against a 40-digit elimination; measured at most 8.5e-16
        level = discretize(benchmark_problem(s, d), scheme, n)
        r_h = _level_interpolant(level.weighted, d, n, s)
        shifts = _sampled_interpolant_shifts(r_h, count)
        for w, r in zip(shifts, r_h(shifts) / shifts**s):
            want = exact_resolvent(level.weighted, w, digits=40)
            assert abs(Decimal(float(r)) - want) <= Decimal(1e-14) * want

    def test_a_shift_on_a_point_takes_its_value(self):
        # the lowest shift is the first point: the barycentric sums are
        # inf/inf there, and the interpolant returns the tabulated value
        level = discretize(benchmark_problem(0.5, 1), "hpfem", 16)
        r_h = _level_interpolant(level.weighted, 1, 16)
        lowest = np.exp(r_h.x0)
        f = r_h(np.exp(r_h.x0 + solver._NODES[:2]))
        assert np.all(np.isfinite(f))
        assert f[0] == r_h.table[0, 0]
        assert f[0] == pytest.approx(lowest**0.5 * y_resolvent(level.weighted, [lowest])[0],
                                     rel=1e-15)

    @pytest.mark.parametrize("scheme,d,n", [("hfem", 1, 1024), ("hpfem", 1, 8),
                                            ("hfem", 2, 2048), ("hpfem", 2, 4096)])
    def test_a_level_folds_once_at_a_few_hundred_shifts(self, monkeypatch, scheme, d, n):
        # unit panels over ln(sigma_{n-1}/sigma_1) (d=1) or the same range
        # doubled (d=2): 22 points a panel, neighbours sharing one, and a
        # midpoint each, whatever N_omega
        folds, fold = [], solver.y_resolvent
        monkeypatch.setattr(solver, "y_resolvent", lambda y, w: folds.append(w.size) or fold(y, w))
        mass, stiff = solver._p1_eigenvalues(n)
        sigma = stiff / mass
        panels = math.ceil(math.log(sigma[-1] / sigma[0]))
        y = discretize(benchmark_problem(0.5, 1), scheme, 64).weighted
        _level_interpolant(y, d, n)
        assert folds == [22 * panels + 1]
        assert folds[0] <= 400

    def test_corrupted_point_trips_the_gap_check_naming_the_level(self, monkeypatch):
        # one folded point 1e-9 off, the 8th of panel 3, moves the
        # interpolant at the midpoint of its panel by far more than the gap
        # bound; the certificate at the points still passes
        _corrupted_fold(monkeypatch, 21 * 2 + 7, 1.0 + 1e-9)
        with pytest.raises(SolverError, match=r"^hpfem s=0\.5 d=2 n=16: y-resolvent "
                                              r"interpolant is off the fold by [0-9.e-]+ "
                                              r"relative at omega=[0-9.e+]+, the midpoint of "
                                              r"panel 3 of 6: more than 1e-12$"):
            run_level(benchmark_problem(0.5, 2), "hpfem", 16)

    def test_failing_point_is_a_certificate_error(self, monkeypatch):
        # a folded point that fails 0 < d_s*omega**s*r_h: the certificate
        # at the points names it before the gap check runs
        _corrupted_fold(monkeypatch, 30, -1.0)
        with pytest.raises(SolverError, match=r"^hfem s=0\.5 d=1 n=64: y-resolvent certificate "
                                              r"failed at 1 of 190 interpolation points, first "
                                              r"at shift omega="):
            run_level(benchmark_problem(0.5, 1), "hfem", 64)

    @pytest.mark.parametrize("scheme,d,n", [("hfem", 1, 256), ("hpfem", 2, 64)])
    @pytest.mark.parametrize("index,factor,error", [
        (0, 2.0, "certificate failed at 1 of"), (5, 0.0, "certificate failed at 1 of"),
        (-1, 1.0 + 1e-8, "interpolant is off the fold"), (11, 1.0 - 1e-9, "off the fold")])
    def test_a_bad_fold_fails_before_any_shift(self, monkeypatch, scheme, d, n, index, factor,
                                               error):
        # a point twice too large or zero fails the certificate, a midpoint
        # (the fold's last value) or a point slightly off fails the gap;
        # either stops solve_trace before _scale evaluates a chunk
        problem = benchmark_problem(0.5, d)
        level = discretize(problem, scheme, n)
        _corrupted_fold(monkeypatch, index, factor)
        with pytest.raises(SolverError, match=error):
            solve_trace(level.grid, level.weighted, level.load, s=0.5, d_s=problem.d_s,
                        margin=1e-9)


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
    def test_fold_peak_is_its_result_and_bumps_plus_12_rows(self, scheme, s):
        # 20,000 shifts in one call; per shift the fold holds its copy of
        # the shift, g, t, 1/(w + theta) and the 7 rows of the pole sums:
        # bumps + 10 rows beyond the result, measured 0.25 (h-FEM) and 0.95
        # (hp-FEM, degree 26) of the bound
        level = discretize(benchmark_problem(s, 1), scheme, 64)
        shifts = np.linspace(10.0, 1e5, 20_000)
        bumps = max(level.mesh.degrees) - 1
        r, kept, peak = _traced_fold(level.weighted, shifts)
        assert kept <= r.nbytes + 4096
        assert peak <= 8 * (bumps + 12) * shifts.size

    @pytest.mark.parametrize("scheme,bound", [("hfem", 0.15), ("hpfem", 0.9)])
    def test_run_level_peak_in_full_size_arrays(self, scheme, bound):
        # the run path holds arrays of N_omega doubles and one chunk of
        # shifts, never an N_total array; measured 0.094 (h-FEM) and 0.40
        # (hp-FEM: 21 y-dofs, so the chunk budget weighs more)
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
        # level holds the load's and the trace's coefficients and one chunk
        # of shifts, measured 2.10 arrays, 0.77 of the chunk budget beyond
        # the two (0.90 for h-FEM; the bound the memory check of discretize
        # assumes). Square tiles of a 4 MiB fold budget peaked at 2.49
        # arrays, the level-wide k <= l triangle of shifts and r_h at 3.13
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
