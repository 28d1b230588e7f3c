from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdiff.error_analysis import discretize
from fracdiff.fem1d import assemble_weighted_matrices
from fracdiff.femomega import OmegaGrid, assemble_omega_matrices
from fracdiff.meshing import graded_mesh, hp_mesh
from fracdiff.solver import (
    KroneckerSystem,
    SolutionTensor,
    SolverError,
    cylinder_rhs,
    kron_matvec,
    solve,
)
from fracdiff.spectral import benchmark_problem


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
        assert np.allclose(flat.reshape(X.shape, order="F"), kron_matvec(system, X))

    def test_dimension_mismatch(self):
        system = make_system()
        with pytest.raises(ValueError):
            kron_matvec(system, np.zeros(system.n_total + 1))

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

    def test_zero_rhs(self):
        system = make_system()
        sol = solve(system, np.zeros((system.n_omega, system.n_y)))
        assert sol.iterations == 0
        assert np.all(sol.coefficients == 0.0)

    def test_dense_factorization_oracle(self):
        # unweighted half-order case against a direct dense solve
        level = discretize(benchmark_problem(0.5, 1), "hfem", 12)
        system, rhs = level.system, level.rhs
        assert system.y.alpha == 0.0
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
        flipped = replace(system.y, B_stiff=-system.y.B_stiff)
        system = KroneckerSystem(system.omega, flipped)
        with pytest.raises(SolverError) as err:
            solve(system, np.ones((system.n_omega, system.n_y)))
        assert "pivot" in str(err.value)


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
        system = KroneckerSystem(omega, assemble_weighted_matrices(mesh, degrees, alpha=alpha))
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
        assert np.all(rhs[:, 1:] == 0.0)
        with pytest.raises(ValueError):
            cylinder_rhs(system, np.ones(system.n_omega + 1))
