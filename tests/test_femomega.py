import math

import numpy as np
import pytest
import scipy.linalg

from fracdiff.femomega import (
    OmegaGrid,
    assemble_load,
    assemble_omega_matrices,
    sine_hat_integrals,
)
from fracdiff.spectral import BoxDomain, FractionalProblem, modal_function


def sine_hat_closed_form(n, k):
    """Exact integrals of sin(k pi x) against interior hat functions."""
    h = 1.0 / n
    nodes = np.arange(1, n) * h
    return 4.0 * math.sin(k * math.pi * h / 2.0) ** 2 * np.sin(k * math.pi * nodes) / (
        (k * math.pi) ** 2 * h
    )


class TestGrid:
    def test_1d_example(self):
        grid = OmegaGrid(1, 4)
        assert grid.n_dofs == 3
        assert grid.h_omega == pytest.approx(0.25)
        assert np.allclose(grid.interior_nodes, [0.25, 0.5, 0.75])

    def test_2d_example(self):
        grid = OmegaGrid(2, 4)
        assert grid.n_dofs == 9
        assert grid.h_omega == pytest.approx(math.sqrt(2) / 4)

    def test_dof_growth(self):
        # N_omega ~ h^(-d): the normalized product stays bounded
        products = [
            OmegaGrid(2, n).n_dofs * OmegaGrid(2, n).h_omega ** 2 for n in (4, 8, 16)
        ]
        assert max(products) / min(products) < 2.0
        h = [OmegaGrid(2, n).h_omega for n in (4, 8, 16)]
        assert h[1] == pytest.approx(h[0] / 2) and h[2] == pytest.approx(h[1] / 2)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            OmegaGrid(1, 1)
        with pytest.raises(ValueError):
            OmegaGrid(3, 4)


class TestMatrices:
    def test_1d_single_dof(self):
        omega = assemble_omega_matrices(OmegaGrid(1, 2))
        assert omega.A_mass.toarray()[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert omega.A_stiff.toarray()[0, 0] == pytest.approx(4.0, rel=1e-14)

    def test_2d_tensor_identity_vs_direct_quadrature(self, direct_q1_assembly):
        omega = assemble_omega_matrices(OmegaGrid(2, 3))
        mass, stiff = direct_q1_assembly(3)
        assert np.max(np.abs(omega.A_mass.toarray() - mass)) <= 1e-13 * mass.max()
        assert np.max(np.abs(omega.A_stiff.toarray() - stiff)) <= 1e-13 * np.abs(stiff).max()

    def test_stiffness_row_sums_vanish_away_from_boundary(self):
        n = 6
        omega = assemble_omega_matrices(OmegaGrid(2, n))
        A = omega.A_stiff.toarray()
        scale = np.abs(A).max()
        m = n - 1
        for i in range(1, m - 1):
            for j in range(1, m - 1):
                row = i * m + j
                assert abs(A[row].sum()) <= 1e-13 * scale

    @pytest.mark.parametrize("d", [1, 2])
    def test_smallest_eigenvalue_approaches_from_above(self, d):
        lam1 = d * math.pi**2
        previous = None
        for n in (4, 8, 16):
            omega = assemble_omega_matrices(OmegaGrid(d, n))
            vals = scipy.linalg.eigh(
                omega.A_stiff.toarray(), omega.A_mass.toarray(), eigvals_only=True
            )
            smallest = vals[0]
            assert smallest > lam1
            if previous is not None:
                assert smallest < previous
            previous = smallest
        assert previous == pytest.approx(lam1, rel=5e-3)

    def test_stiffness_positive_definite(self):
        omega = assemble_omega_matrices(OmegaGrid(2, 5))
        np.linalg.cholesky(omega.A_stiff.toarray())


class TestLoad:
    def test_zero_data(self):
        domain = BoxDomain(1)
        problem = FractionalProblem(
            s=0.5, domain=domain, f=modal_function(domain, [((1,), 0.0)])
        )
        assert np.all(assemble_load(OmegaGrid(1, 8), problem) == 0.0)

    def test_first_mode_reference_entry(self):
        # d=1, f = sin(pi x), n = 2: d_s * 4/pi^2 at the single dof
        domain = BoxDomain(1)
        problem = FractionalProblem(
            s=0.3, domain=domain, f=modal_function(domain, [((1,), 1.0)])
        )
        load = assemble_load(OmegaGrid(1, 2), problem)
        assert load[0] == pytest.approx(problem.d_s * 4.0 / math.pi**2, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sine_hat_closed_form(self, k):
        grid = OmegaGrid(1, 9)
        got = sine_hat_integrals(grid, k)
        assert np.max(np.abs(got - sine_hat_closed_form(9, k))) < 1e-12

    @pytest.mark.parametrize("n,k", [(8, 1), (9, 7), (64, 5), (1024, 1), (1024, 40)])
    def test_sine_hat_closed_form_fine_grids(self, n, k):
        # 2(1 - cos(k pi h))/((k pi)^2 h) sin(k pi x_i), in the half-angle
        # form of the helper: 1 - cos(k pi h) itself cancels to ~4e-12 at n=1024
        want = sine_hat_closed_form(n, k)
        got = sine_hat_integrals(OmegaGrid(1, n), k)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()

    def test_2d_structure_vs_direct_quadrature(self):
        domain = BoxDomain(2)
        problem = FractionalProblem(
            s=0.4, domain=domain, f=modal_function(domain, [((2, 1), 1.5)], "plain")
        )
        grid = OmegaGrid(2, 5)
        got = assemble_load(grid, problem) / problem.d_s
        # direct tensor of closed forms
        g1 = sine_hat_closed_form(5, 2)
        g2 = sine_hat_closed_form(5, 1)
        want = 1.5 * np.kron(g1, g2)
        assert np.max(np.abs(got - want)) < 1e-12
