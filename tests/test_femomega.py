import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from fracdiff.femomega import (
    OmegaGrid,
    assemble_load,
    assemble_omega_matrices,
    sine_hat_integrals,
    sine_projections,
)
from fracdiff.spectral import BoxDomain, FractionalProblem, modal_function
from oracles import dst


def gauss_legendre_long(points):
    """Gauss-Legendre nodes and weights on [0, 1] in long double: numpy's
    double nodes refined by Newton steps on the Legendre recurrence."""
    x = np.polynomial.legendre.leggauss(points)[0].astype(np.longdouble)
    for _ in range(3):
        p0, p1 = np.ones_like(x), x
        for j in range(2, points + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = points * (p0 - x * p1) / (1 - x * x)
        x = x - p1 / dp
    return (x + 1) / 2, 1 / ((1 - x * x) * dp * dp)


def sine_hat_quadrature(n, k, points=48):
    """Integrals of sin(k pi x) against the interior hats of n cells by a
    Gauss-Legendre rule on every cell, in long double: near k = 2n an entry
    is 1e-4 of its two cells' parts, and double nodes alone put 7e-11 of
    error into it (n=64, k=129)."""
    t, w = gauss_legendre_long(points)
    vals = np.sin(4 * np.arctan(np.longdouble(1)) * k * (np.arange(n)[:, None] + t) / n) * (w / n)
    # node i gets the rising hat of the cell on its left and the falling
    # hat of the cell on its right
    return ((vals @ t)[:-1] + (vals @ (1 - t))[1:]).astype(float)


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
        assert np.max(np.abs(got - sine_hat_quadrature(9, k))) < 1e-12

    @pytest.mark.parametrize("n,k", [(8, 1), (9, 7), (64, 5), (1024, 1), (1024, 40)])
    def test_sine_hat_closed_form_fine_grids(self, n, k):
        # the half-angle factor 4 sin(k pi h/2)**2 keeps 1 - cos(k pi h) from
        # cancelling to ~4e-12 at n=1024
        want = sine_hat_quadrature(n, k)
        got = sine_hat_integrals(OmegaGrid(1, n), k)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs an extended long double")
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_aliased_frequencies_match_quadrature(self, n):
        # every k < 3n off the multiples of n, whose vectors vanish: k > n
        # aliases onto the grid (the trace-error projection and --modes data
        # reach it), and an 8-point rule per cell is 3.9e-7 off at n=8, k=21
        for k in range(1, 3 * n):
            if k % n:
                want = sine_hat_quadrature(n, k)
                got = sine_hat_integrals(OmegaGrid(1, n), k)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max(), k

    def test_2d_structure_vs_direct_quadrature(self):
        domain = BoxDomain(2)
        problem = FractionalProblem(
            s=0.4, domain=domain, f=modal_function(domain, [((2, 1), 1.5)])
        )
        grid = OmegaGrid(2, 5)
        got = dst(assemble_load(grid, problem), (4, 4)) / problem.d_s
        # direct tensor of per-cell quadratures
        g1 = sine_hat_quadrature(5, 2)
        g2 = sine_hat_quadrature(5, 1)
        want = 1.5 * np.kron(g1, g2)
        assert np.max(np.abs(got - want)) < 1e-12


class TestLoadCoefficients:
    """The load's sine coefficients: each data mode adds its coefficient
    times the closed-form sine-hat factors into its aliased cell, so the
    nodal load, their ``dst``, is the sum of the per-mode products of the
    nodal sine-hat integrals."""

    @staticmethod
    def nodal_reference(grid, problem):
        out = np.zeros(grid.n_dofs)
        for index, coef in problem.f.modes:
            out += coef * reduce(np.kron, [sine_hat_integrals(grid, k) for k in index])
        return problem.d_s * out

    @pytest.mark.parametrize("d", [1, 2])
    def test_aliased_modes_sum_into_one_cell(self, d):
        # k = 3 and 2n - k = 13 sample to opposite sines on n = 8, and n = 8
        # samples to zero; mixed axes in d=2
        n, ks = 8, [3, 13, 8, 5]
        domain = BoxDomain(d)
        rng = np.random.default_rng(d)
        entries = [(idx, float(rng.uniform(0.5, 1.5)))
                   for idx in itertools.product(ks, repeat=d)]
        problem = FractionalProblem(s=0.4, domain=domain, f=modal_function(domain, entries))
        grid = OmegaGrid(d, n)
        load = assemble_load(grid, problem)
        # one nonzero cell per aliasing class off the multiples of n (3/13
        # and 5, per axis): the modes with an 8 add exact zeros
        assert np.count_nonzero(load) == 2**d
        want = self.nodal_reference(grid, problem)
        got = dst(load, (n - 1,) * d)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()

    def test_high_index_costs_no_base_work_per_mode(self):
        # d=1 data with every index up to 20000 on n = 1024: one sine-hat
        # vector a frequency would be 20,000 x 1023 doubles, 164 MB; the
        # placement holds a few arrays of one double a mode
        domain = BoxDomain(1)
        entries = [((k,), 1.0 / k) for k in range(1, 20001)]
        problem = FractionalProblem(s=0.5, domain=domain, f=modal_function(domain, entries))
        grid = OmegaGrid(1, 1024)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assemble_load(grid, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 2 << 20
        few = FractionalProblem(s=0.5, domain=domain, f=modal_function(
            domain, [((1,), 1.0), ((20000,), 1.0), ((20001,), -0.5)]))
        want = self.nodal_reference(grid, few)
        got = dst(assemble_load(grid, few), (1023,))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()


class TestSineProjections:
    """Projections of the nodal trace onto sine modes, gathered from its
    orthonormal DST-I coefficients, against the sine-hat quadratures of the
    nodal values: frequencies past ``n`` alias, ``k`` and ``2n - k`` with
    opposite signs, and the multiples of ``n`` project to zero."""

    @pytest.mark.parametrize("d,n", [(1, 8), (1, 33), (2, 8), (2, 13)])
    def test_aliasing_rule(self, d, n):
        grid = OmegaGrid(d, n)
        coeffs = np.random.default_rng(n).standard_normal(grid.n_dofs)
        trace = dst(coeffs, (n - 1,) * d)
        ks = [1, n - 1, n, n + 1, 2 * n - 1, 2 * n, 2 * n + 3]
        indices = list(itertools.product(ks, repeat=d))  # mixed axes in d=2
        want = np.array([reduce(np.kron, [sine_hat_integrals(grid, k) for k in idx]) @ trace
                         for idx in indices])
        got = sine_projections(grid, coeffs, indices)
        # the gap is the quadrature's: sin(k*pi*x_i) rounds at the large
        # arguments, 8e-15 of the largest projection at n=33, k=n
        assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()
