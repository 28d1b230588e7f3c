import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdiff.spectral import (
    BoxDomain,
    FractionalProblem,
    benchmark_problem,
    modal_function,
    solve_fractional,
)
from oracles import exact_extended, hs_norm, tail_energy


class TestEigenpair:
    def test_first_mode_2d(self):
        assert BoxDomain(2).eigenvalue((1, 1)) == pytest.approx(2 * math.pi**2, rel=1e-15)

    def test_first_mode_1d(self):
        assert BoxDomain(1).eigenvalue((1,)) == pytest.approx(math.pi**2, rel=1e-15)

    def test_orthonormal_peak_value(self):
        # the orthonormal eigenfunction is the plain one scaled by sqrt(2) per axis
        v = modal_function(BoxDomain(2), [((1, 1), math.sqrt(2) ** 2)])
        assert v(np.array([0.5, 0.5])) == pytest.approx(2.0, rel=1e-15)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            BoxDomain(2).eigenvalue((0, 1))
        with pytest.raises(ValueError):
            BoxDomain(1).eigenvalue((1, 1))

    @pytest.mark.parametrize("index", [(2, 3), [2, 3], np.array([2, 3]),
                                       (np.int64(2), np.int64(3)), np.array([2, 3], np.int32)],
                             ids=["tuple", "list", "array", "numpy-ints", "int32-array"])
    def test_index_forms_are_accepted(self, index):
        assert BoxDomain(2).eigenvalue(index) == math.pi**2 * 13.0
        assert modal_function(BoxDomain(2), [(index, 1.0)]).modes == (((2, 3), 1.0),)
        assert BoxDomain(1).eigenvalue(np.int64(4)) == math.pi**2 * 16.0

    @pytest.mark.parametrize("index", [(0, 1), (1,), (1, 2, 3), [0, 1], np.array([1, 2, 3])])
    def test_invalid_indices_for_d2_are_rejected(self, index):
        with pytest.raises(ValueError, match=r"invalid eigenmode index \(.*\) for d=2"):
            BoxDomain(2).eigenvalue(index)

    def test_rejection_names_the_index_as_ints(self):
        for index in ((0, 1), [0, 1], np.array([0, 1])):
            with pytest.raises(ValueError) as err:
                BoxDomain(2).eigenvalue(index)
            assert str(err.value) == "invalid eigenmode index (0, 1) for d=2"

    def test_mode_enumeration_ordering(self):
        domain = BoxDomain(2)
        modes = domain.modes_by_eigenvalue(12)
        lams = [domain.eigenvalue(idx) for idx in modes]
        assert lams == sorted(lams)
        assert lams[0] == pytest.approx(2 * math.pi**2)
        assert len(set(modes)) == 12

    def test_mode_enumeration_matches_sorted_box(self):
        box = [(k, l) for k in range(1, 41) for l in range(1, 41)]
        box.sort(key=lambda idx: (idx[0] ** 2 + idx[1] ** 2, idx))
        for count in range(200):
            assert BoxDomain(2).modes_by_eigenvalue(count) == box[:count]
        assert BoxDomain(1).modes_by_eigenvalue(5) == [(1,), (2,), (3,), (4,), (5,)]


class TestSolveFractional:
    def test_benchmark_has_unit_coefficient(self):
        problem = benchmark_problem(0.8, 2)
        u = solve_fractional(problem)
        ((index, coef),) = u.modes
        assert index == (1, 1)
        assert coef == pytest.approx(1.0, rel=1e-14)

    def test_zero_data(self):
        domain = BoxDomain(1)
        f = modal_function(domain, [((1,), 0.0)])
        u = solve_fractional(FractionalProblem(s=0.4, domain=domain, f=f))
        assert all(coef == 0.0 for _, coef in u.modes)

    def test_single_mode_formula(self):
        domain = BoxDomain(2)
        f = modal_function(domain, [((2, 1), 3.0)])
        u = solve_fractional(FractionalProblem(s=0.5, domain=domain, f=f))
        ((_, coef),) = u.modes
        assert coef == pytest.approx(0.4270575260503062, rel=1e-14)  # 3*(5 pi^2)^(-1/2)


class TestHsNorm:
    def test_single_orthonormal_mode(self):
        domain = BoxDomain(1)
        v = modal_function(domain, [((1,), math.sqrt(2))])
        for s in [0.2, 0.5, 0.9]:
            assert hs_norm(v, s) == pytest.approx((math.pi**2) ** (s / 2), rel=1e-14)

    def test_plain_normalization_conversion(self):
        domain = BoxDomain(2)
        v = modal_function(domain, [((1, 1), 1.0)])
        lam = 2 * math.pi**2
        assert hs_norm(v, 0.6) == pytest.approx(0.5 * lam**0.3, rel=1e-14)

    def test_pythagorean_sum(self):
        domain = BoxDomain(1)
        v = modal_function(domain, [((1,), 2.0 * math.sqrt(2)), ((3,), -math.sqrt(2))])
        lam1, lam3 = math.pi**2, 9 * math.pi**2
        want = math.sqrt(4 * lam1**0.5 + 1 * lam3**0.5)
        assert hs_norm(v, 0.5) == pytest.approx(want, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.floats(min_value=0.05, max_value=0.95),
        data=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=1, max_value=6),
                st.floats(min_value=-20, max_value=20),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_isometry_property(self, s, data):
        domain = BoxDomain(2)
        f = modal_function(domain, [((k, l), c) for k, l, c in data])
        problem = FractionalProblem(s=s, domain=domain, f=f)
        u = solve_fractional(problem)
        nu, nf = hs_norm(u, s), hs_norm(f, -s)
        assert abs(nu - nf) <= 1e-14 * max(nf, 1.0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("s", [0.3, -0.3])
    def test_scales_with_the_coefficients_by_powers_of_two(self, d, s):
        # 2**530 squared overflows a double and 2**-1000 squared underflows
        # to 0; the norm is linear in v, and scaling by a power of two is
        # exact, so it is 2**k times that of the unscaled coefficients
        def norm(k):
            domain = BoxDomain(d)
            entries = [((1,) * d, math.ldexp(1.0, k)), ((2,) * d, math.ldexp(-0.7, k))]
            return hs_norm(modal_function(domain, entries), s)

        for k in (-1000, 0, 530):
            assert norm(k) == math.ldexp(norm(0), k)

    @pytest.mark.parametrize("coef", [1e160, 1e-300])
    def test_extreme_coefficient(self, coef):
        v = modal_function(BoxDomain(1), [((1,), coef)])
        want = coef / math.sqrt(2) * math.pi**0.5
        assert hs_norm(v, 0.5) == pytest.approx(want, rel=1e-14, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.floats(min_value=-0.95, max_value=0.95),
        d=st.sampled_from([1, 2]),
        data=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=1.0, max_value=2.0),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_bitwise_the_unscaled_sum_in_the_normal_range(self, s, d, data):
        domain = BoxDomain(d)
        v = modal_function(domain, [((k,) * d, c * 10.0**e) for k, e, c in data])
        want = math.sqrt(sum(lam**s * (coef * coef) for _, lam, coef in v.orthonormal_items()))
        assert hs_norm(v, s) == want


class TestExactExtended:
    def test_trace_is_fractional_solution(self):
        problem = benchmark_problem(0.7, 2)
        x = np.array([0.3, 0.6])
        want = math.sin(math.pi * 0.3) * math.sin(math.pi * 0.6)
        assert exact_extended(problem, x, 0.0) == pytest.approx(want, rel=1e-14)

    def test_half_order_profile_value(self):
        problem = benchmark_problem(0.5, 2)
        got = exact_extended(problem, np.array([0.5, 0.5]), 1.0)
        assert got == pytest.approx(math.exp(-math.sqrt(2) * math.pi), rel=1e-12)

    def test_vanishes_on_lateral_boundary(self):
        problem = benchmark_problem(0.4, 2)
        assert exact_extended(problem, np.array([0.0, 0.37]), 0.8) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_negative_height(self):
        problem = benchmark_problem(0.4, 1)
        with pytest.raises(ValueError):
            exact_extended(problem, 0.5, -0.2)


class TestTailEnergy:
    def test_zero_data(self):
        domain = BoxDomain(1)
        f = modal_function(domain, [((1,), 0.0)])
        problem = FractionalProblem(s=0.6, domain=domain, f=f)
        assert tail_energy(problem, 1.5) == 0.0

    def test_half_order_closed_form(self):
        # single mode, s = 1/2: integrand 2*lam*u^2*exp(-2*sqrt(lam)*y)
        problem = benchmark_problem(0.5, 2)
        lam = 2 * math.pi**2
        for Y in [1.0, 2.0]:
            want = 0.25 * math.sqrt(lam) * math.exp(-2 * math.sqrt(lam) * Y)
            assert tail_energy(problem, Y) == pytest.approx(want, rel=1e-8)

    def test_monotone_in_height(self):
        problem = benchmark_problem(0.3, 2)
        assert tail_energy(problem, 4.0) < tail_energy(problem, 2.0)

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_decay_slope(self, s):
        problem = benchmark_problem(s, 2)
        heights = np.linspace(1.0, 4.0, 7)
        logs = np.log([tail_energy(problem, Y) for Y in heights])
        slopes = np.diff(logs) / np.diff(heights)
        bound = -math.sqrt(problem.domain.lambda1) + 0.1
        assert np.all(slopes <= bound)

    def test_requires_unit_height(self):
        problem = benchmark_problem(0.5, 1)
        with pytest.raises(ValueError):
            tail_energy(problem, 0.5)


class TestProblemValidation:
    def test_alpha_and_ds(self):
        problem = benchmark_problem(0.8, 2)
        assert problem.alpha == pytest.approx(-0.6)
        assert problem.d_s == pytest.approx(2.6015718907058005, rel=1e-14)

    def test_invalid_order(self):
        domain = BoxDomain(1)
        f = modal_function(domain, [((1,), 1.0)])
        with pytest.raises(ValueError):
            FractionalProblem(s=1.5, domain=domain, f=f)

    def test_merged_duplicate_modes(self):
        domain = BoxDomain(1)
        f = modal_function(domain, [((2,), 1.0), ((2,), 2.5)])
        ((index, coef),) = f.modes
        assert index == (2,)
        assert coef == 3.5
