import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdiff.specialfunc import (
    MAX_DERIVATIVE_ORDER,
    PsiProfile,
    bessel_k,
    bessel_k_integral,
    decay_envelope_constant,
    derivative_coeffs,
    psi,
    psi_nth_derivative,
    psi_prime,
)


def rel_err(a, b):
    return abs(a - b) / abs(b)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(z) = sqrt(pi/(2z)) e^{-z}
        assert rel_err(bessel_k(0.5, 1.0), math.sqrt(math.pi / 2) * math.exp(-1)) < 1e-13

    def test_negative_order_symmetry(self):
        assert bessel_k(-0.3, 2.0) == bessel_k(0.3, 2.0)

    def test_order_type_canonicalizes(self):
        assert bessel_k(-1.5, 2.0) == bessel_k(1.5, 2.0)
        with pytest.raises(ValueError):
            bessel_k(40.5, 2.0)

    def test_order_one_vs_integral_oracle(self):
        oracle = bessel_k_integral(1.0, 1.0)
        assert rel_err(bessel_k(1.0, 1.0), oracle) < 1e-11
        assert abs(oracle - 0.6019072301972346) < 1e-12

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 1.0, 2.5, 7.5, 14.2, 40.0])
    @pytest.mark.parametrize("z", [1e-6, 1e-3, 0.1, 1.0, 10.0, 50.0])
    def test_production_agrees_with_integral_lattice(self, nu, z):
        try:
            oracle = bessel_k_integral(nu, z)
        except OverflowError:
            pytest.skip("value outside float range")
        assert rel_err(bessel_k(nu, z), oracle) < 1e-11

    def test_positive(self):
        zs = np.logspace(-6, math.log10(50.0), 40)
        for nu in [0.0, 0.25, 1.5, 12.0]:
            assert np.all(bessel_k(nu, zs) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k(0.5, 0.0)
        with pytest.raises(ValueError):
            bessel_k(0.5, -1.0)
        with pytest.raises(ValueError):
            bessel_k(41.0, 1.0)


class TestPsi:
    def test_half_order_is_exponential(self):
        profile = PsiProfile(0.5)
        z = np.linspace(0.01, 30.0, 200)
        assert np.max(np.abs(psi(profile, z) - np.exp(-z)) / np.exp(-z)) < 1e-12

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_value_one_at_zero(self, s):
        assert psi(PsiProfile(s), 0.0) == 1.0

    def test_generic_value_vs_integral_oracle(self):
        # frozen from the integral-representation oracle:
        # c_{0.3} * K_{0.3}(1.0)
        assert rel_err(psi(PsiProfile(0.3), 1.0), 0.23625832779735154) < 1e-11

    @pytest.mark.parametrize("s", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_bounds_and_monotonicity(self, s):
        z = np.linspace(0.0, 30.0, 400)
        vals = psi(PsiProfile(s), z)
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.floats(min_value=0.05, max_value=0.95),
        z=st.floats(min_value=1e-8, max_value=60.0),
    )
    def test_range_property(self, s, z):
        val = psi(PsiProfile(s), z)
        assert 0.0 < val <= 1.0

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            psi(PsiProfile(0.4), -0.1)


class TestPsiPrime:
    def test_half_order(self):
        assert rel_err(psi_prime(PsiProfile(0.5), 1.0), -math.exp(-1)) < 1e-12

    def test_finite_difference(self):
        profile = PsiProfile(0.7)
        z, h = 0.5, 1e-5 * 0.5
        fd = (psi(profile, z + h) - psi(profile, z - h)) / (2 * h)
        assert rel_err(psi_prime(profile, z), fd) < 1e-6

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_strictly_negative(self, s):
        z = np.linspace(0.05, 25.0, 100)
        assert np.all(psi_prime(PsiProfile(s), z) < 0.0)

    def test_large_argument_decay(self):
        profile = PsiProfile(0.3)
        z = np.linspace(20.0, 40.0, 21)
        assert np.all(np.abs(psi_prime(profile, z)) <= np.exp(-z / 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            psi_prime(PsiProfile(0.3), 0.0)


class TestDerivativeCoeffs:
    def test_order_zero(self):
        assert derivative_coeffs(0) == (1,)

    def test_order_two(self):
        assert derivative_coeffs(2) == (1, -1, 0)

    @pytest.mark.parametrize("n", range(0, 16))
    def test_recurrence_exact(self, n):
        # a_m^{n+1} = -a_m^n + (n - 2(m-1)) a_{m-1}^n, in exact integers
        cur = derivative_coeffs(n)
        nxt = derivative_coeffs(n + 1)
        assert nxt[0] == -cur[0]
        for m in range(1, n + 1):
            assert nxt[m] == -cur[m] + (n - 2 * (m - 1)) * cur[m - 1]

    @pytest.mark.parametrize("n", range(0, 16))
    def test_structure(self, n):
        coeffs = derivative_coeffs(n)
        assert coeffs[0] == (-1) ** n
        for m in range(n // 2 + 1, n + 1):
            assert coeffs[m] == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            derivative_coeffs(-1)


# central difference stencils with 4th-order accuracy
_FD_STENCILS = {
    1: ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8)),
    4: ((-3, -2, -1, 0, 1, 2, 3), (-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6)),
}


def _fd_derivative(profile, n, z):
    h = z * 1e-16 ** (1.0 / (n + 4))
    offsets, coeffs = _FD_STENCILS[n]
    return sum(c * psi(profile, z + o * h) for o, c in zip(offsets, coeffs)) / h**n


class TestPsiNthDerivative:
    def test_order_zero_is_psi(self):
        profile = PsiProfile(0.35)
        for z in [0.2, 1.0, 7.0]:
            assert psi_nth_derivative(profile, 0, z) == pytest.approx(
                psi(profile, z), rel=1e-14
            )

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("z", [0.5, 1.5, 5.0])
    def test_first_order_matches_closed_form(self, s, z):
        profile = PsiProfile(s)
        assert rel_err(psi_nth_derivative(profile, 1, z), psi_prime(profile, z)) < 1e-12

    def test_third_derivative_example(self):
        profile = PsiProfile(0.4)
        got = psi_nth_derivative(profile, 3, 1.5)
        assert rel_err(got, _fd_derivative(profile, 3, 1.5)) < 1e-4

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("z", [0.5, 1.2, 2.5, 5.0])
    def test_against_finite_differences(self, n, s, z):
        profile = PsiProfile(s)
        assert rel_err(psi_nth_derivative(profile, n, z), _fd_derivative(profile, n, z)) < 1e-4

    def test_order_cap(self):
        with pytest.raises(ValueError):
            psi_nth_derivative(PsiProfile(0.5), MAX_DERIVATIVE_ORDER + 1, 1.0)
        with pytest.raises(ValueError):
            psi_nth_derivative(PsiProfile(0.5), 2, 0.0)


class TestDecayEnvelope:
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    def test_explicit_bound(self, s, r):
        profile = PsiProfile(s)
        z = np.linspace(1.0, 30.0, 400)
        bound = decay_envelope_constant(profile, r, a=1.0) * np.exp(-z / 2)
        assert np.all(z**r * psi(profile, z) <= bound * (1 + 1e-12))

    def test_admissibility_check(self):
        with pytest.raises(ValueError):
            decay_envelope_constant(PsiProfile(0.8), -0.5)
