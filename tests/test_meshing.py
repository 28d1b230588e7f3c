import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdiff.meshing import (
    build_ymesh,
    geometric_mesh,
    graded_mesh,
    hp_mesh,
    linear_degree_vector,
    select_params_h,
    select_params_hp,
)

mesh_sizes = st.integers(min_value=1, max_value=40)
gradings = st.floats(min_value=0.1, max_value=1.0)
ratios = st.floats(min_value=0.05, max_value=0.9)
heights = st.floats(min_value=0.5, max_value=10.0)


class TestGradedMesh:
    def test_uniform_case(self):
        mesh = graded_mesh(4, 1.0, 1.0)
        assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
        assert mesh.degrees == (1, 1, 1, 1)

    def test_quadratic_grading(self):
        mesh = graded_mesh(2, 0.5, 1.0)
        assert np.allclose(mesh.nodes, [0.0, 0.25, 1.0], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(M=mesh_sizes, mu=gradings, Y=heights)
    def test_first_element_size(self, M, mu, Y):
        mesh = graded_mesh(M, mu, Y)
        assert mesh.h[0] == pytest.approx(M ** (-1.0 / mu) * Y, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(M=st.integers(min_value=2, max_value=40), mu=gradings, Y=heights)
    def test_two_sided_element_bounds(self, M, mu, Y):
        mesh = graded_mesh(M, mu, Y)
        nodes, h = np.asarray(mesh.nodes), mesh.h
        for m in range(2, M + 1):
            scale = nodes[m] ** (1 - mu) * Y**mu / M
            lower = 2.0 ** ((mu - 1) / mu) / mu * scale
            upper = scale / mu
            assert lower * (1 - 1e-12) <= h[m - 1] <= upper * (1 + 1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            graded_mesh(0, 0.5, 1.0)
        with pytest.raises(ValueError):
            graded_mesh(4, 1.5, 1.0)
        with pytest.raises(ValueError):
            graded_mesh(4, 0.5, -1.0)


class TestGeometricMesh:
    def test_powers_of_half(self):
        mesh = geometric_mesh(3, 0.5, 1.0)
        assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 1.0], atol=1e-15)

    def test_single_element(self):
        mesh = geometric_mesh(1, 0.125, 2.0)
        assert np.allclose(mesh.nodes, [0.0, 2.0], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(M=st.integers(min_value=2, max_value=30), sigma=ratios, Y=heights)
    def test_identities(self, M, sigma, Y):
        mesh = geometric_mesh(M, sigma, Y)
        nodes, h = np.asarray(mesh.nodes), mesh.h
        assert h[0] == pytest.approx(sigma ** (M - 1) * Y, rel=1e-12)
        for m in range(2, M + 1):
            assert h[m - 1] == pytest.approx((1 - sigma) * nodes[m], rel=1e-12)
            assert h[m - 1] == pytest.approx((1 / sigma - 1) * nodes[m - 1], rel=1e-12)
            assert h[m - 1] == pytest.approx(
                (1 - sigma) * sigma ** (1 - m) * h[0], rel=1e-12
            )


class TestLinearDegreeVector:
    def test_first_degree_is_one(self):
        mesh = geometric_mesh(5, 0.3, 1.0)
        assert linear_degree_vector(mesh, 2.3)[0] == 1

    def test_second_degree_reference_value(self):
        # h_2/h_1 = (1-sigma)/sigma = 7, ceil(1 + 0.7*ln 7) = 3
        mesh = geometric_mesh(4, 0.125, 1.0)
        assert linear_degree_vector(mesh, 0.7)[1] == 3

    @settings(max_examples=50, deadline=None)
    @given(
        M=st.integers(min_value=2, max_value=30),
        sigma=st.floats(min_value=0.05, max_value=0.5),
        beta=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_band_and_monotonicity(self, M, sigma, beta):
        mesh = geometric_mesh(M, sigma, 1.0)
        p = linear_degree_vector(mesh, beta)
        assert p[0] == 1
        assert all(p[m] >= p[m - 1] for m in range(1, M))
        for m in range(2, M + 1):
            slope = math.log(1 - sigma) + (1 - m) * math.log(sigma)
            assert 1 + beta * slope <= p[m - 1] + 1e-9
            assert p[m - 1] <= 2 + beta * slope + 1e-9

    def test_rejects_non_geometric(self):
        with pytest.raises(ValueError):
            linear_degree_vector(graded_mesh(4, 0.5, 1.0), 0.7)


class TestDofCounts:
    @settings(max_examples=40, deadline=None)
    @given(
        M=st.integers(min_value=1, max_value=25),
        sigma=st.floats(min_value=0.05, max_value=0.5),
        beta=st.floats(min_value=0.2, max_value=2.0),
    )
    def test_count_and_growth_bound(self, M, sigma, beta):
        mesh = hp_mesh(M, sigma, 1.0, beta)
        assert mesh.n_dofs() == sum(mesh.degrees)
        # ceiling rule keeps the unconstrained count 1 + sum(p_m) below the
        # quadratic envelope
        bound = 1 + 2 * M + beta * abs(math.log(sigma)) * M * (M - 1) / 2
        assert 1 + mesh.n_dofs() <= bound + 1e-9


class TestParamSelection:
    def test_h_scheme_reference_values(self):
        params = select_params_h(1 / 8, 0.5, 2 * math.pi**2)
        assert params.mu == pytest.approx(0.4, rel=1e-15)
        assert params.M == 8
        assert params.Y == pytest.approx(1.4041163613519323, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(min_value=0.05, max_value=0.95))
    def test_grading_below_order(self, s):
        params = select_params_h(0.25, s, math.pi**2)
        assert params.mu < s

    def test_coarsest_mesh(self):
        assert select_params_h(0.5, 0.5, math.pi**2).M == 2

    def test_hp_scheme_reference_value(self):
        params = select_params_hp(1 / 16, 0.8, 2 * math.pi**2)
        assert params.M == 3
        assert params.sigma == 0.125
        assert params.beta == 0.7

    def test_hp_element_count_growth(self):
        lam = 2 * math.pi**2
        ms = [select_params_hp(2.0**-k, 0.5, lam).M for k in range(2, 8)]
        assert all(m2 >= m1 for m1, m2 in zip(ms, ms[1:]))
        assert all(m2 - m1 <= 2 for m1, m2 in zip(ms, ms[1:]))

    def test_hp_small_order_needs_more_elements(self):
        lam = 2 * math.pi**2
        assert select_params_hp(1 / 32, 0.2, lam).M > select_params_hp(1 / 32, 0.8, lam).M

    def test_rejects_large_mesh_size(self):
        with pytest.raises(ValueError):
            select_params_h(0.6, 0.5, math.pi**2)
        with pytest.raises(ValueError):
            select_params_hp(0.0, 0.5, math.pi**2)

    def test_build_ymesh_roundtrip(self):
        params = select_params_hp(1 / 16, 0.8, 2 * math.pi**2)
        mesh = build_ymesh(params)
        assert mesh.M == params.M
        assert mesh.family == "geometric"
        assert mesh.degrees[0] == 1
        params_h = select_params_h(1 / 16, 0.8, 2 * math.pi**2)
        mesh_h = build_ymesh(params_h)
        assert mesh_h.family == "graded"
        assert set(mesh_h.degrees) == {1}
