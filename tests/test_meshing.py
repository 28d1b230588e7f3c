import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdiff import meshing
from fracdiff.fem1d import YDofMap, assemble_weighted_matrices
from fracdiff.meshing import (
    MeshError,
    YMesh,
    build_ymesh,
    geometric_mesh,
    graded_mesh,
    hp_mesh,
    linear_degree_vector,
    select_params_h,
    select_params_hp,
    y_storage_bytes,
)

mesh_sizes = st.integers(min_value=1, max_value=40)
gradings = st.floats(min_value=0.1, max_value=1.0)
ratios = st.floats(min_value=0.05, max_value=0.9)
heights = st.floats(min_value=0.5, max_value=10.0)


class TestYMeshHeight:
    """A mesh's height is its last node; it stores none of its own."""

    def test_no_stored_height(self):
        assert [f.name for f in fields(YMesh)] == ["nodes", "degrees"]
        with pytest.raises(TypeError):
            YMesh(Y=2.0, nodes=(0.0, 1.0), degrees=(1,))

    @pytest.mark.parametrize("mesh", [
        graded_mesh(8, 0.4, 1.5), geometric_mesh(5, 0.125, 2.0), hp_mesh(6, 0.125, 2.0, 0.7),
        YMesh(nodes=(0.0, 0.25, 3.0), degrees=(1, 2)),
    ], ids=["graded", "geometric", "hp", "direct"])
    def test_height_is_the_last_node(self, mesh):
        assert mesh.Y is mesh.nodes[-1]

    @pytest.mark.parametrize("scheme", ["hfem", "hpfem"])
    @pytest.mark.parametrize("h", [1 / 8, 1 / 64, math.sqrt(2) / 2048, 1 / 4096])
    def test_builders_end_bitwise_at_the_rules_height(self, scheme, h):
        rule = select_params_h if scheme == "hfem" else select_params_hp
        params = rule(h, 0.3, math.pi**2)
        assert build_ymesh(params).Y == params.Y

    def test_mesh_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at y_0 = 0"):
            YMesh(nodes=(0.5, 1.0), degrees=(1,))


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

    def test_underflowed_first_node_names_the_width(self):
        # 0.125**399 * 2 = 10**(-399 log10 8 + log10 2) = 10**-360.0
        with pytest.raises(MeshError, match=r"sigma\*\*\(M-1\)\*Y = 10\*\*-360\.0 underflows"):
            geometric_mesh(400, 0.125, 2.0)

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

    def test_subnormal_first_width(self):
        # h_1 = 0.125**349 * 2 is subnormal: h_350/h_1 overflows, ln h_350 - ln h_1 does not
        mesh = geometric_mesh(350, 0.125, 2.0)
        assert 0.0 < mesh.h[0] < np.finfo(float).tiny
        p = linear_degree_vector(mesh, 0.7)
        # h_m/h_1 = 7 * 8**(m-2), as in test_second_degree_reference_value
        assert p[:2] == (1, 3)
        assert p[-1] == math.ceil(1 + 0.7 * (math.log(7.0) + 348 * math.log(8.0))) == 509

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


class TestDofCounts:
    @settings(max_examples=40, deadline=None)
    @given(
        M=st.integers(min_value=1, max_value=25),
        sigma=st.floats(min_value=0.05, max_value=0.5),
        beta=st.floats(min_value=0.2, max_value=2.0),
    )
    def test_count_and_growth_bound(self, M, sigma, beta):
        mesh = hp_mesh(M, sigma, 1.0, beta)
        n_dofs = YDofMap(degrees=mesh.degrees).n_dofs
        assert n_dofs == sum(mesh.degrees)
        # ceiling rule keeps the unconstrained count 1 + sum(p_m) below the
        # quadratic envelope
        bound = 1 + 2 * M + beta * abs(math.log(sigma)) * M * (M - 1) / 2
        assert 1 + n_dofs <= bound + 1e-9


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

    def test_hp_element_count_with_underflowing_denominator(self):
        # s*|ln sigma| underflows to 0 for the smallest subnormal s: the
        # rule's ratio is infinite, not a division by zero
        with pytest.raises(MeshError, match=r"the element count M = inf is not finite"):
            select_params_hp(1 / 8, 5e-324, math.pi**2, sigma=0.99)

    def test_hp_degree_that_overflows_names_the_element(self):
        # build_ymesh's storage check stops such a level first (inf bytes);
        # hp_mesh called on its own checks every degree
        with pytest.raises(MeshError, match=r"^element 2: the degree 1 \+ beta\*ln\(h_m/h_1\) "
                                            r"= inf is not finite"):
            hp_mesh(4, 0.125, 1.0, 1e308)

    @pytest.mark.parametrize("rule,name,value", [
        (select_params_h, "m_mult", -1.0), (select_params_h, "m_mult", 0.0),
        (select_params_h, "y_mult", -1.0), (select_params_h, "mu", 5.0),
        (select_params_hp, "m_mult", -1.0), (select_params_hp, "m_mult", 0.0),
        (select_params_hp, "y_mult", -1.0), (select_params_hp, "beta", -1.0),
        (select_params_hp, "sigma", 2.0), (select_params_hp, "sigma", math.nan),
        (select_params_h, "y_mult", math.inf),
    ])
    def test_override_out_of_range_is_a_mesh_error(self, rule, name, value):
        message = meshing.rule_override_error(**{name: value})
        assert message == (f"mu must lie in (0, 1], got {value}" if name == "mu" else
                           f"sigma must lie in (0, 1), got {value}" if name == "sigma" else
                           f"{name} must be finite and positive, got {value}")
        with pytest.raises(MeshError) as err:
            rule(1 / 8, 0.5, math.pi**2, **{name: value})
        assert str(err.value) == message

    def test_overrides_in_range_pass(self):
        assert meshing.rule_override_error() is None
        assert meshing.rule_override_error(mu=1.0, sigma=0.5, beta=1e-3, m_mult=1e-3,
                                           y_mult=10.0) is None

    def test_rejects_large_mesh_size(self):
        with pytest.raises(ValueError):
            select_params_h(0.6, 0.5, math.pi**2)
        with pytest.raises(ValueError):
            select_params_hp(0.0, 0.5, math.pi**2)

    def test_build_ymesh_roundtrip(self):
        params = select_params_hp(1 / 16, 0.8, 2 * math.pi**2)
        mesh = build_ymesh(params)
        assert mesh.M == params.M
        # sigma=0.125, beta=0.7: p_m = ceil(1 + 0.7*ln(h_m/h_1)) with h_2/h_1 = 7, h_3/h_1 = 56
        assert mesh.degrees == (1, 3, 4)
        params_h = select_params_h(1 / 16, 0.8, 2 * math.pi**2)
        mesh_h = build_ymesh(params_h)
        assert mesh_h.degrees == (1,) * params_h.M


def _assembly_peak(params, alpha: float) -> int:
    """Traced peak bytes of building the level's y-mesh and assembling its
    element matrices."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assemble_weighted_matrices(build_ymesh(params), alpha=alpha)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _no_nodes(*args):
    raise AssertionError("nodes built")


class TestStorageEstimate:
    @pytest.mark.parametrize("scheme", ["hfem", "hpfem"])
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("h", [1 / 8, 1 / 64, 1 / 1024])
    @pytest.mark.parametrize("m_mult,sigma,beta", [(1.0, 0.125, 0.7), (3.0, 0.125, 0.7),
                                                   (2.0, 0.6, 2.0), (1.0, 0.95, 0.3)])
    def test_is_a_lower_bound_on_the_assembly_peak(self, scheme, s, h, m_mult, sigma, beta):
        if scheme == "hfem":
            params = select_params_h(h, s, math.pi**2, m_mult=m_mult)
        else:
            params = select_params_hp(h, s, math.pi**2, sigma=sigma, beta=beta, m_mult=m_mult)
        mesh = build_ymesh(params)
        kept = params.M * meshing._NODE_BYTES + 16 * sum((p + 1) ** 2 for p in mesh.degrees)
        need = y_storage_bytes(params)
        assert 0.5 * kept <= need
        try:
            assert need <= _assembly_peak(params, 1.0 - 2.0 * s)
        except MeshError:
            # no weighted rule reaches degree 176 (hp s=0.2 h=1/1024 sigma=0.6
            # beta=2): the level fails before it holds its element matrices
            assert max(mesh.degrees) >= 176

    @pytest.mark.parametrize("s", [0.5, 0.2])
    def test_level_whose_assembly_outgrows_memory_is_rejected_before_its_nodes(self,
                                                                               monkeypatch, s):
        # h-FEM M = 2e4 keeps 112 bytes per element (nodes, degrees, group
        # indices and element matrices); building and assembling it peaks at
        # 261 (s=0.5) and 253 (s=0.2) bytes per element, and the estimate
        # counts 200 of them. Memory of 150 bytes per element holds what the
        # level keeps, but not its assembly
        params = select_params_h(1 / 8, s, math.pi**2, m_mult=2500)
        M = params.M
        assert M == 20_000
        peak = _assembly_peak(params, 1.0 - 2.0 * s)
        assert 180 * M <= y_storage_bytes(params) <= peak
        have = 150 * M
        assert 112 * M < have < peak
        monkeypatch.setattr(meshing, "physical_memory_bytes", lambda: have)
        monkeypatch.setattr(meshing, "graded_mesh", _no_nodes)
        with pytest.raises(MeshError, match=r"^M = 20000 elements keep at least 3\.99e\+06 bytes"):
            build_ymesh(params)

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_assembly_floor_is_counted(self, monkeypatch, s):
        # h-FEM M = 2e4: the estimate counts 199.5 bytes per element of the
        # 253-262 traced, where it counted 188 (3.75e6 bytes). Memory of 195
        # bytes per element passed the old count, and the level then
        # outgrew it while it was assembled
        params = select_params_h(1 / 8, s, math.pi**2, m_mult=2500)
        M = params.M
        assert M == 20_000
        need = y_storage_bytes(params)
        assert 199 * M <= need <= _assembly_peak(params, 1.0 - 2.0 * s)
        have = 195 * M
        assert 3.76e6 < have < need
        monkeypatch.setattr(meshing, "physical_memory_bytes", lambda: have)
        monkeypatch.setattr(meshing, "graded_mesh", _no_nodes)
        with pytest.raises(MeshError, match=r"^M = 20000 elements keep at least 3\.99e\+06 bytes "
                                            r"while the extended direction is assembled, more "
                                            r"than the 3\.9e\+06 bytes"):
            build_ymesh(params)

    def test_level_beyond_physical_memory_is_rejected_before_its_nodes(self, monkeypatch):
        params = select_params_h(1 / 8, 0.5, math.pi**2)
        monkeypatch.setattr(meshing, "physical_memory_bytes", lambda: 800)
        monkeypatch.setattr(meshing, "graded_mesh", _no_nodes)
        with pytest.raises(MeshError, match=r"^M = 8 elements keep at least 1\.28e\+03 bytes while "
                                            r"the extended direction is assembled, more than the "
                                            r"800 bytes"):
            build_ymesh(params)

    @pytest.mark.parametrize("beta", [1e154, 1e300])
    def test_huge_beta_is_rejected_before_its_nodes(self, monkeypatch, beta):
        # the closed-form degree sums overflow to inf - inf, a NaN estimate
        # that passed the check (beta = 1e100 still gives a finite 9.2e202)
        params = select_params_hp(1 / 8, 0.5, math.pi**2, beta=beta)
        monkeypatch.setattr(meshing, "physical_memory_bytes", lambda: 8_410_000_000)
        monkeypatch.setattr(meshing, "geometric_mesh", _no_nodes)
        with pytest.raises(MeshError, match=r"^M = 4 elements keep at least inf bytes while the "
                                            r"extended direction is assembled"):
            build_ymesh(params)
