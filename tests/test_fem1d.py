import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg
from scipy.special import roots_jacobi

from fracdiff import fem1d
from fracdiff.fem1d import YDofMap, assemble_weighted_matrices, weighted_rule
from fracdiff.meshing import (
    MeshError,
    YMesh,
    build_ymesh,
    graded_mesh,
    hp_mesh,
    select_params_h,
    select_params_hp,
)
from oracles import (
    PsiProfile,
    _gauss_lobatto_reference,
    eval_in_VM,
    gauss_lobatto_points,
    interpolate_iyp,
    psi,
    psi_prime,
    shape_derivatives,
    shape_values,
)
from y_reference import element_loop_assembly, legendre_shapes


def single_element_mesh():
    return YMesh(nodes=(0.0, 1.0), degrees=(1,))


def uniform_mesh(M, Y=1.0, degrees=None):
    nodes = tuple(Y * m / M for m in range(M + 1))
    return YMesh(nodes=nodes, degrees=degrees or (1,) * M)


def prefix_sum_dofs(degrees, m):
    """Global dofs and local basis rows of element ``m`` (1-based) by the
    numbering contract: vertices first, the top one constrained, then the
    bumps of each element in turn."""
    M, p = len(degrees), degrees[m - 1]
    first_bump = M + sum(q - 1 for q in degrees[: m - 1])
    verts, local = ([m - 1, m], [0, 1]) if m < M else ([m - 1], [0])
    return verts + list(range(first_bump, first_bump + p - 1)), local + list(range(2, p + 1))


class TestGaussLobatto:
    def test_degree_one(self):
        assert np.allclose(gauss_lobatto_points(1, (0.0, 1.0)), [0.0, 1.0])

    def test_degree_two_midpoint(self):
        assert np.allclose(gauss_lobatto_points(2, (0.0, 1.0)), [0.0, 0.5, 1.0], atol=1e-15)

    def test_degree_four_interior(self):
        pts = gauss_lobatto_points(4)
        want = math.sqrt(3.0 / 7.0)
        assert np.allclose(pts, [-1.0, -want, 0.0, want, 1.0], atol=1e-14)

    @pytest.mark.parametrize("q", range(2, 13))
    def test_interior_points_are_legendre_derivative_roots(self, q):
        # companion-matrix root finder as the independent oracle
        coeffs = np.zeros(q + 1)
        coeffs[q] = 1.0
        want = np.sort(npleg.legroots(npleg.legder(coeffs)))
        got = gauss_lobatto_points(q)[1:-1]
        assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("q", range(2, 41))
    def test_lobatto_rule_is_exact_to_degree_2q_minus_1(self, q):
        # the Lobatto rule on these nodes, with weights 2/(q(q+1) P_q(x_i)**2)
        # from numpy's Legendre series, integrates x**k exactly for k <= 2q-1
        x = gauss_lobatto_points(q)
        P_q = npleg.legval(x, np.eye(q + 1)[q])
        w = 2.0 / (q * (q + 1) * P_q**2)
        for k in range(2 * q):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ x**k - exact) < 1e-13

    @pytest.mark.parametrize("q", range(1, 11))
    def test_symmetry(self, q):
        pts = gauss_lobatto_points(q, (0.3, 1.1))
        assert np.max(np.abs((pts + pts[::-1]) - 1.4)) < 1e-14


def decimal_jacobi_rule(n, alpha, start, digits=40):
    """Nodes and weights of the ``n``-point Gauss-Jacobi rule for the weight
    ``(1+x)**alpha`` in ``digits``-digit decimals: two Newton steps on the
    recurrence of ``P_n^{(0, alpha)}`` from the nodes ``start``, and the
    weights ``2**(alpha+1) / ((1 - x**2) P_n'(x)**2)`` with the exact
    constant."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        a = decimal.Decimal(float(alpha))
        steps = []
        for k in range(2, n + 1):
            c = 2 * k + a
            steps.append(((c - 1) * c * (c - 2), -(c - 1) * a * a, 2 * (k - 1) * (k + a - 1) * c,
                          2 * k * (k + a) * (c - 2)))

        def values(x):
            p0, p1 = decimal.Decimal(1), (-a + (a + 2) * x) / 2
            d0, d1 = decimal.Decimal(0), (a + 2) / 2
            for lead, shift, back, norm in steps:
                d0, d1 = d1, ((lead * x + shift) * d1 + lead * p1 - back * d0) / norm
                p0, p1 = p1, ((lead * x + shift) * p1 - back * p0) / norm
            return p1, d1

        nodes, weights = [], []
        for x in map(decimal.Decimal, map(float, start)):
            for _ in range(2):
                p, dp = values(x)
                x -= p / dp
            dp = values(x)[1]
            nodes.append(float(x))
            weights.append(float(2 ** (a + 1) / ((1 - x) * (1 + x) * dp * dp)))
    return np.array(nodes), np.array(weights)


class TestGaussJacobi:
    """The numpy Gauss-Jacobi rule of the first y-element and of the
    Gauss-Lobatto points."""

    @pytest.mark.parametrize("alpha", [-0.99, -0.75, -0.4, 0.0, 0.4, 0.75, 0.99])
    def test_nodes_match_scipy(self, alpha):
        for n in [*range(1, 21), *range(27, 101, 7), 100]:
            got = fem1d._gauss_jacobi(n, 0.0, alpha)[0]
            assert np.max(np.abs(got - roots_jacobi(n, 0.0, alpha)[0])) <= 1e-14

    @pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.5, 0.99])
    def test_weights_match_a_40_digit_reference(self, alpha):
        # worst measured 2.3e-13 relative; the derivative formula at the same
        # nodes reads up to 3.6e-12 here, and scipy.special.roots_jacobi,
        # which takes P_n' before its Newton step, up to 2e-9
        for n in (1, 2, 5, 21, 100):
            x, w = fem1d._gauss_jacobi(n, 0.0, alpha)
            want_x, want_w = decimal_jacobi_rule(n, alpha, x)
            assert np.max(np.abs(x - want_x)) <= 1e-15
            assert np.max(np.abs(w - want_w) / want_w) <= 1e-12
            assert abs(w.sum() - 2 ** (alpha + 1) / (alpha + 1)) <= 1e-12 * w.sum()

    @pytest.mark.parametrize("q", range(2, 41))
    def test_lobatto_nodes_match_scipy(self, q):
        want = roots_jacobi(q - 1, 1.0, 1.0)[0]
        assert np.max(np.abs(_gauss_lobatto_reference(q)[1:-1] - want)) <= 1e-14


class TestShapeBasis:
    @pytest.mark.parametrize("q", [1, 2, 5, 12])
    def test_count_and_endpoint_values(self, q):
        t = np.array([0.0, 1.0])
        vals = shape_values(q, t)
        assert vals.shape == (q + 1, 2)
        assert np.allclose(vals[0], [1.0, 0.0])
        assert np.allclose(vals[1], [0.0, 1.0])
        for k in range(2, q + 1):
            assert np.allclose(vals[k], 0.0, atol=1e-14)

    def test_vertex_partition_of_unity(self):
        t = np.linspace(0, 1, 17)
        vals = shape_values(3, t)
        assert np.allclose(vals[0] + vals[1], 1.0, atol=1e-15)

    @pytest.mark.parametrize("q", [2, 4, 9])
    def test_derivatives_match_finite_differences(self, q):
        t = np.linspace(0.05, 0.95, 7)
        h = 1e-6
        got = shape_derivatives(q, t)
        fd = (shape_values(q, t + h) - shape_values(q, t - h)) / (2 * h)
        assert np.max(np.abs(got - fd)) < 1e-7


class TestWeightedRule:
    @pytest.mark.parametrize("alpha", [-0.6, 0.0, 0.6])
    @pytest.mark.parametrize(
        "mesh",
        [
            graded_mesh(12, 0.16, 1.5),
            graded_mesh(20, 0.64, 2.0),
            hp_mesh(8, 0.125, 2.0, 0.7),
        ],
        ids=["graded-strong", "graded-mild", "geometric"],
    )
    def test_monomial_exactness(self, alpha, mesh):
        pmax = max(mesh.degrees)
        nodes = np.asarray(mesh.nodes)
        for m in range(1, mesh.M + 1):
            a, b = nodes[m - 1], nodes[m]
            pts, wts = weighted_rule(a, b, alpha, 2 * pmax)
            for j in range(2 * pmax + 1):
                got = float(wts @ pts**j)
                want = (b ** (alpha + j + 1) - a ** (alpha + j + 1)) / (alpha + j + 1)
                assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("alpha", [-0.96, 0.0, 0.96])
    def test_end_ratio_below_eps(self, alpha):
        # ln(rho) of the analyticity estimate must not cancel to 0 when a/b < eps
        a, b = 1e-20, 1.0
        pts, wts = weighted_rule(a, b, alpha, 4)
        for j in range(5):
            want = (b ** (alpha + j + 1) - a ** (alpha + j + 1)) / (alpha + j + 1)
            assert abs(float(wts @ pts**j) - want) <= 1e-13 * abs(want)

    def test_split_depth_is_bounded(self):
        # splitting lowers only the analyticity part of the point count, never
        # the p + 1 points of exactness: degree 175 fits 256 geometric pieces,
        # degree 176 does not
        pts, _ = weighted_rule(0.125, 1.0, 0.3, 2 * 175)
        assert pts.size == 2**fem1d._MAX_SPLIT_DEPTH * fem1d._MAX_GL_POINTS
        with pytest.raises(MeshError, match="needs more than 256 geometric pieces"):
            weighted_rule(0.125, 1.0, 0.3, 2 * 176)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            weighted_rule(1.0, 0.5, 0.0, 2)
        with pytest.raises(ValueError):
            weighted_rule(0.0, 1.0, 1.5, 2)


class TestAssembly:
    def test_single_element_unweighted(self):
        W = assemble_weighted_matrices(single_element_mesh(), alpha=0.0)
        assert W.B_mass.toarray()[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert W.B_stiff.toarray()[0, 0] == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.37, -0.5, 0.8])
    def test_single_element_weighted_closed_form(self, alpha):
        # moments of (1-y)^2 and 1 against y^alpha on (0,1)
        W = assemble_weighted_matrices(single_element_mesh(), alpha=alpha)
        mass = 2.0 / ((alpha + 1) * (alpha + 2) * (alpha + 3))
        stiff = 1.0 / (alpha + 1)
        assert W.B_mass.toarray()[0, 0] == pytest.approx(mass, rel=1e-14)
        assert W.B_stiff.toarray()[0, 0] == pytest.approx(stiff, rel=1e-14)

    def test_two_element_uniform_textbook_values(self):
        h = 0.5
        W = assemble_weighted_matrices(uniform_mesh(2), alpha=0.0)
        mass = np.array([[2 * h / 6, h / 6], [h / 6, 4 * h / 6]])
        stiff = np.array([[1 / h, -1 / h], [-1 / h, 2 / h]])
        assert W.B_mass.toarray() == pytest.approx(mass, rel=1e-14)
        assert W.B_stiff.toarray() == pytest.approx(stiff, rel=1e-14)

    def _plain_gauss_assembly(self, mesh):
        # independent unweighted assembly with plain Gauss-Legendre rules
        dofmap = YDofMap(degrees=tuple(mesh.degrees))
        n = dofmap.n_dofs
        # one more row and column for the constrained top vertex (-1), dropped
        mass = np.zeros((n + 1, n + 1))
        stiff = np.zeros((n + 1, n + 1))
        nodes = np.asarray(mesh.nodes)
        for m in range(1, mesh.M + 1):
            a, b = nodes[m - 1], nodes[m]
            p = mesh.degrees[m - 1]
            x, w = npleg.leggauss(p + 6)
            t = (x + 1) / 2
            wl = w * (b - a) / 2
            B = shape_values(p, t)
            D = shape_derivatives(p, t) / (b - a)
            table = dofmap.element_table([m])[0]
            mass[np.ix_(table, table)] += (B * wl) @ B.T
            stiff[np.ix_(table, table)] += (D * wl) @ D.T
        return mass[:n, :n], stiff[:n, :n]

    def test_unweighted_matches_plain_gauss_oracle(self):
        mesh = hp_mesh(6, 0.125, 2.0, 0.7)
        W = assemble_weighted_matrices(mesh, alpha=0.0)
        mass, stiff = self._plain_gauss_assembly(mesh)
        assert np.max(np.abs(W.B_mass.toarray() - mass)) <= 1e-12 * np.abs(mass).max()
        assert np.max(np.abs(W.B_stiff.toarray() - stiff)) <= 1e-12 * np.abs(stiff).max()

    @pytest.mark.parametrize("alpha", [-0.6, 0.0, 0.6])
    def test_symmetry_and_definiteness(self, alpha):
        mesh = hp_mesh(7, 0.125, 1.7, 0.7)
        W = assemble_weighted_matrices(mesh, alpha=alpha)
        Bm, Bs = W.B_mass.toarray(), W.B_stiff.toarray()
        assert np.max(np.abs(Bm - Bm.T)) <= 1e-14 * np.abs(Bm).max()
        assert np.max(np.abs(Bs - Bs.T)) <= 1e-14 * np.abs(Bs).max()
        np.linalg.cholesky(Bm)
        np.linalg.cholesky(Bs)  # positive definite thanks to the top constraint

    @pytest.mark.parametrize("alpha", [-0.6, 0.6])
    def test_graded_mesh_definiteness(self, alpha):
        mesh = graded_mesh(14, 0.2, 1.3)
        W = assemble_weighted_matrices(mesh, alpha=alpha)
        np.linalg.cholesky(W.B_mass.toarray())

    def test_assembled_matrices_follow_the_element_groups(self):
        W = assemble_weighted_matrices(hp_mesh(4, 0.125, 2.0, 0.7), alpha=0.3)
        assert W.B_mass is W.B_mass  # derived once
        flipped = replace(W, groups=tuple((ms, mass, -stiff) for ms, mass, stiff in W.groups))
        assert (flipped.B_stiff != -W.B_stiff).nnz == 0
        assert (flipped.B_mass != W.B_mass).nnz == 0

    @pytest.mark.parametrize("mesh,element", [
        (YMesh(nodes=(0.0, 1.0, 1e300), degrees=(1, 2)), 2),
        (hp_mesh(4, 0.125, 1e300, 0.7), 1),
    ], ids=["top-element", "every-element"])
    def test_non_finite_element_matrices_name_the_element(self, mesh, element):
        # y**0.5 times a width near 1e300 overflows; no RuntimeWarning escapes
        with pytest.raises(MeshError, match=rf"^element {element}: the weighted element "
                                            r"matrices on \[.*\] are not finite"):
            assemble_weighted_matrices(mesh, alpha=0.5)


# a geometric ratio so small that every element above y_1 needs split rules
SPLIT_MESH = hp_mesh(5, 1e-4, 1.5, 0.7)


class TestAssemblyAgainstElementLoop:
    """The grouped assembly against a plain loop over elements, each with
    its own :func:`weighted_rule`."""

    @staticmethod
    def element_loop(mesh, alpha):
        degs = tuple(mesh.degrees)
        n = sum(degs)
        mass, stiff = np.zeros((n, n)), np.zeros((n, n))
        nodes = np.asarray(mesh.nodes)
        for m in range(1, mesh.M + 1):
            a, b = nodes[m - 1], nodes[m]
            p = degs[m - 1]
            pts, wts = weighted_rule(a, b, alpha, 2 * p)
            t = (pts - a) / (b - a)
            glob, local = prefix_sum_dofs(degs, m)
            B = shape_values(p, t)[local]
            D = shape_derivatives(p, t)[local] / (b - a)
            mass[np.ix_(glob, glob)] += (B * wts) @ B.T
            stiff[np.ix_(glob, glob)] += (D * wts) @ D.T
        return mass, stiff

    @staticmethod
    def scaled_difference(A, R):
        # entries relative to the diagonal, which bounds them for SPD R
        d = np.sqrt(np.diag(R))
        return np.max(np.abs(A - R) / np.outer(d, d))

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.9])
    @pytest.mark.parametrize(
        "mesh",
        [
            build_ymesh(select_params_h(1 / 1024, 0.2, math.pi**2)),
            hp_mesh(8, 0.125, 2.0, 0.7),
            build_ymesh(select_params_hp(1 / 256, 0.2, math.pi**2)),
            SPLIT_MESH,
            single_element_mesh(),
            YMesh(nodes=(0.0, 2.0), degrees=(5,)),
        ],
        ids=["hfem-s0.2-n1024", "hp-M8", "hp-s0.2-n256", "geometric-split", "M1-p1", "M1-p5"],
    )
    def test_matches_element_loop(self, mesh, alpha):
        W = assemble_weighted_matrices(mesh, alpha=alpha)
        mass, stiff = self.element_loop(mesh, alpha)
        assert self.scaled_difference(W.B_mass.toarray(), mass) <= 1e-13
        assert self.scaled_difference(W.B_stiff.toarray(), stiff) <= 1e-13

    def test_split_beyond_depth_names_the_element(self, monkeypatch):
        # depth 0 forbids the first split, which SPLIT_MESH needs above y_1
        monkeypatch.setattr(fem1d, "_MAX_SPLIT_DEPTH", 0)
        with pytest.raises(MeshError, match=r"^element 2: weighted rule on \["):
            assemble_weighted_matrices(SPLIT_MESH, alpha=0.3)


def _same_groups(got, want):
    assert len(got.groups) == len(want.groups)
    for (ms, mass, stiff), (ms_w, mass_w, stiff_w) in zip(got.groups, want.groups):
        assert ms.tobytes() == ms_w.tobytes()
        assert mass.tobytes() == mass_w.tobytes()
        assert stiff.tobytes() == stiff_w.tobytes()


class TestAssemblyAgainstPerElementReference:
    """Array point counts and grouping, and shape tables cut from one
    Legendre table, against the per-element loop of ``y_reference``:
    bitwise the same groups, in the same order."""

    MESHES = {
        "graded": graded_mesh(14, 0.2, 1.3),
        "hfem-s0.2-n1024": build_ymesh(select_params_h(1 / 1024, 0.2, math.pi**2)),
        "hp": hp_mesh(8, 0.125, 2.0, 0.7),
        "hp-many-bumps": hp_mesh(6, 0.125, 2.0, 2.0),
        "hp-s0.2-n256": build_ymesh(select_params_hp(1 / 256, 0.2, math.pi**2)),
        "geometric-split": SPLIT_MESH,
        "M1-p5": YMesh(nodes=(0.0, 2.0), degrees=(5,)),
        # 23/ln(rho) of the second element is within a bit of 18, and
        # numpy's log1p (not the C library's) would round it above
        "count-at-an-integer": YMesh(nodes=(0.0, 1.0, 3.142116680056627), degrees=(1, 2)),
    }

    @pytest.mark.parametrize("table_bytes", [None, 1, 40_000], ids=["one-chunk", "rule-chunks",
                                                                    "several-chunks"])
    @pytest.mark.parametrize("alpha", [-0.6, 0.6])
    @pytest.mark.parametrize("name", list(MESHES))
    def test_groups_are_bitwise_the_element_loop(self, monkeypatch, name, alpha, table_bytes):
        mesh = self.MESHES[name]
        if table_bytes is not None:
            monkeypatch.setattr(fem1d, "_TABLE_BYTES", table_bytes)
        _same_groups(assemble_weighted_matrices(mesh, alpha=alpha),
                     element_loop_assembly(mesh, alpha))

    @pytest.mark.parametrize("table_bytes,chunks", [(1, 24), (40_000, 7), (1 << 40, 1)])
    def test_table_budget_sets_the_chunks(self, table_bytes, chunks, monkeypatch):
        # hp s=0.2 n=256: 24 elements of distinct degrees 1..35, a rule each;
        # a rule larger than the budget is a chunk of its own
        mesh = self.MESHES["hp-s0.2-n256"]
        monkeypatch.setattr(fem1d, "_TABLE_BYTES", table_bytes)
        degrees = np.asarray(mesh.degrees)
        rules = fem1d._element_rules(np.asarray(mesh.nodes), degrees, 0.6)
        assert len(rules) == 24
        assert len(list(fem1d._table_chunks(rules, degrees))) == chunks

    @pytest.mark.parametrize("q", [1, 2, 3, 7, 26])
    def test_shape_tables_are_bitwise_one_legvander_each(self, q):
        t = np.random.default_rng(q).random(40)
        B, D = legendre_shapes(q, t)
        assert shape_values(q, t).tobytes() == B.tobytes()
        assert shape_derivatives(q, t).tobytes() == D.tobytes()


class TestDofMap:
    @settings(max_examples=100, deadline=None)
    @given(degrees=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=12))
    def test_matches_prefix_sum_numbering(self, degrees):
        dofmap = YDofMap(degrees=tuple(degrees))
        covered = []
        for m in range(1, len(degrees) + 1):
            table = dofmap.element_table([m])[0]
            want_glob, want_local = prefix_sum_dofs(degrees, m)
            assert table[table >= 0].tolist() == want_glob
            assert np.flatnonzero(table >= 0).tolist() == want_local
            covered += want_glob
        # every dof once, except the interior vertices shared by two elements
        counts = np.bincount(covered, minlength=dofmap.n_dofs)
        assert counts.size == dofmap.n_dofs
        want = np.ones(dofmap.n_dofs, dtype=int)
        want[1 : len(degrees)] = 2
        assert counts.tolist() == want.tolist()


class TestInterpolation:
    def test_constant_function(self):
        mesh = uniform_mesh(3, Y=1.5, degrees=(1, 2, 2))
        coeffs = interpolate_iyp(lambda y: 1.0, mesh)
        assert eval_in_VM(mesh, coeffs, 0.2) == pytest.approx(1.0, abs=1e-14)
        assert eval_in_VM(mesh, coeffs, 0.7) == pytest.approx(1.0, abs=1e-14)
        assert eval_in_VM(mesh, coeffs, 1.5) == pytest.approx(0.0, abs=1e-14)

    def test_interior_polynomial_reproduction(self):
        rng = np.random.default_rng(3)
        mesh = uniform_mesh(4, Y=2.0, degrees=(1, 3, 3, 2))
        coeffs = rng.standard_normal(4)
        poly = np.polynomial.Polynomial(coeffs)
        interp = interpolate_iyp(poly, mesh)
        ys = np.linspace(1.01, 1.49, 9)  # strictly inside the third element
        assert np.max(np.abs(eval_in_VM(mesh, interp, ys) - poly(ys))) < 1e-12

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("mesh", [
        hp_mesh(8, 0.125, 2.0, 0.7),
        hp_mesh(10, 0.125, 2.0, 3.5),  # interior degrees up to 59
        build_ymesh(select_params_h(1 / 64, 0.3, math.pi**2)),
    ], ids=["hp-M8", "hp-p59", "hfem"])
    def test_coefficients_reproduce_samples_at_gauss_lobatto_points(self, s, mesh):
        # one value per y-dof, and the expansion takes the sampled values at
        # every Gauss-Lobatto point of each interior element
        profile = PsiProfile(s)
        xi = lambda y: psi(profile, math.pi * y)
        coeffs = interpolate_iyp(xi, mesh)
        assert coeffs.shape == (sum(mesh.degrees),)
        nodes = np.asarray(mesh.nodes)
        for m in range(2, mesh.M):
            gl = gauss_lobatto_points(mesh.degrees[m - 1], (nodes[m - 1], nodes[m]))
            want = np.array([xi(y) for y in gl])
            assert np.max(np.abs(eval_in_VM(mesh, coeffs, gl) - want)) <= 1e-13

    def test_vanishes_at_top_and_connects_continuously(self):
        mesh = hp_mesh(5, 0.125, 2.0, 0.7)
        profile = PsiProfile(0.6)
        coeffs = interpolate_iyp(lambda y: psi(profile, 2.0 * y), mesh)
        assert eval_in_VM(mesh, coeffs, mesh.Y) == pytest.approx(0.0, abs=1e-13)
        for node in np.asarray(mesh.nodes)[1:-1]:
            left = eval_in_VM(mesh, coeffs, node - 1e-11)
            right = eval_in_VM(mesh, coeffs, node + 1e-11)
            assert left == pytest.approx(right, abs=1e-8)

    def test_first_element_carries_first_node_value(self):
        mesh = hp_mesh(4, 0.25, 1.0, 0.7)
        profile = PsiProfile(0.4)
        coeffs = interpolate_iyp(lambda y: psi(profile, 3.0 * y), mesh)
        want = psi(profile, 3.0 * mesh.nodes[1])
        ys = np.linspace(0.0, mesh.nodes[1], 5)
        assert np.max(np.abs(eval_in_VM(mesh, coeffs, ys) - want)) < 1e-13

    def test_profile_error_decreases_with_degree_elevation(self):
        # weighted H1-seminorm error on interior elements shrinks when every
        # element degree is raised
        mesh = hp_mesh(5, 0.125, 2.0, 0.7)
        raised = YMesh(nodes=mesh.nodes, degrees=tuple(p + 1 for p in mesh.degrees))
        profile = PsiProfile(0.7)
        root = math.sqrt(2 * math.pi**2)
        xi = lambda y: psi(profile, root * y)
        alpha = 1 - 2 * 0.7

        def interior_error(msh):
            coeffs = interpolate_iyp(xi, msh)
            dofmap = YDofMap(degrees=msh.degrees)
            nodes = np.asarray(msh.nodes)
            total = 0.0
            for m in range(2, msh.M):
                a, b = nodes[m - 1], nodes[m]
                pts, wts = weighted_rule(a, b, alpha, 2 * max(msh.degrees) + 24)
                glob = dofmap.element_table([m])[0]  # m < M: no constrained vertex
                D = shape_derivatives(msh.degrees[m - 1], (pts - a) / (b - a))
                exact_d = root * psi_prime(profile, root * pts)
                total += float(wts @ (exact_d - coeffs[glob] @ D / (b - a)) ** 2)
            return math.sqrt(total)

        assert interior_error(raised) < interior_error(mesh)

    def test_single_element_mesh_truncation(self):
        mesh = YMesh(nodes=(0.0, 1.0), degrees=(3,))
        coeffs = interpolate_iyp(lambda y: 1.0, mesh)
        assert eval_in_VM(mesh, coeffs, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert eval_in_VM(mesh, coeffs, 0.0) == pytest.approx(1.0, abs=1e-14)


class TestLagrangeBasisBound:
    @pytest.mark.parametrize("q", range(2, 11))
    def test_max_unity_on_element(self, q):
        # Lagrange basis at Gauss-Lobatto nodes stays below 1 in magnitude;
        # sampled strictly between nodes (at nodes the values are 0 or 1)
        a, b = 0.7, 2.1
        nodes = gauss_lobatto_points(q, (a, b))
        weights = np.array(
            [1.0 / np.prod(nodes[i] - np.delete(nodes, i)) for i in range(q + 1)]
        )
        ys = (np.linspace(a, b, 2003)[1:-1] + 0.5 * (b - a) * 1e-7)[:-1]
        diff = ys[None, :] - nodes[:, None]
        assert np.min(np.abs(diff)) > 0
        terms = weights[:, None] / diff
        vals = terms / terms.sum(axis=0)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-10


class TestEvalInVM:
    def test_zero_coefficients(self):
        mesh = uniform_mesh(3)
        ys = np.linspace(0, 1, 11)
        assert np.all(eval_in_VM(mesh, np.zeros(3), ys) == 0.0)

    def test_bottom_vertex_hat(self):
        mesh = graded_mesh(4, 0.5, 1.0)
        coeffs = np.zeros(4)
        coeffs[0] = 1.0
        assert eval_in_VM(mesh, coeffs, 0.0) == pytest.approx(1.0)
        assert eval_in_VM(mesh, coeffs, mesh.nodes[1]) == pytest.approx(0.0, abs=1e-15)
        assert eval_in_VM(mesh, coeffs, 0.9) == pytest.approx(0.0, abs=1e-15)

    def test_nodal_values_match_vertex_dofs(self):
        rng = np.random.default_rng(11)
        mesh = hp_mesh(4, 0.2, 1.0, 0.9)
        dofmap = YDofMap(degrees=tuple(mesh.degrees))
        coeffs = rng.standard_normal(dofmap.n_dofs)
        for m in range(mesh.M):
            # bumps vanish at nodes, so the value is the vertex coefficient
            assert eval_in_VM(mesh, coeffs, mesh.nodes[m]) == pytest.approx(
                coeffs[m], rel=1e-12
            )
        assert eval_in_VM(mesh, coeffs, mesh.Y) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range(self):
        mesh = uniform_mesh(2)
        with pytest.raises(ValueError):
            eval_in_VM(mesh, np.zeros(2), 1.2)
