"""One-dimensional hp finite elements on the extended direction with the
degenerate weight ``y**alpha``.

Trial functions are hierarchical Lobatto shape functions on each element
(vertex hats plus integrated-Legendre bumps); the discrete space constrains
the value at the top of the interval to zero. The module assembles the
weighted mass and stiffness matrices, provides Gauss-Lobatto nodes, the
nodal interpolation operator used for verification, and point evaluation of
hierarchical expansions.

Degrees of freedom are ordered vertex dofs first (by node index, the vertex
at the top excluded), then per-element bump dofs by element and degree. The
single dof supported at ``y = 0`` is therefore dof 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy import sparse
from scipy.special import eval_legendre, roots_jacobi

from .meshing import MeshError, YMesh

# Gauss-Legendre rules are enlarged until the analyticity estimate for the
# weight puts the truncation error below 1e-20; elements too close to the
# singularity for a single rule are split geometrically, into at most
# 2**_MAX_SPLIT_DEPTH pieces, which bounds the rule at 46,080 points.
_MAX_GL_POINTS = 180
_LOG_TARGET = 46.0  # -ln(1e-20)
_MAX_SPLIT_DEPTH = 8


class QuadratureError(RuntimeError):
    """Raised when a weighted element rule cannot be constructed."""


def shape_values(q: int, t) -> np.ndarray:
    """Hierarchical shape functions on the reference element ``(0, 1)``.

    Returns an array of shape ``(q+1, len(t))``: rows 0 and 1 are the vertex
    functions ``1-t`` and ``t``; row ``k >= 2`` is the integrated-Legendre
    bump of degree ``k``, vanishing at both endpoints.
    """
    if q < 1:
        raise ValueError("element degree must be >= 1")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = 2.0 * t - 1.0
    out = np.empty((q + 1, t.size))
    out[0] = 1.0 - t
    out[1] = t
    if q >= 2:
        V = npleg.legvander(x, q)  # columns P_0..P_q
        k = np.arange(2, q + 1)
        out[2:] = ((V[:, 2:] - V[:, :-2]) / np.sqrt(2.0 * (2.0 * k - 1.0))).T
    return out


def shape_derivatives(q: int, t) -> np.ndarray:
    """Reference-element derivatives of :func:`shape_values`."""
    if q < 1:
        raise ValueError("element degree must be >= 1")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = 2.0 * t - 1.0
    out = np.empty((q + 1, t.size))
    out[0] = -1.0
    out[1] = 1.0
    if q >= 2:
        V = npleg.legvander(x, q - 1)
        k = np.arange(2, q + 1)
        out[2:] = (np.sqrt(2.0 * (2.0 * k - 1.0)) * V[:, 1:]).T
    return out


def gauss_lobatto_points(q: int, interval=(-1.0, 1.0)) -> np.ndarray:
    """The ``q+1`` Gauss-Lobatto points of degree ``q`` on ``[a, b]``.

    Endpoints included; the interior points are the roots of the derivative
    of the Legendre polynomial of degree ``q``, found by Newton iteration
    from Chebyshev initial guesses. Symmetric about the midpoint.
    """
    a, b = float(interval[0]), float(interval[1])
    if q < 1:
        raise ValueError("Gauss-Lobatto degree must be >= 1")
    if not b > a:
        raise ValueError("empty interval")
    x = _gauss_lobatto_reference(q)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid + half * x
    pts[0], pts[-1] = a, b
    return pts


@lru_cache(maxsize=None)
def _gauss_lobatto_reference(q: int) -> np.ndarray:
    if q == 1:
        return np.array([-1.0, 1.0])
    x = -np.cos(np.pi * np.arange(1, q) / q)
    for _ in range(100):
        p = eval_legendre(q, x)
        pm = eval_legendre(q - 1, x)
        omx2 = 1.0 - x * x
        dp = q * (pm - x * p) / omx2
        ddp = (2.0 * x * dp - q * (q + 1) * p) / omx2
        step = dp / ddp
        x = x - step
        if np.max(np.abs(step)) < 1e-14:
            break
    x = 0.5 * (x - x[::-1])  # enforce exact symmetry
    return np.concatenate(([-1.0], x, [1.0]))


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return npleg.leggauss(n)


@lru_cache(maxsize=None)
def _jacobi_unit_rule(n: int, alpha: float):
    # nodes/weights with sum(w*g(t)) = int_0^1 t**alpha * g(t) dt
    x, w = roots_jacobi(n, 0.0, alpha)
    return (x + 1.0) / 2.0, w * 2.0 ** (-alpha - 1.0)


def weighted_rule(a: float, b: float, alpha: float, polydeg: int):
    """Quadrature nodes and weights integrating ``y**alpha * f(y)`` over
    ``[a, b]`` exactly (to roundoff) for polynomials ``f`` up to ``polydeg``.

    The weight is absorbed into the returned weights. The first element
    (``a == 0``) uses a Gauss-Jacobi rule, exact for the weight; elements
    away from the singularity use Gauss-Legendre with a point count driven
    by the distance of the singularity from the element, splitting the
    element geometrically when a single rule cannot reach roundoff.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"weight exponent alpha={alpha} must lie in (-1, 1)")
    if not 0.0 <= a < b:
        raise ValueError("invalid element interval")
    if a == 0.0:
        n = polydeg // 2 + 2
        t, w = _jacobi_unit_rule(n, alpha)
        return b * t, b ** (alpha + 1.0) * w
    return _gl_weighted_rule(a, b, alpha, polydeg)


def _gl_point_count(a: float, b: float, polydeg: int) -> int:
    """Gauss-Legendre points for ``y**alpha * f`` on ``[a, b]``, ``a > 0``:
    exactness for ``f`` plus the analyticity estimate for the weight.

    The weight is analytic inside the Bernstein ellipse of parameter
    ``rho = (sqrt(b) + sqrt(a)) / (sqrt(b) - sqrt(a))``; ``ln(rho)`` is formed
    with ``log1p`` so that it stays positive when ``a/b`` is below eps."""
    ra, rb = math.sqrt(a), math.sqrt(b)
    log_rho = math.log1p(2.0 * ra * (ra + rb) / (b - a))
    return polydeg // 2 + 1 + math.ceil(_LOG_TARGET / (2.0 * log_rho))


def _gl_rule(a, b, alpha, n):
    """The ``n``-point Gauss-Legendre rule on ``[a, b]`` with the weight
    absorbed; ``a`` and ``b`` may be ``(E, 1)`` columns, one rule per row."""
    x, w = _leggauss(n)
    pts = a + (x + 1.0) / 2.0 * (b - a)
    return pts, w * (b - a) / 2.0 * pts**alpha


def _gl_weighted_rule(a, b, alpha, polydeg):
    """The rule on the fewest geometric pieces (``2**depth``, all of one end
    ratio, ``depth <= _MAX_SPLIT_DEPTH``) that need at most
    ``_MAX_GL_POINTS`` points each."""
    for depth in range(_MAX_SPLIT_DEPTH + 1):
        cuts = np.geomspace(a, b, 2**depth + 1)
        n = max(_gl_point_count(lo, hi, polydeg) for lo, hi in zip(cuts[:-1], cuts[1:]))
        if n <= _MAX_GL_POINTS:
            pts, wts = _gl_rule(cuts[:-1, None], cuts[1:, None], alpha, n)
            return pts.ravel(), wts.ravel()
        if polydeg // 2 + 2 > _MAX_GL_POINTS:
            break  # splitting lowers only the analyticity part of the count
    raise QuadratureError(
        f"weighted rule on [{a}, {b}] needs more than {2**_MAX_SPLIT_DEPTH} geometric pieces "
        f"of at most {_MAX_GL_POINTS} points (polynomial degree {polydeg})"
    )


@dataclass(frozen=True)
class YDofMap:
    """Global numbering for the constrained hierarchical space."""

    degrees: tuple[int, ...]
    # the bump dofs of element m (1-based) are bump_starts[m-1]:bump_starts[m]
    bump_starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bumps = np.asarray(self.degrees, dtype=np.intp) - 1
        starts = self.M + np.concatenate(([0], np.cumsum(bumps)))
        starts.setflags(write=False)
        object.__setattr__(self, "bump_starts", starts)

    @property
    def M(self) -> int:
        return len(self.degrees)

    @property
    def n_dofs(self) -> int:
        return int(sum(self.degrees))

    def element_table(self, ms) -> np.ndarray:
        """Global dof of every local basis row (vertices 0 and 1, bumps
        ``2..p``) of the elements ``ms`` (1-based, all of one degree ``p``),
        shape ``(len(ms), p+1)``; -1 marks the constrained top vertex."""
        ms = np.asarray(ms, dtype=np.intp)
        p = self.degrees[ms[0] - 1]
        table = np.empty((ms.size, p + 1), dtype=np.intp)
        table[:, 0] = ms - 1
        table[:, 1] = np.where(ms < self.M, ms, -1)
        table[:, 2:] = self.bump_starts[ms - 1, None] + np.arange(p - 1)
        return table

    def element_dofs(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Global dof indices and the local basis rows they correspond to
        for element ``m`` (1-based). The right vertex of the last element is
        constrained and dropped."""
        table = self.element_table([m])[0]
        local = np.flatnonzero(table >= 0)
        return table[local], local


@dataclass(frozen=True)
class WeightedMatrices:
    """Weighted mass/stiffness pair on the constrained space."""

    B_mass: sparse.csr_matrix
    B_stiff: sparse.csr_matrix
    alpha: float
    mesh: YMesh
    dofmap: YDofMap

    @property
    def n_dofs(self) -> int:
        return self.dofmap.n_dofs


def assemble_weighted_matrices(mesh: YMesh, alpha: float = 0.0) -> WeightedMatrices:
    """Assemble ``int y**alpha tau_j tau_l dy`` and
    ``int y**alpha tau_j' tau_l' dy`` over the constrained space.

    Unsplit Gauss-Legendre elements of one degree and one point count share
    their reference nodes and so their shape tables; only the weights
    differ, and each such group is assembled by one stacked contraction. The
    Gauss-Jacobi first element and every split element are groups of one.
    """
    dofmap = YDofMap(degrees=mesh.degrees)
    nodes = np.asarray(mesh.nodes)
    width = np.diff(nodes)
    short = np.flatnonzero(width * width < 1.0 / np.finfo(float).max)
    if short.size:
        m = int(short[0]) + 1
        raise MeshError(f"element {m}: width {width[m - 1]:.2g} is so small that "
                        "the stiffness scale 1/h**2 is not finite")
    groups = []  # (elements, reference nodes t, weights of shape (elements, len(t)))
    shared: dict[tuple[int, int], list[int]] = {}
    for m, p in enumerate(mesh.degrees, start=1):
        a, b = nodes[m - 1], nodes[m]
        points = _gl_point_count(a, b, 2 * p) if a > 0.0 else 0
        if 0 < points <= _MAX_GL_POINTS:
            shared.setdefault((p, points), []).append(m)
            continue
        try:
            pts, wts = weighted_rule(a, b, alpha, 2 * p)
        except QuadratureError as exc:
            raise QuadratureError(f"element {m}: {exc}") from exc
        groups.append((np.array([m]), (pts - a) / (b - a), wts[None, :]))
    for (p, points), ms in shared.items():
        ms = np.array(ms)
        _, wts = _gl_rule(nodes[ms - 1, None], nodes[ms, None], alpha, points)
        groups.append((ms, (_leggauss(points)[0] + 1.0) / 2.0, wts))

    rows, cols, mass_vals, stiff_vals = [], [], [], []
    for ms, t, wts in groups:
        p = mesh.degrees[ms[0] - 1]
        k = p + 1
        B, D = shape_values(p, t), shape_derivatives(p, t)
        h = width[ms - 1]
        mass = (B * wts[:, None, :]) @ B.T
        stiff = ((D * wts[:, None, :]) @ D.T) / (h * h)[:, None, None]
        table = dofmap.element_table(ms)
        gi, gj = np.repeat(table, k, axis=1).ravel(), np.tile(table, k).ravel()
        keep = (gi >= 0) & (gj >= 0)
        rows.append(gi[keep])
        cols.append(gj[keep])
        mass_vals.append(mass.ravel()[keep])
        stiff_vals.append(stiff.ravel()[keep])
    n = dofmap.n_dofs
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    B_mass = sparse.coo_matrix((np.concatenate(mass_vals), (rows, cols)), shape=(n, n)).tocsr()
    B_stiff = sparse.coo_matrix((np.concatenate(stiff_vals), (rows, cols)), shape=(n, n)).tocsr()
    return WeightedMatrices(B_mass=B_mass, B_stiff=B_stiff, alpha=alpha, mesh=mesh, dofmap=dofmap)


def interpolate_iyp(xi, mesh: YMesh) -> np.ndarray:
    """Interpolation of a scalar function on ``(0, Y]`` into the constrained
    space, as coefficients in the :class:`YDofMap` order that
    :func:`eval_in_VM` evaluates.

    Element rules: the first element carries the constant value ``xi(y_1)``;
    interior elements the Gauss-Lobatto interpolant of their degree; the
    last element the truncated interpolant whose sample at ``Y`` is dropped,
    so the result vanishes there. For a single-element mesh the constant
    rule is applied first and the truncation then zeroes the top sample.
    """
    dofmap = YDofMap(degrees=mesh.degrees)
    nodes = np.asarray(mesh.nodes)
    coeffs = np.zeros(dofmap.n_dofs)
    for m, p in enumerate(mesh.degrees, start=1):
        if m == 1:
            vals = np.full(p + 1, float(xi(nodes[1])))
        else:
            gl = gauss_lobatto_points(p, (nodes[m - 1], nodes[m]))
            vals = np.array([float(xi(pt)) for pt in gl])
        if m == mesh.M:
            vals[-1] = 0.0
        local = np.linalg.solve(shape_values(p, gauss_lobatto_points(p, (0.0, 1.0))).T, vals)
        glob, rows = dofmap.element_dofs(m)
        coeffs[glob] = local[rows]
    return coeffs


def eval_in_VM(mesh: YMesh, coefficients, y):
    """Evaluate a hierarchical-basis expansion at points of ``[0, Y]``.

    ``coefficients`` follows the dof ordering contract (vertices first, then
    bumps); the expansion is continuous across elements and vanishes at
    ``Y``.
    """
    dofmap = YDofMap(degrees=mesh.degrees)
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.shape != (dofmap.n_dofs,):
        raise ValueError(f"expected {dofmap.n_dofs} coefficients")
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    nodes = np.asarray(mesh.nodes)
    if np.any(arr < 0.0) or np.any(arr > mesh.Y):
        raise ValueError("evaluation point outside [0, Y]")
    idx = np.clip(np.searchsorted(nodes, arr, side="right") - 1, 0, mesh.M - 1)
    out = np.zeros_like(arr)
    for e in range(mesh.M):
        sel = idx == e
        if not np.any(sel):
            continue
        a, b = nodes[e], nodes[e + 1]
        t = (arr[sel] - a) / (b - a)
        glob, local = dofmap.element_dofs(e + 1)
        B = shape_values(mesh.degrees[e], t)
        out[sel] = coeffs[glob] @ B[local]
    return float(out[0]) if np.ndim(y) == 0 else out
