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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy import sparse
from scipy.special import eval_legendre, roots_jacobi

from .meshing import YMesh

# Gauss-Legendre rules are enlarged until the analyticity estimate for the
# weight puts the truncation error below 1e-20; elements too close to the
# singularity for a single rule are split geometrically.
_MAX_GL_POINTS = 180
_LOG_TARGET = 46.0  # -ln(1e-20)
_MAX_SPLIT_DEPTH = 60


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
        for k in range(2, q + 1):
            out[k] = (V[:, k] - V[:, k - 2]) / math.sqrt(2.0 * (2.0 * k - 1.0))
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
        for k in range(2, q + 1):
            out[k] = math.sqrt(2.0 * (2.0 * k - 1.0)) * V[:, k - 1]
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
    return _gl_weighted_rule(a, b, alpha, polydeg, depth=0)


def _gl_weighted_rule(a, b, alpha, polydeg, depth):
    if depth > _MAX_SPLIT_DEPTH:
        raise QuadratureError(f"weighted rule on [{a}, {b}] did not stabilize")
    c = (b + a) / (b - a)
    rho = c + math.sqrt(c * c - 1.0)
    n = polydeg // 2 + 1 + math.ceil(_LOG_TARGET / (2.0 * math.log(rho)))
    if n > _MAX_GL_POINTS:
        mid = math.sqrt(a * b)
        pa, wa = _gl_weighted_rule(a, mid, alpha, polydeg, depth + 1)
        pb, wb = _gl_weighted_rule(mid, b, alpha, polydeg, depth + 1)
        return np.concatenate([pa, pb]), np.concatenate([wa, wb])
    x, w = _leggauss(n)
    pts = a + (x + 1.0) / 2.0 * (b - a)
    return pts, w * (b - a) / 2.0 * pts**alpha


@dataclass(frozen=True)
class YDofMap:
    """Global numbering for the constrained hierarchical space."""

    degrees: tuple[int, ...]

    @property
    def M(self) -> int:
        return len(self.degrees)

    @property
    def n_dofs(self) -> int:
        return int(sum(self.degrees))

    def element_dofs(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Global dof indices and the local basis rows they correspond to
        for element ``m`` (1-based). The right vertex of the last element is
        constrained and dropped."""
        p = self.degrees[m - 1]
        bump_offset = self.M + sum(pd - 1 for pd in self.degrees[: m - 1])
        bumps = list(range(bump_offset, bump_offset + p - 1))
        if m < self.M:
            glob = [m - 1, m] + bumps
            local = [0, 1] + list(range(2, p + 1))
        else:
            glob = [m - 1] + bumps
            local = [0] + list(range(2, p + 1))
        return np.asarray(glob, dtype=int), np.asarray(local, dtype=int)


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


def _resolve_degrees(mesh: YMesh, degrees) -> tuple[int, ...]:
    if degrees is None:
        return tuple(mesh.degrees)
    return tuple(int(p) for p in degrees)


def assemble_weighted_matrices(mesh: YMesh, degrees=None, alpha: float = 0.0) -> WeightedMatrices:
    """Assemble ``int y**alpha tau_j tau_l dy`` and
    ``int y**alpha tau_j' tau_l' dy`` over the constrained space."""
    degs = _resolve_degrees(mesh, degrees)
    if len(degs) != mesh.M:
        raise ValueError("one degree per element required")
    dofmap = YDofMap(degrees=degs)
    n = dofmap.n_dofs
    nodes = np.asarray(mesh.nodes)
    rows, cols, mass_vals, stiff_vals = [], [], [], []
    for m in range(1, mesh.M + 1):
        a, b = nodes[m - 1], nodes[m]
        p = degs[m - 1]
        try:
            pts, wts = weighted_rule(a, b, alpha, 2 * p)
        except QuadratureError as exc:
            raise QuadratureError(f"element {m}: {exc}") from exc
        h = b - a
        t = (pts - a) / h
        B = shape_values(p, t)
        D = shape_derivatives(p, t) / h
        glob, local = dofmap.element_dofs(m)
        Bl, Dl = B[local], D[local]
        local_mass = (Bl * wts) @ Bl.T
        local_stiff = (Dl * wts) @ Dl.T
        gi = np.repeat(glob, glob.size)
        gj = np.tile(glob, glob.size)
        rows.append(gi)
        cols.append(gj)
        mass_vals.append(local_mass.ravel())
        stiff_vals.append(local_stiff.ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    B_mass = sparse.coo_matrix((np.concatenate(mass_vals), (rows, cols)), shape=(n, n)).tocsr()
    B_stiff = sparse.coo_matrix((np.concatenate(stiff_vals), (rows, cols)), shape=(n, n)).tocsr()
    return WeightedMatrices(B_mass=B_mass, B_stiff=B_stiff, alpha=alpha, mesh=mesh, dofmap=dofmap)


@dataclass(frozen=True)
class GLInterpolant:
    """Piecewise polynomial in the constrained space built from nodal
    samples: constant on the first element, Gauss-Lobatto interpolation on
    interior elements, and the truncated interpolant (top sample dropped) on
    the last element."""

    mesh: YMesh
    degrees: tuple[int, ...]
    elements: tuple[tuple[float, float, np.ndarray], ...]  # (a, b, legendre coeffs)

    def _piece_eval(self, idx: int, y: np.ndarray, derivative: bool) -> np.ndarray:
        a, b, coeffs = self.elements[idx]
        x = (2.0 * y - (a + b)) / (b - a)
        if derivative:
            return npleg.legval(x, npleg.legder(coeffs)) * 2.0 / (b - a)
        return npleg.legval(x, coeffs)

    def _eval(self, y, derivative: bool):
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        nodes = np.asarray(self.mesh.nodes)
        if np.any(arr < 0.0) or np.any(arr > self.mesh.Y):
            raise ValueError("evaluation point outside [0, Y]")
        idx = np.clip(np.searchsorted(nodes, arr, side="right") - 1, 0, self.mesh.M - 1)
        out = np.empty_like(arr)
        for e in range(self.mesh.M):
            sel = idx == e
            if np.any(sel):
                out[sel] = self._piece_eval(e, arr[sel], derivative)
        return float(out[0]) if np.ndim(y) == 0 else out

    def __call__(self, y):
        return self._eval(y, derivative=False)

    def derivative(self, y):
        return self._eval(y, derivative=True)


def interpolate_iyp(xi, mesh: YMesh, degrees=None) -> GLInterpolant:
    """Interpolation of a scalar function on ``(0, Y]`` into the constrained
    space.

    Element rules: the first element carries the constant value ``xi(y_1)``;
    interior elements the Gauss-Lobatto interpolant of their degree; the
    last element the truncated interpolant whose sample at ``Y`` is dropped,
    so the result vanishes there. For a single-element mesh the constant
    rule is applied first and the truncation then zeroes the top sample.
    """
    degs = _resolve_degrees(mesh, degrees)
    if len(degs) != mesh.M:
        raise ValueError("one degree per element required")
    nodes = np.asarray(mesh.nodes)
    elements = []
    for m in range(1, mesh.M + 1):
        a, b = float(nodes[m - 1]), float(nodes[m])
        p = degs[m - 1]
        if m == 1 and mesh.M > 1:
            coeffs = np.array([float(xi(nodes[1]))])
        else:
            gl = gauss_lobatto_points(p, (a, b))
            if m == 1:
                vals = np.full(p + 1, float(xi(nodes[1])))
            else:
                vals = np.array([float(xi(pt)) for pt in gl])
            if m == mesh.M:
                vals[-1] = 0.0
            x = (2.0 * gl - (a + b)) / (b - a)
            coeffs = np.linalg.solve(npleg.legvander(x, p), vals)
        elements.append((a, b, coeffs))
    return GLInterpolant(mesh=mesh, degrees=degs, elements=tuple(elements))


def eval_in_VM(mesh: YMesh, coefficients, y, degrees=None):
    """Evaluate a hierarchical-basis expansion at points of ``[0, Y]``.

    ``coefficients`` follows the dof ordering contract (vertices first, then
    bumps); the expansion is continuous across elements and vanishes at
    ``Y``.
    """
    degs = _resolve_degrees(mesh, degrees)
    dofmap = YDofMap(degrees=degs)
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
        B = shape_values(degs[e], t)
        out[sel] = coeffs[glob] @ B[local]
    return float(out[0]) if np.ndim(y) == 0 else out
