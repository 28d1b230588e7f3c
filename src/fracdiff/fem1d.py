"""One-dimensional hp finite elements on the extended direction with the
degenerate weight ``y**alpha``.

Trial functions are hierarchical Lobatto shape functions on each element
(vertex hats plus integrated-Legendre bumps); the discrete space constrains
the value at the top of the interval to zero. The module builds the
weighted quadrature rules and forms the weighted element mass and stiffness
matrices (the assembled pair is derived from them). Shape functions at
arbitrary points, Gauss-Lobatto nodes, the y-interpolant and point
evaluation of its expansion are test oracles (``tests/oracles.py``).

Degrees of freedom are ordered vertex dofs first (by node index, the vertex
at the top excluded), then per-element bump dofs by element and degree. The
single dof supported at ``y = 0`` is therefore dof 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import legendre as npleg

from .meshing import MeshError, YMesh

if TYPE_CHECKING:
    from scipy import sparse

# Gauss-Legendre rules are enlarged until the analyticity estimate for the
# weight puts the truncation error below 1e-20; elements too close to the
# singularity for a single rule are split geometrically, into at most
# 2**_MAX_SPLIT_DEPTH pieces, which bounds the rule at 46,080 points.
_MAX_GL_POINTS = 180
_LOG_TARGET = 46.0  # -ln(1e-20)
_MAX_SPLIT_DEPTH = 8


def _legendre_rows(t: np.ndarray, degree: int) -> np.ndarray:
    """``P_0..P_degree`` at ``2t - 1`` as rows, shape ``(degree+1, len(t))``,
    by the ``legvander`` recurrence. Every entry depends on its own point
    and degree only, so the rows of a longer ``t`` or a higher degree hold
    these bitwise."""
    return npleg.legvander(2.0 * t - 1.0, degree).T


def _bump_scale(q: int) -> np.ndarray:
    """``sqrt(2(2k - 1))`` for the bumps ``k = 2..q``, as a column."""
    return np.sqrt(2.0 * (2.0 * np.arange(2, q + 1) - 1.0))[:, None]


def _shape_values(q: int, t: np.ndarray, P: np.ndarray | None) -> np.ndarray:
    """Hierarchical shape functions of degree ``q`` at the points ``t`` of the
    reference element ``(0, 1)``, shape ``(q+1, len(t))``, from the Legendre
    rows ``P`` at ``t`` (at least ``q+1``; ``None`` for ``q = 1``): rows 0
    and 1 are the vertex functions ``1-t`` and ``t``, row ``k >= 2`` the
    integrated-Legendre bump of degree ``k``, vanishing at both endpoints."""
    out = np.empty((q + 1, t.size))
    out[0] = 1.0 - t
    out[1] = t
    if q >= 2:
        np.subtract(P[2:q + 1], P[:q - 1], out=out[2:])
        out[2:] /= _bump_scale(q)
    return out


def _shape_derivatives(q: int, points: int, P: np.ndarray | None) -> np.ndarray:
    """Reference-element derivatives of :func:`_shape_values` at ``points``
    points, from the Legendre rows ``P`` (at least ``q``)."""
    out = np.empty((q + 1, points))
    out[0] = -1.0
    out[1] = 1.0
    if q >= 2:
        np.multiply(_bump_scale(q), P[1:q], out=out[2:])
    return out


def _orthonormal_values(x: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """``p_n(x)``, ``p_n'(x)`` and ``sum_{k<n} p_k(x)**2`` for the
    polynomials of the three-term recurrence ``off[k] p_{k+1} = (x - diag[k])
    p_k - off[k-1] p_{k-1}`` from ``p_0 = 1``, ``n = len(diag)``: orthonormal
    up to the factor ``1/sqrt(mu_0)``."""
    p0, p1 = np.zeros_like(x), np.ones_like(x)
    d0, d1 = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    for a, b, b_below in zip(diag, off, (0.0, *off[:-1])):
        total += p1 * p1
        p0, p1, d0, d1 = (p1, ((x - a) * p1 - b_below * p0) / b,
                          d1, (p1 + (x - a) * d1 - b_below * d0) / b)
    return p1, d1, total


def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-point Gauss-Jacobi rule for the weight ``(1-x)**a *
    (1+x)**b`` on ``[-1, 1]``, ``a, b > -1``, nodes ascending.

    Golub-Welsch (Golub & Welsch, Math. Comp. 1969) gives the nodes as the
    eigenvalues of the Jacobi matrix; two Newton steps on its three-term
    recurrence refine them. The weights are the Christoffel numbers ``mu_0 /
    sum_{k<n} p_k(x_i)**2`` of the orthonormal polynomials at the refined
    nodes, with ``mu_0 = 2**(a+b+1) B(a+1, b+1)``: within 3e-13 relative of
    40-digit weights for ``n <= 100`` and ``b`` in ``(-1, 1)``, where the
    derivative formula ``~ 1/((1 - x_i**2) P_n'(x_i)**2)`` was off by up to
    1.2e-11 next to the singular end."""
    k = np.arange(1, n + 1, dtype=float)
    c = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):  # k = 1 when a + b = 0, replaced below
        diag = (b * b - a * a) / ((c - 2.0) * c)
    diag[0] = (b - a) / (a + b + 2.0)
    off = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (c * c * (c + 1.0) * (c - 1.0))
    off[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    off = np.sqrt(off)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    for _ in range(2):
        p, dp, _ = _orthonormal_values(x, diag, off)
        x -= p / dp
    mu0 = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                   - math.lgamma(a + b + 2.0))
    return x, mu0 / _orthonormal_values(x, diag, off)[2]


@lru_cache(maxsize=None)
def _leggauss(n: int):
    """The ``n``-point Gauss-Legendre nodes mapped to ``(0, 1)`` and the
    weights on ``[-1, 1]``, read-only."""
    x, w = npleg.leggauss(n)
    t = (x + 1.0) / 2.0
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@lru_cache(maxsize=None)
def _jacobi_unit_rule(n: int, alpha: float):
    # nodes/weights with sum(w*g(t)) = int_0^1 t**alpha * g(t) dt
    x, w = _gauss_jacobi(n, 0.0, alpha)
    return (x + 1.0) / 2.0, w * 2.0 ** (-alpha - 1.0)


def weighted_rule(a: float, b: float, alpha: float, polydeg: int):
    """Quadrature nodes and weights integrating ``y**alpha * f(y)`` over
    ``[a, b]`` exactly (to roundoff) for polynomials ``f`` up to ``polydeg``.

    The weight is absorbed into the returned weights. The first element
    (``a == 0``) uses a Gauss-Jacobi rule, exact for the weight; elements
    away from the singularity use Gauss-Legendre with a point count driven
    by the distance of the singularity from the element, splitting the
    element geometrically when a single rule cannot reach roundoff; an
    element that would need more than ``2**_MAX_SPLIT_DEPTH`` pieces raises
    :class:`~fracdiff.meshing.MeshError`.
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


@np.errstate(over="ignore", divide="ignore")  # a huge count is a split, never a rule
def _gl_point_counts(a: np.ndarray, b: np.ndarray, polydeg) -> np.ndarray:
    """Gauss-Legendre points for ``y**alpha * f`` on every ``[a, b]``, ``a >
    0``, as floats: exactness for ``f`` plus the analyticity estimate for
    the weight.

    The weight is analytic inside the Bernstein ellipse of parameter
    ``rho = (sqrt(b) + sqrt(a)) / (sqrt(b) - sqrt(a))``; ``ln(rho)`` is formed
    with ``log1p`` so that it stays positive when ``a/b`` is below eps. That
    is ``math.log1p`` mapped over the elements: numpy's log1p differs from
    the C library's in the last bit for about 2% of arguments, and a count
    next to an integer would follow it."""
    ra, rb = np.sqrt(a), np.sqrt(b)
    arg = 2.0 * ra * (ra + rb) / (b - a)
    log_rho = np.fromiter(map(math.log1p, arg.tolist()), float, arg.size)
    return polydeg // 2 + 1 + np.ceil(_LOG_TARGET / (2.0 * log_rho))


def _gl_rule(a, b, alpha, n):
    """The ``n``-point Gauss-Legendre rule on ``[a, b]`` with the weight
    absorbed; ``a`` and ``b`` may be ``(E, 1)`` columns, one rule per row."""
    t, w = _leggauss(n)
    h = b - a
    pts = a + t * h
    return pts, w * h / 2.0 * pts**alpha


def _gl_weighted_rule(a, b, alpha, polydeg):
    """The rule on the fewest geometric pieces (``2**depth``, all of one end
    ratio, ``depth <= _MAX_SPLIT_DEPTH``) that need at most
    ``_MAX_GL_POINTS`` points each."""
    for depth in range(_MAX_SPLIT_DEPTH + 1):
        cuts = np.geomspace(a, b, 2**depth + 1)
        n = _gl_point_counts(cuts[:-1], cuts[1:], polydeg).max()
        if n <= _MAX_GL_POINTS:
            pts, wts = _gl_rule(cuts[:-1, None], cuts[1:, None], alpha, int(n))
            return pts.ravel(), wts.ravel()
        if polydeg // 2 + 2 > _MAX_GL_POINTS:
            break  # splitting lowers only the analyticity part of the count
    raise MeshError(
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


@dataclass(frozen=True)
class WeightedMatrices:
    """Weighted mass/stiffness pair on the constrained space, stored as its
    element matrices: ``groups`` holds ``(ms, mass, stiff)`` for elements
    ``ms`` (1-based) of one degree ``p``, each matrix of shape ``(len(ms),
    p+1, p+1)`` in the local rows of :meth:`YDofMap.element_table`. The CSR
    matrices ``B_mass`` and ``B_stiff`` are assembled from them on first use."""

    groups: tuple
    mesh: YMesh

    n_dofs = property(lambda self: int(sum(self.mesh.degrees)))  # no dof map: it would be cached
    dofmap = cached_property(lambda self: YDofMap(degrees=self.mesh.degrees))
    B_mass = cached_property(lambda self: self._assembled(1))
    B_stiff = cached_property(lambda self: self._assembled(2))

    def _assembled(self, which: int) -> sparse.csr_matrix:
        from scipy import sparse  # the full solve's oracle; the run path never assembles

        parts = []
        for group in self.groups:
            table = self.dofmap.element_table(group[0])
            k = table.shape[1]
            gi, gj = np.repeat(table, k, axis=1).ravel(), np.tile(table, k).ravel()
            keep = (gi >= 0) & (gj >= 0)  # the constrained top vertex is dropped
            parts.append((group[which].ravel()[keep], gi[keep], gj[keep]))
        vals, rows, cols = map(np.concatenate, zip(*parts))
        return sparse.coo_matrix((vals, (rows, cols)), shape=(self.n_dofs,) * 2).tocsr()


def _element_rules(nodes: np.ndarray, degrees: np.ndarray, alpha: float) -> list:
    """The quadrature of every element of a mesh with these ``nodes`` and
    ``degrees`` as ``(elements, reference nodes t,
    weights of shape (elements, len(t)))``: first the Gauss-Jacobi first
    element and every split element, each alone and in ascending order,
    then the unsplit Gauss-Legendre elements, grouped by degree and point
    count (their shared reference nodes), groups in the order of their first
    element."""
    points = _gl_point_counts(nodes[1:-1], nodes[2:], 2 * degrees[1:])  # elements 2..M
    shared = points <= _MAX_GL_POINTS
    rules = []
    for m in [1, *(np.flatnonzero(~shared) + 2).tolist()]:
        a, b = nodes[m - 1], nodes[m]
        try:
            pts, wts = weighted_rule(a, b, alpha, 2 * int(degrees[m - 1]))
        except MeshError as exc:
            raise MeshError(f"element {m}: {exc}") from exc
        rules.append((np.array([m]), (pts - a) / (b - a), wts[None, :]))
    ms = np.flatnonzero(shared) + 2
    key = degrees[ms - 1] * (_MAX_GL_POINTS + 1) + points[ms - 2].astype(np.intp)
    order = np.argsort(key, kind="stable")  # by group, ascending within each
    ms, key = ms[order], key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    for first, start, stop in sorted(zip(ms[starts].tolist(), starts, starts[1:] + [ms.size])):
        group = ms[start:stop]
        n = int(points[first - 2])
        wts = _gl_rule(nodes[group - 1, None], nodes[group, None], alpha, n)[1]
        rules.append((group, _leggauss(n)[0], wts))
    return rules


# Bytes of one chunk of the Legendre table that assembly evaluates: rules
# are taken in order while their points times the chunk's highest degree
# fit; a rule that needs more is a chunk of its own, whose table is no
# larger than the shape functions of its element.
_TABLE_BYTES = 1 << 18


def _table_chunks(rules: list, degrees: np.ndarray):
    """Consecutive runs of ``rules`` whose Legendre table fits ``_TABLE_BYTES``."""
    chunk, rows, top = [], 0, 0
    for rule in rules:
        p, n = degrees[rule[0][0] - 1], rule[1].size
        if chunk and 8 * (rows + n) * (max(top, p) + 1) > _TABLE_BYTES:
            yield chunk
            chunk, rows, top = [], 0, 0
        chunk.append(rule)
        rows, top = rows + n, max(top, p)
    if chunk:
        yield chunk


def _chunk_shapes(chunk: list, degrees: np.ndarray) -> list:
    """``(B, D)``, the values and derivatives of the shape functions at the
    reference nodes, of every rule of ``chunk``, cut from one Legendre table
    on all their nodes; bitwise the tables of a Legendre table on each
    rule's nodes alone. The table is freed on return."""
    ps = [int(degrees[ms[0] - 1]) for ms, _, _ in chunk]
    top = max(ps)
    P = _legendre_rows(np.concatenate([t for _, t, _ in chunk]), top) if top >= 2 else None
    shapes, start = [], 0
    for p, (_, t, _) in zip(ps, chunk):
        rows = None if P is None else P[:, start:start + t.size]
        shapes.append((_shape_values(p, t, rows), _shape_derivatives(p, t.size, rows)))
        start += t.size
    return shapes


@np.errstate(over="ignore", invalid="ignore")  # non-finite results are rejected below
def assemble_weighted_matrices(mesh: YMesh, alpha: float = 0.0) -> WeightedMatrices:
    """The element matrices of ``int y**alpha tau_j tau_l dy`` and
    ``int y**alpha tau_j' tau_l' dy`` over the constrained space.

    Unsplit Gauss-Legendre elements of one degree and one point count share
    their reference nodes and so their shape tables; only the weights
    differ, and each such group is formed by one stacked contraction. The
    Gauss-Jacobi first element and every split element are groups of one.
    Point counts and groups are array operations; the shape tables come
    from one Legendre table per level, evaluated in chunks of at most
    ``_TABLE_BYTES``. A non-finite ``1/h**2`` or element matrix raises
    :class:`MeshError` naming the element.
    """
    nodes = np.asarray(mesh.nodes)
    width = np.diff(nodes)
    short = np.flatnonzero(width * width < 1.0 / np.finfo(float).max)
    if short.size:
        m = int(short[0]) + 1
        raise MeshError(f"element {m}: width {width[m - 1]:.2g} is so small that "
                        "the stiffness scale 1/h**2 is not finite")
    degrees = np.asarray(mesh.degrees)
    groups = []
    for chunk in _table_chunks(_element_rules(nodes, degrees, alpha), degrees):
        for (ms, _, wts), (B, D) in zip(chunk, _chunk_shapes(chunk, degrees)):
            h = width[ms - 1]
            mass = (B * wts[:, None, :]) @ B.T
            stiff = ((D * wts[:, None, :]) @ D.T) / (h * h)[:, None, None]
            groups.append((ms, mass, stiff))
    bad = [m for ms, mass, stiff in groups for m in ms[~np.isfinite(mass + stiff).all(axis=(1, 2))]]
    if bad:
        m = min(bad)
        raise MeshError(f"element {m}: the weighted element matrices on [{nodes[m - 1]:.2g}, "
                        f"{nodes[m]:.2g}] are not finite (y**{alpha:g} or the width overflows)")
    return WeightedMatrices(groups=tuple(groups), mesh=mesh)
