"""Oracles of the paper's analysis, which the run path never calls.

* The modified Bessel function ``K_nu`` (scipy's, and an independent
  quadrature of its integral representation), the decay profile
  ``psi_s(z) = c_s * z**s * K_s(z)`` with its derivatives, and the
  coefficient recurrence behind the representation of the higher ones.
* The exact extended solution ``sum_k u_k phi_k(x) psi_s(sqrt(lambda_k) y)``,
  fractional Sobolev norms, and the energy above a truncation height.
* Hierarchical shape functions at arbitrary points, Gauss-Lobatto nodes,
  and the y-interpolant with point evaluation of its expansion.
* Nodal values from the orthonormal DST-I coefficients that the run path
  works in, by ``scipy.fft.dstn``.
* ``int f * tr u_h`` summed per data mode, against which the energy
  error's Parseval product of the load and trace coefficients is checked.
* The energy error by direct quadrature of the weighted gradient difference
  over the truncated cylinder, for desk-scale levels.

The package imports none of these; the tests check it against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy import fft, integrate, special

from fracdiff.fem1d import (
    WeightedMatrices,
    YDofMap,
    _gauss_jacobi,
    _legendre_rows,
    _shape_derivatives,
    _shape_values,
    weighted_rule,
)
from fracdiff.femomega import OmegaGrid, sine_projections
from fracdiff.meshing import YMesh
from fracdiff.solver import SolutionTensor
from fracdiff.spectral import FractionalProblem, ModalFunction, _sine_product, solve_fractional

# Practical evaluation range; K_nu overflows float64 long before this for
# small arguments, so callers stay well inside.
MAX_ORDER = 40.0

# derivative_coeffs values are exact Python integers; the cap only bounds the
# representation used by psi_nth_derivative and the recurrence tests.
MAX_COEFF_ORDER = 40

# psi_nth_derivative is specified for n up to 12.
MAX_DERIVATIVE_ORDER = 12


def _as_float_array(z):
    arr = np.asarray(z, dtype=float)
    return arr, (arr.ndim == 0)


def _order(nu) -> float:
    """``|nu|`` through the symmetry ``K_{-nu} = K_nu``, checked against the
    supported range."""
    order = abs(float(nu))
    if order > MAX_ORDER:
        raise ValueError(f"order |nu|={order} outside supported range <= {MAX_ORDER}")
    return order


def bessel_k(nu, z) -> float | np.ndarray:
    """Modified Bessel function of the second kind ``K_nu(z)``.

    Accepts a real order ``|nu| <= 40``; vectorized in ``z``. Raises
    ``ValueError`` for ``z <= 0`` or orders outside the supported range.
    """
    order = _order(nu)
    arr, scalar = _as_float_array(z)
    if np.any(arr <= 0.0) or np.any(~np.isfinite(arr)):
        raise ValueError("bessel_k requires z > 0")
    out = special.kv(order, arr)
    return float(out) if scalar else out


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # log(cosh(x)) without overflow for large |x|
    return np.logaddexp(x, -x) - math.log(2.0)


def bessel_k_integral(nu: float, z: float) -> float:
    """Reference evaluation of ``K_nu(z)`` by adaptive quadrature of
    ``integral_0^inf exp(-z*cosh t)*cosh(nu*t) dt``.

    Scalar and slow; serves as the independent cross-check for
    :func:`bessel_k`. Raises ``OverflowError`` when the value exceeds the
    float64 range.
    """
    order = _order(nu)
    z = float(z)
    if z <= 0.0:
        raise ValueError("bessel_k_integral requires z > 0")

    def log_f(t):
        return -z * np.cosh(t) + _log_cosh(order * t)

    t_peak = float(np.arcsinh(order / z)) if order > 0 else 0.0
    shift = float(log_f(np.asarray(t_peak)))
    if shift > 700.0:
        raise OverflowError("K_nu(z) exceeds the representable float range")

    upper = max(t_peak, 1.0)
    while float(log_f(np.asarray(upper))) - shift > -80.0:
        upper += max(1.0, 0.5 * upper)

    def f(t):
        return np.exp(log_f(t) - shift)

    val, err, info = integrate.quad(f, 0.0, upper, epsabs=1e-300, epsrel=1e-14,
                                    limit=500, full_output=True)[:3]
    if not np.isfinite(val) or (val > 0 and err / val > 1e-11):
        raise RuntimeError(f"quadrature for K_{order}({z}) did not converge: err={err}")
    return math.exp(shift) * val


@dataclass(frozen=True)
class PsiProfile:
    """Profile parameters: fractional order ``s`` and the scale
    ``c_s = 2**(1-s)/Gamma(s)`` that makes ``psi_s(0) = 1``."""

    s: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s={self.s} must lie in (0, 1)")

    @property
    def c_s(self) -> float:
        return 2.0 ** (1.0 - self.s) / math.gamma(self.s)


def psi(profile: PsiProfile, z) -> float | np.ndarray:
    """Evaluate ``psi_s(z) = c_s * z**s * K_s(z)`` for ``z >= 0``.

    The value at ``z = 0`` is the analytic limit 1. Monotone decreasing with
    values in ``(0, 1]``; underflows to 0 for ``z`` beyond roughly 700.
    """
    arr, scalar = _as_float_array(z)
    if np.any(arr < 0.0):
        raise ValueError("psi requires z >= 0")
    out = np.ones_like(arr)
    pos = arr > 0.0
    if np.any(pos):
        zp = arr[pos]
        out[pos] = profile.c_s * zp ** profile.s * special.kv(profile.s, zp)
    return float(out) if scalar else out


def psi_prime(profile: PsiProfile, z) -> float | np.ndarray:
    """First derivative ``psi_s'(z) = -(c_s/c_{1-s}) * z**(2s-1) * psi_{1-s}(z)``.

    Requires ``z > 0`` (the value diverges at 0 for ``s < 1/2``); strictly
    negative on its domain.
    """
    arr, scalar = _as_float_array(z)
    if np.any(arr <= 0.0):
        raise ValueError("psi_prime requires z > 0")
    dual = PsiProfile(1.0 - profile.s)
    out = -(profile.c_s / dual.c_s) * arr ** (2.0 * profile.s - 1.0) * psi(dual, arr)
    return float(out) if scalar else out


@lru_cache(maxsize=None)
def derivative_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients ``a_0 .. a_n`` of the n-th derivative representation of
    ``z**s * K_s(z)`` as a combination of ``z**(s-m) * K_{s-(n-m)}(z)``.

    The values are exact integers: ``a_0 = (-1)**n`` and
    ``a_m = (-1)**(n+m) * n! / (2**m * m! * (n-2m)!)`` for
    ``1 <= m <= floor(n/2)``, zero beyond.
    """
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n > MAX_COEFF_ORDER:
        raise ValueError(f"derivative order {n} exceeds supported cap {MAX_COEFF_ORDER}")
    a = [0] * (n + 1)
    a[0] = (-1) ** n
    for m in range(1, n // 2 + 1):
        num = math.factorial(n)
        den = 2**m * math.factorial(m) * math.factorial(n - 2 * m)
        q, r = divmod(num, den)
        assert r == 0
        a[m] = (-1) ** (n + m) * q
    return tuple(a)


def psi_nth_derivative(profile: PsiProfile, n: int, z) -> float | np.ndarray:
    """n-th derivative of ``psi_s`` at ``z > 0`` via the exact representation
    ``c_s * sum_m a_m * z**(s-m) * K_{s-(n-m)}(z)``, for ``0 <= n <= 12``."""
    if not 0 <= n <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must lie in [0, {MAX_DERIVATIVE_ORDER}]")
    arr, scalar = _as_float_array(z)
    if np.any(arr <= 0.0):
        raise ValueError("psi_nth_derivative requires z > 0")
    coeffs = derivative_coeffs(n)
    s = profile.s
    out = np.zeros_like(arr)
    for m in range(n // 2 + 1):
        # kv handles negative orders through the K_{-nu} = K_nu symmetry
        out += coeffs[m] * arr ** (s - m) * special.kv(s - (n - m), arr)
    out *= profile.c_s
    return float(out) if scalar else out


def decay_envelope_constant(profile: PsiProfile, r: float, a: float = 1.0) -> float:
    """Explicit constant ``C(a, s, r)`` with ``|z**r * psi_s(z)| <= C * exp(-z/2)``
    for all ``z >= a``, valid for ``r >= min(s, 1/2) - s``.

    ``C = c_s * a**s0 * exp(a) * K_s(a) * (2*(r + s - s0)/e)**(r + s - s0)``
    with ``s0 = min(s, 1/2)``.
    """
    s = profile.s
    s0 = min(s, 0.5)
    if r < s0 - s:
        raise ValueError(f"r={r} below admissible range r >= {s0 - s}")
    expo = r + s - s0
    peak = (2.0 * expo / math.e) ** expo if expo > 0 else 1.0
    return profile.c_s * a**s0 * math.exp(a) * bessel_k(s, a) * peak


def hs_norm(v: ModalFunction, s: float) -> float:
    """Fractional Sobolev norm ``sqrt(sum lambda_k**s * v_k**2)`` computed in
    orthonormal coefficients; negative ``s`` gives the dual norm. The sum is
    taken over the coefficients scaled by ``2**-v.scale_exponent`` and the
    root scaled back, so it overflows only when the norm itself lies beyond
    the double range. Squares are products, not ``** 2``: libm ``pow`` is
    not correctly rounded, so it would not commute with the exact scaling."""
    scale = v.scale_exponent
    total = 0.0
    for _, lam, coef in v.orthonormal_items():
        scaled = math.ldexp(coef, -scale)
        total += lam**s * (scaled * scaled)
    return math.ldexp(math.sqrt(total), scale)


def exact_extended(problem: FractionalProblem, x, y) -> float | np.ndarray:
    """Extended solution ``u(x, y) = sum_k u_k * phi_k(x) * psi_s(sqrt(lambda_k) y)``
    for ``y >= 0``; at ``y = 0`` this is the fractional solution itself."""
    u = solve_fractional(problem)
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0.0):
        raise ValueError("extended variable must satisfy y >= 0")
    profile = PsiProfile(problem.s)
    total = 0.0
    for index, coef in u.modes:
        root = math.sqrt(problem.domain.eigenvalue(index))
        total = total + coef * _sine_product(index, x) * psi(profile, root * y_arr)
    if np.ndim(total) == 0:
        return float(total)
    return total


def tail_energy(problem: FractionalProblem, Y: float) -> float:
    """Squared weighted-gradient energy of the extended solution above the
    truncation height ``Y >= 1``.

    Computed mode by mode as
    ``sum_k u_k**2 * int_Y^inf y**alpha * (lambda_k psi_k**2 + psi_k'**2) dy``
    with orthonormal coefficients ``u_k``; each integral is truncated at
    ``Y + 40/sqrt(lambda_k)``, beyond which the integrand is below the float
    noise floor.
    """
    if Y < 1.0:
        raise ValueError("tail energy requires Y >= 1")
    u = solve_fractional(problem)
    profile = PsiProfile(problem.s)
    alpha = problem.alpha
    total = 0.0
    for index, lam, coef in u.orthonormal_items():
        if coef == 0.0:
            continue
        root = math.sqrt(lam)

        def integrand(y, root=root):
            z = root * y
            return y**alpha * lam * (psi(profile, z) ** 2 + psi_prime(profile, z) ** 2)

        upper = Y + 40.0 / root
        val, err, info = integrate.quad(
            integrand, Y, upper, epsabs=1e-300, epsrel=1e-10, limit=300,
            full_output=True,
        )[:3]
        if not np.isfinite(val) or (val > 0 and err > max(1e-10 * val, 1e-250)):
            raise RuntimeError(
                f"tail quadrature did not converge for mode {index}: err={err}"
            )
        total += coef**2 * val
    return total


def shape_values(q: int, t) -> np.ndarray:
    """Hierarchical shape functions on the reference element ``(0, 1)``.

    Returns an array of shape ``(q+1, len(t))``: rows 0 and 1 are the vertex
    functions ``1-t`` and ``t``; row ``k >= 2`` is the integrated-Legendre
    bump of degree ``k``, vanishing at both endpoints.
    """
    t = _reference_points(q, t)
    return _shape_values(q, t, _legendre_rows(t, q) if q >= 2 else None)


def shape_derivatives(q: int, t) -> np.ndarray:
    """Reference-element derivatives of :func:`shape_values`."""
    t = _reference_points(q, t)
    return _shape_derivatives(q, t.size, _legendre_rows(t, q - 1) if q >= 2 else None)


def _reference_points(q: int, t) -> np.ndarray:
    if q < 1:
        raise ValueError("element degree must be >= 1")
    return np.atleast_1d(np.asarray(t, dtype=float))


def gauss_lobatto_points(q: int, interval=(-1.0, 1.0)) -> np.ndarray:
    """The ``q+1`` Gauss-Lobatto points of degree ``q`` on ``[a, b]``.

    Endpoints included; the interior points are the roots of the derivative
    of the Legendre polynomial of degree ``q``, i.e. of the Jacobi polynomial
    ``P_{q-1}^{(1,1)}``. Symmetric about the midpoint.
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
    x = _gauss_jacobi(q - 1, 1.0, 1.0)[0] if q > 1 else np.empty(0)
    x = 0.5 * (x - x[::-1])  # enforce exact symmetry
    return np.concatenate(([-1.0], x, [1.0]))


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
    coeffs = np.zeros(dofmap.n_dofs + 1)  # the last entry takes the constrained top vertex (-1)
    for m, p in enumerate(mesh.degrees, start=1):
        if m == 1:
            vals = np.full(p + 1, float(xi(nodes[1])))
        else:
            gl = gauss_lobatto_points(p, (nodes[m - 1], nodes[m]))
            vals = np.array([float(xi(pt)) for pt in gl])
        if m == mesh.M:
            vals[-1] = 0.0
        local = np.linalg.solve(shape_values(p, gauss_lobatto_points(p, (0.0, 1.0))).T, vals)
        coeffs[dofmap.element_table([m])[0]] = local
    return coeffs[:-1]


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
    coeffs = np.append(coeffs, 0.0)  # the constrained top vertex (-1) is zero
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
        B = shape_values(mesh.degrees[e], t)
        out[sel] = coeffs[dofmap.element_table([e + 1])[0]] @ B
    return float(out[0]) if np.ndim(y) == 0 else out


@lru_cache(maxsize=None)
def unit_gauss_rule(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


def dst(v, base_shape: tuple) -> np.ndarray:
    """Orthonormal DST-I of the flat base-domain vector ``v`` over the axes
    ``base_shape``, on a copy: nodal values from sine coefficients and back
    (it is its own inverse)."""
    return fft.dstn(np.reshape(v, base_shape), type=1, norm="ortho").ravel()


def data_product_per_mode(problem: FractionalProblem, grid: OmegaGrid, coeffs) -> float:
    """``int f * tr u_h`` as one term per data mode: its plain-sine
    coefficient times the projection ``(tr u_h, prod_i sin(k_i*pi*x_i))``
    read off the trace's orthonormal DST-I coefficients ``coeffs``. Aliased
    modes are placed one by one here, where the load sums them into one
    cell."""
    modes = problem.f.modes
    return float(np.array([c for _, c in modes])
                 @ sine_projections(grid, coeffs, [index for index, _ in modes]))


DIRECT_CHECK_MAX_DOFS = 5000


def _hat_tables(grid: OmegaGrid, t: np.ndarray):
    """Values and derivatives of the interior hat functions at the points
    ``(cell + t) * h`` of every cell, each of shape ``(n * len(t), n - 1)``."""
    n, g = grid.n, t.size
    cells = np.arange(n)
    vals = np.zeros((n, g, n + 1))
    vals[cells, :, cells] = 1.0 - t
    vals[cells, :, cells + 1] = t
    ders = np.zeros((n, g, n + 1))
    ders[cells, :, cells] = -1.0 / grid.h
    ders[cells, :, cells + 1] = 1.0 / grid.h
    return vals.reshape(n * g, n + 1)[:, 1:-1], ders.reshape(n * g, n + 1)[:, 1:-1]


def _along_axes(tables, X: np.ndarray) -> np.ndarray:
    """Apply the matrix ``tables[i]`` along axis ``i`` of ``X``."""
    for i, A in enumerate(tables):
        X = np.moveaxis(np.tensordot(A, X, axes=(1, i)), 0, i)
    return X


def _outer(factors) -> np.ndarray:
    return reduce(np.multiply.outer, factors)


def direct_energy_error_small(
    problem: FractionalProblem,
    grid: OmegaGrid,
    weighted: WeightedMatrices,
    solution: SolutionTensor,
    nx_gauss: int = 6,
    ny_extra: int = 14,
) -> float:
    """Independent desk-scale evaluation of the energy error: elementwise
    quadrature of the weighted gradient difference over the truncated
    cylinder plus the exact-solution energy above the truncation height.

    Guarded to ``N_total <= 5000``.
    """
    U = solution.coefficients
    if U.size > DIRECT_CHECK_MAX_DOFS:
        raise ValueError(
            f"direct energy cross-check is limited to {DIRECT_CHECK_MAX_DOFS} dofs"
        )
    mesh = weighted.mesh
    dofmap = weighted.dofmap
    degs = dofmap.degrees
    alpha = problem.alpha
    profile = PsiProfile(problem.s)
    d = grid.d
    t, wx = unit_gauss_rule(nx_gauss)
    # the tensor points are the products of the n*g cell points per direction
    x = ((np.arange(grid.n)[:, None] + t) * grid.h).ravel()
    weights = _outer([np.tile(wx * grid.h, grid.n)] * d)
    vals, ders = _hat_tables(grid, t)
    grad_tables = [[ders if j == i else vals for j in range(d)] for i in range(d)]
    nodal_shape = (grid.n - 1,) * d

    # per exact mode: sqrt(lambda), its value and its partial derivatives at
    # the tensor points, each an outer product of 1-D sine/cosine factors
    modes = []
    for index, coef in solve_fractional(problem).modes:
        sins = [np.sin(k * math.pi * x) for k in index]
        coss = [k * math.pi * np.cos(k * math.pi * x) for k in index]
        grads = [coef * _outer(sins[:i] + [coss[i]] + sins[i + 1:]) for i in range(d)]
        modes.append((math.sqrt(problem.domain.eigenvalue(index)), coef * _outer(sins), grads))

    total = 0.0
    nodes = np.asarray(mesh.nodes)
    for m in range(1, mesh.M + 1):
        a, b = nodes[m - 1], nodes[m]
        p = degs[m - 1]
        if m == 1:
            ypts, wy = _singular_bottom_rule(b, alpha, problem.s, p + ny_extra)
        else:
            ypts, wy = weighted_rule(a, b, alpha, 2 * p + 2 * ny_extra)
        hy = b - a
        ty = (ypts - a) / hy
        Bv = shape_values(p, ty)
        Dv = shape_derivatives(p, ty) / hy
        table = dofmap.element_table([m])[0]
        keep = table >= 0  # the constrained top vertex (-1) is dropped
        Gy = U[:, table[keep]] @ Bv[keep]   # (N_omega, nq_y): FE x-nodal values per y point
        Gdy = U[:, table[keep]] @ Dv[keep]

        for q in range(ypts.size):
            y = ypts[q]
            nodal = Gy[:, q].reshape(nodal_shape)
            fe = [_along_axes(tables, nodal) for tables in grad_tables]
            fe.append(_along_axes([vals] * d, Gdy[:, q].reshape(nodal_shape)))
            ex = [np.zeros_like(fe[0]) for _ in fe]
            for root, val, grads in modes:
                pz = psi(profile, root * y)
                for i in range(d):
                    ex[i] += pz * grads[i]
                ex[d] += root * psi_prime(profile, root * y) * val
            integrand = sum((fe_i - ex_i) ** 2 for fe_i, ex_i in zip(fe, ex))
            total += wy[q] * float(np.vdot(integrand, weights))

    total += tail_energy(problem, mesh.Y)
    return math.sqrt(total)


def _singular_bottom_rule(h1: float, alpha: float, s: float, npts: int):
    """Composite quadrature for the first cylinder slab, absorbing the
    ``y**alpha`` weight.

    The exact solution's vertical derivative behaves like ``y**(2s-1)``
    there, so a single weight-adapted rule converges slowly; geometric
    subdivision toward 0 restores fast convergence. The innermost piece uses
    the weight-exact rule; its leftover singular mass is ``O(delta**(2s))``
    and the piece count is chosen to push that below 1e-9.
    """
    ratio = 0.2
    pieces = min(150, max(6, math.ceil(9.0 / (2.0 * s * math.log10(1.0 / ratio)))))
    cuts = h1 * ratio ** np.arange(pieces, -1, -1)
    pts, wts = weighted_rule(0.0, cuts[0], alpha, 2 * npts)
    all_pts, all_wts = [pts], [wts]
    for a, b in zip(cuts[:-1], cuts[1:]):
        pts, wts = weighted_rule(a, b, alpha, 2 * npts)
        all_pts.append(pts)
        all_wts.append(wts)
    return np.concatenate(all_pts), np.concatenate(all_wts)
