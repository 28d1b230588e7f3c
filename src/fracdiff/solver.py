"""Exact solver for the tensor-product system
``S = B_mass (x) A_stiff + B_stiff (x) A_mass``.

Both solvers rest on fast diagonalization (Lynch, Rice & Thomas, 1964). The
uniform P1/Q1 base matrices have closed-form sine eigenvectors, so an
orthonormal DST-I diagonalizes the base direction and ``S`` splits into one
extended-direction system ``omega*B_mass + B_stiff`` per base eigenvalue
``omega``; in d=2 the modes ``(k, l)`` and ``(l, k)`` share one shift.

The run path, :func:`solve_trace`, needs only the trace at ``y = 0`` of the
solution for the cylinder right-hand side ``e0 (x) load``. It maps the
load's orthonormal DST-I coefficients to the trace's, ``r_h(omega)/m`` times
them with ``m`` the base mass eigenvalues and ``r_h(omega) = e0^T
(omega*B_mass + B_stiff)^-1 e0`` one scalar per distinct shift, and makes no
transform. :func:`y_resolvent` folds ``r_h`` through the y-element
matrices, never through the assembled pair, at a few hundred points of
``ln(omega)``, and every shift takes the interpolant of ``f = omega**s *
r_h`` (:class:`_Interpolant`). The certificate ``0 < d_s * f <= 1 +
margin`` stands in for a residual check; the interpolant is certified at
its points and checked against the fold between them before any shift is
evaluated. Working set: two arrays of ``N_omega`` doubles, the load's and
the trace's coefficients, and one chunk of shifts (:func:`trace_bytes`); no
``(N_omega, N_y)`` array, no base-domain matrix, and no array of
``N_omega`` (or ``N_omega/2``) shifts, ``r_h``, mode indices or mass
eigenvalues.

``solve``, the tests' oracle, computes the whole ``(N_omega, N_y)``
coefficient tensor and checks it; its base-direction transforms are
``scipy.fft.dstn``. Every such tensor this module returns is in Fortran
order, the flat layout under which the dense operator is exactly
``kron(B_mass, A_stiff) + kron(B_stiff, A_mass)``. Each shift's dense
assembled pair ``omega*B_mass + B_stiff`` is solved by LAPACK, and iterative
refinement brings the true residual below tolerance. It is a reference for
desk sizes: its working set is the dense pairs (distinct shifts times
``N_y**2`` doubles) and a few arrays of ``N_total`` doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fem1d import WeightedMatrices
from .femomega import OmegaGrid, OmegaMatrices


class SolverError(RuntimeError):
    """The level could not be built, the y-resolvent certificate failed at
    an interpolation point or a shift, the interpolant of ``r_h`` was off
    the fold at a panel's midpoint, a bump block of the fold or an
    assembled pair of the full solve met a non-positive pivot, refinement
    stopped short of ``rel_tol`` or the energy identity failed; non-finite
    y-element matrices are a ``MeshError`` of assembly."""

    def __init__(self, message: str, residual: float = math.nan, iterations: int = 0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class KroneckerSystem:
    """The implicit system operator; never formed densely."""

    omega: OmegaMatrices
    y: WeightedMatrices

    @property
    def n_omega(self) -> int:
        return self.omega.grid.n_dofs

    @property
    def n_y(self) -> int:
        return self.y.n_dofs

    @property
    def n_total(self) -> int:
        return self.n_omega * self.n_y


def _as_tensor(system: KroneckerSystem, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.size != system.n_total:
            raise ValueError(f"expected vector of length {system.n_total}")
        return x.reshape((system.n_omega, system.n_y), order="F"), True
    if x.shape != (system.n_omega, system.n_y):
        raise ValueError(f"expected shape {(system.n_omega, system.n_y)}")
    return x, False


def kron_matvec(system: KroneckerSystem, x) -> np.ndarray:
    """Apply the operator: ``A_stiff X B_mass^T + A_mass X B_stiff^T`` on the
    matricized coefficients. Accepts flat vectors or tensors and returns the
    same shape; a tensor result is in Fortran order."""
    X, flat = _as_tensor(system, x)
    out = system.omega.A_stiff @ (system.y.B_mass @ X.T).T
    out += system.omega.A_mass @ (system.y.B_stiff @ X.T).T
    out = np.asfortranarray(out)
    return out.reshape(-1, order="F") if flat else out


def cylinder_rhs(system: KroneckerSystem, load: np.ndarray) -> np.ndarray:
    """Fortran-ordered right-hand side: the base-domain load fills column 0, the
    y-dof at the bottom of the cylinder; only that column is resident."""
    load = np.asarray(load, dtype=float)
    if load.shape != (system.n_omega,):
        raise ValueError(f"expected load vector of length {system.n_omega}")
    rhs = np.zeros((system.n_omega, system.n_y), order="F")
    rhs[:, 0] = load
    return rhs


def _p1_eigenvalues(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mass and stiffness eigenvalues of the uniform 1-D P1 matrices for the
    sampled sines ``sin(k*pi*x_i)``, ``k = 1..n-1``; half-angle forms avoid
    the cancellation in ``1 - cos(k*pi*h)`` for small ``k``."""
    h = 1.0 / n
    sin2 = np.sin(np.arange(1, n) * (math.pi * h / 2.0)) ** 2
    return h * (1.0 - 2.0 * sin2 / 3.0), 4.0 * sin2 / h


@dataclass
class _Bumps:
    """One element's bump block in its generalized eigenbasis ``W``:
    ``W^T Sbb W = diag(theta)`` and ``W^T Mbb W = I``. With ``P`` and ``Q``
    the couplings of its two vertex rows to the bumps in that basis, of the
    mass and the stiffness, ``Z`` holds the entrywise products that
    :func:`_pole_sums` weighs by ``1/(w + theta)``: ``(P0 P1, P0 Q1 + Q0 P1,
    Q0 Q1, P0 Pbar, P1 Pbar, Q0 Pbar, Q1 Pbar)``, ``Pbar = P0 + P1`` the
    column sums of ``P``."""

    theta: np.ndarray
    Z: np.ndarray


def _condense(m: int, Xm: np.ndarray, Xs: np.ndarray) -> _Bumps:
    """The :class:`_Bumps` of element ``m`` (degree >= 2) from its element
    matrices, whose rows 0-1 are its two vertices, the constrained top
    vertex of the top element included."""
    pivot_error = SolverError(
        f"non-positive pivot in the extended-direction factorization (bump block of "
        f"element {m}): the y-matrix pair is not symmetric positive definite")
    try:
        # W = L^-T V / sqrt(mu) with L L^T the bump stiffness and (mu, V)
        # the eigenpairs of L^-1 Mbb L^-T, theta = 1/mu. The stiffness block
        # of the integrated-Legendre bumps stays near a multiple of the
        # identity, while the mass block's condition grows with the degree
        # (1.1e5 at degree 45): factoring the mass lost r_h to 2.5e-14 there
        # and 2.8e-13 at degree 86. The explicit inverse of L costs fewer
        # calls than triangular solves on blocks this small
        Linv = np.linalg.inv(np.linalg.cholesky(Xs[2:, 2:]))
        mu, V = np.linalg.eigh(Linv @ Xm[2:, 2:] @ Linv.T)
    except np.linalg.LinAlgError as exc:
        raise pivot_error from exc
    if not mu[0] > 0.0:
        raise pivot_error
    theta = 1.0 / mu
    W = Linv.T @ (V / np.sqrt(mu))
    P, Q = Xm[2:, :2].T @ W, Xs[2:, :2].T @ W
    Pbar = P[0] + P[1]
    Z = np.concatenate([P[:1] * P[1:], P[:1] * Q[1:] + Q[:1] * P[1:], Q[:1] * Q[1:],
                        P * Pbar, Q * Pbar])
    return _Bumps(theta, Z)


def _pole_sums(el: _Bumps, w: np.ndarray):
    """What the bumps of one element add to its two-port at the shifts
    ``w``, with the coupling ``C = w*P + Q``: ``poles = sum_k C_0k C_1k /
    (w + theta_k)``, added to the coupling ``g``, and ``rho_i = w * sum_k
    C_ik Pbar_k / (w + theta_k)`` (``Pbar`` the column sums of ``P``),
    subtracted from the row sums. With ``C`` expanded in ``w``, every sum
    over the bumps is one row of the BLAS product ``S = Z @ inv``, ``inv =
    1/(w + theta)``, and on ``S``'s own rows ``poles = (S0*w + S1)*w + S2``
    and ``rho = w*(w*S_P + S_Q)``, ``S_P`` and ``S_Q`` the rows of the
    ``Pbar`` products of ``P`` and of ``Q``. Every term keeps its pole:
    moving the polynomial part of the sums into the element's affine
    scalars (partial fractions) lost accuracy. The returned rows are views
    of ``S``; ``inv`` is freed on return."""
    inv = np.add.outer(el.theta, w)
    np.divide(1.0, inv, out=inv)
    S = el.Z @ inv
    poles, rho = S[0], S[3:5]
    poles *= w
    poles += S[1]
    poles *= w
    poles += S[2]
    rho *= w
    rho += S[5:]
    rho *= w
    return poles, rho


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # the certificate rejects them
def y_resolvent(y: WeightedMatrices, shifts: np.ndarray) -> np.ndarray:
    """``r_h(w) = e0^T (w*B_mass + B_stiff)^-1 e0`` at every shift ``w``,
    read from the element matrices, never from the assembled pair.

    Each element's bumps are condensed onto its two vertices (through the
    generalized eigenpairs of its bump block), and the chain of these 2x2
    Schur complements is folded from the constrained top vertex down to
    vertex 0: the admittance ``q`` seen from a vertex becomes
    ``rho0 + g*t/(g + t)`` with ``t = rho1 + q`` through an element; ``r_h
    = 1/q``. That equals ``E00 - g**2/(E11 + q)``, and ``g + t = E11 + q``
    is positive for a positive definite pair, but for ``g > 0`` nothing is
    subtracted. The clamped top vertex admits without bound, so the fold
    starts with ``t = g``, the limit of ``g*t/(g + t)``: the top element's
    ``E00`` is ``rho0 + g``. Eliminating with the off-diagonals and row
    sums as the data is the GTH idea (Grassmann, Taksar & Heyman, 1985);
    the sums of element entries that an elimination of the assembled
    matrices works with lose r_h on strongly graded meshes.

    The element data are read from the group arrays: rows 0-1 are the
    vertex block at every degree, so with ``m`` and ``s`` an element's mass
    and stiffness its two-port at ``w`` is ``g = -(w*m01 + s01)`` and
    ``rho_i = w*(m_i0 + m_i1)``, plus the :func:`_pole_sums` of its
    :class:`_Bumps` at degree >= 2 (condensed in ascending order, so a pivot
    error names the lowest element). One loop folds every element, topmost
    first, whatever its degree, with in-place ufuncs on the rows ``g`` and
    ``t``: nine calls an element of degree 1, and an element with bumps
    adds its pole sums, one BLAS product and in-place calls on its rows.
    Each product and sum is the one of the element's two-port with the
    operands swapped or the sign moved, so the result is bitwise that of
    one two-port per element. The run path folds only the few hundred
    points of :func:`_interpolant`. There the plain two-port arithmetic, a
    new array per operation, was slower where the elements are many:
    h-FEM s=0.2 d=1 n=1024 folded its 331 points in 9.9 against 5.3 ms,
    and hp-FEM levels, whose condensation dominates, took about the same
    (timeit minima, 2 cores, one BLAS thread, numpy 2.4)."""
    M = y.mesh.M  # not y.dofmap: building it would outlive the call
    blocks, affine = {}, np.empty((4, M))
    for ms, mass, stiff in y.groups:
        affine[:, ms - 1] = (-mass[:, 0, 1], stiff[:, 0, 1], mass[:, 0, 0] + mass[:, 0, 1],
                             mass[:, 1, 0] + mass[:, 1, 1])
        if mass.shape[1] > 2:
            blocks.update(zip(ms.tolist(), zip(mass, stiff)))
    bumps = {m: _condense(m, *blocks[m]) for m in sorted(blocks)}
    w = np.array(shifts, dtype=float)
    q, g, t = (np.empty(w.size) for _ in range(3))
    for m, m01, s01, sum0, sum1 in zip(range(M, 0, -1), *affine[:, ::-1].tolist()):
        el = bumps.get(m)
        np.multiply(w, m01, out=g)
        g -= s01
        if el is not None:
            poles, rho = _pole_sums(el, w)
            g += poles
        if m == M:
            t[:] = g  # the clamped top vertex: g*t/(g + t) is g as t grows
        else:
            np.multiply(w, sum1, out=t)
            if el is not None:
                t -= rho[1]
            t += q
            np.add(g, t, out=q)
            t *= g
            t /= q
        np.multiply(w, sum0, out=q)
        if el is not None:
            q -= rho[0]
            del poles, rho  # freed before the next element's coupling is formed
        q += t
    return np.divide(1.0, q, out=q)


# The interpolant of f = omega**s * r_h (see solve_trace): panels of width 1
# in x = ln(omega), _PANEL_POINTS Chebyshev-Lobatto points each, fixed by the
# a-priori bound. _NODES are the points on a panel, ascending from 0 to 1,
# with barycentric weights (-1)**j, halved at the ends (Berrut & Trefethen,
# SIAM Rev. 2004).
_PANEL_POINTS = 22
_NODES = np.sin(np.arange(_PANEL_POINTS) * (math.pi / (2 * _PANEL_POINTS - 2))) ** 2
_WEIGHTS = np.where(np.arange(_PANEL_POINTS) % 2, -1.0, 1.0)
_WEIGHTS[[0, -1]] *= 0.5
# The largest relative gap of the interpolant to the fold at a panel's
# midpoint: the fold's rounding, at most 7.3e-15 for n <= 1024, growing as
# about sqrt(M) to 5.9e-14 at M = 1e5 and 1.4e-13 at M = 1e6 (h-FEM s=0.2 d=1
# n=1024 with m_mult 100 and 1000). A point 1e-9 off moved it by 9.5e-11
_GAP_BOUND = 1e-12
# Bytes of one chunk of shifts that the interpolant evaluates: per shift its
# (_PANEL_POINTS,) quotients, its (panels + 1,) sums and twelve doubles more
_CHUNK_BYTES = 1 << 20


@dataclass
class _Interpolant:
    """``f = omega**s * r_h`` on the unit panels of ``x = ln(omega)`` from
    ``x0`` on: ``table`` holds ``f`` at the points of a panel a row, and a
    shift takes the barycentric interpolant of its panel; ``cells`` shifts a
    chunk fit ``_CHUNK_BYTES``. Only :func:`_interpolant` builds one, and
    certifies it first."""

    x0: float
    table: np.ndarray  # (panels + 1, _PANEL_POINTS): a row a panel, and ones
    cells: int

    @np.errstate(divide="ignore", invalid="ignore")  # a shift on a point: 0/0, replaced
    def __call__(self, w: np.ndarray) -> np.ndarray:
        t = np.log(w)
        t -= self.x0
        p = np.floor(t)
        np.clip(p, 0.0, self.table.shape[0] - 2, out=p)
        t -= p  # the coordinate on the panel p
        C = np.subtract.outer(_NODES, t)
        np.divide(_WEIGHTS[:, None], C, out=C)
        sums = self.table @ C  # the numerator of every panel, and the denominator
        p = p.astype(np.intp)
        f = sums[p, np.arange(t.size)]
        f /= sums[-1]
        on = np.flatnonzero(np.isinf(sums[-1]))  # shifts on a point take its value
        f[on] = self.table[p[on], np.searchsorted(_NODES, t[on])]
        return f


def _interpolant(y: WeightedMatrices, lo: float, hi: float, *, s: float, d_s: float,
                 margin: float) -> _Interpolant:
    """The :class:`_Interpolant` on the unit panels that cover ``[lo,
    hi]``, from one fold of their points and midpoints. Before it returns,
    the certificate must hold at every point (:func:`_certify`), and the
    interpolant at each panel's midpoint must match the fold there within
    ``_GAP_BOUND``; either failure raises :class:`SolverError`."""
    x0 = math.log(lo)
    panels = max(1, math.ceil(math.log(hi) - x0))
    x = np.arange(panels)[:, None] + _NODES  # neighbouring panels share a point
    points = np.exp(x0 + np.append(x[:, :-1], panels))
    mids = np.exp(x0 + (np.arange(panels) + 0.5))
    folded = y_resolvent(y, np.concatenate([points, mids]))
    f = folded[:points.size] * np.power(points, s)
    _certify(*_failures(points, f, d_s, margin), f"{points.size} interpolation points", margin)
    table = np.ones((panels + 1, _PANEL_POINTS))
    table[:-1] = f[(_PANEL_POINTS - 1) * np.arange(panels)[:, None] + np.arange(_PANEL_POINTS)]
    f_h = _Interpolant(x0, table, _CHUNK_BYTES // (8 * (_PANEL_POINTS + panels + 13)))
    gaps = np.abs(f_h(mids) / (folded[points.size:] * np.power(mids, s)) - 1.0)
    j = np.argmax(gaps)
    if not gaps[j] <= _GAP_BOUND:
        raise SolverError(
            f"y-resolvent interpolant is off the fold by {gaps[j]:.3g} relative at omega="
            f"{mids[j]:.6g}, the midpoint of panel {j + 1} of {panels}: more than "
            f"{_GAP_BOUND:g}")
    return f_h


def _failures(w: np.ndarray, f: np.ndarray, d_s: float,
              margin: float) -> tuple[int, tuple[float, float]]:
    """How many of the shifts ``w`` fail the certificate ``0 < d_s * f <=
    1 + margin``, with ``f`` their ``omega**s * r_h``, and the smallest
    failing shift with its ratio, ``(inf, nan)`` if none fails."""
    ratio = d_s * f
    bad = np.flatnonzero(~((ratio > 0.0) & (ratio <= 1.0 + margin)))
    if not bad.size:
        return 0, (math.inf, math.nan)
    j = bad[np.argmin(w[bad])]
    return bad.size, (float(w[j]), float(ratio[j]))


def _certify(failed: int, first: tuple[float, float], of: str, margin: float):
    """Raise the certificate's :class:`SolverError` if ``failed`` of ``of``
    failed it, naming the smallest failing shift ``first`` of
    :func:`_failures`."""
    if failed:
        w, ratio = first
        raise SolverError(
            f"y-resolvent certificate failed at {failed} of {of}, first at shift omega="
            f"{w:.6g}: d_s*omega**s*r_h = {ratio:.6g} is not in (0, 1 + {margin:g}]")


def _scale(G: np.ndarray, f_h: _Interpolant, mass: np.ndarray, sigma: np.ndarray, d: int, *,
           s: float, d_s: float, margin: float):
    """``G *= r_h/m`` in place on the load's coefficients ``G``, ``r_h =
    f_h(omega)/omega**s``; after the last chunk, the certificate must hold
    at every distinct shift (:func:`_certify`). In d=2 the cell ``(k, l)``
    has ``omega = sigma_k + sigma_l`` and ``m = m_k*m_l``; d=1 is the one
    row of ``sigma_k = 0`` and ``m_k = 1``. Bands of rows ``I`` go in
    chunks ``(I, J)``, ``J`` from ``I``'s first row on, of at most
    ``f_h.cells`` cells. A chunk evaluates its cells ``k <= l`` and scales
    them and, in d=2, their mirror: float addition commutes, so ``(l, k)``
    has the shift of ``(k, l)``."""
    n = sigma.size
    row_sigma, row_mass = (sigma, mass) if d == 2 else (np.zeros(1), np.ones(1))
    G = G.reshape(row_sigma.size, n)
    rows = max(1, f_h.cells // n)
    width = f_h.cells // rows
    failed, first = 0, (math.inf, math.nan)
    for k0 in range(0, row_sigma.size, rows):
        I = slice(k0, min(k0 + rows, row_sigma.size))
        for c0 in range(k0, n, width):
            J = slice(c0, min(c0 + width, n))
            R = np.add.outer(row_sigma[I], sigma[J])
            cells = np.less_equal.outer(np.arange(I.start, I.stop), np.arange(J.start, J.stop))
            w = R[cells]
            f = f_h(w)
            count, least = _failures(w, f, d_s, margin)
            failed, first = failed + count, min(first, least)
            # in place: w is not read again, and a temporary here took the
            # peak RSS of the d=2 levels about 0.15 MB higher
            f /= np.power(w, s, out=w)
            R[cells] = f
            if c0 == k0:  # the square I x I: its cells l < k mirror those above
                square = R[:, :I.stop - k0]
                np.copyto(square, square.T, where=~cells[:, :I.stop - k0])
            R /= np.multiply.outer(row_mass[I], mass[J])
            G[I, J] *= R
            if d == 2:  # the columns l >= I.stop, mirrored below the band
                beyond = max(I.stop - c0, 0)
                G[c0 + beyond:J.stop, I] *= R[:, beyond:].T
    _certify(failed, first, f"{n * (n + 1) // 2 if d == 2 else n} shifts", margin)


def trace_bytes(n_omega: int) -> int:
    """The bytes that :func:`solve_trace` and the load hold at their peak
    on ``n_omega`` base-domain dofs, whatever the y-mesh: two arrays of
    ``n_omega`` doubles, the load's and the trace's coefficients, and one
    chunk of ``_CHUNK_BYTES``; the fold of the interpolant holds less."""
    return 16 * n_omega + _CHUNK_BYTES


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # the certificate rejects them
def solve_trace(grid: OmegaGrid, y: WeightedMatrices, load: np.ndarray, *, s: float, d_s: float,
                margin: float) -> np.ndarray:
    """Orthonormal DST-I coefficients of the nodal trace at ``y = 0`` of the
    solution of ``S X = e0 (x) F``, ``F`` the nodal load and ``load`` its
    coefficients (:func:`~fracdiff.femomega.assemble_load`): ``r_h/m *
    load``, with no transform, ``r_h`` at every distinct shift, whichever
    modes the load holds, and ``m`` the base mass eigenvalues. The shifts
    are the ``sigma_k`` in d=1, and the cells ``k <= l`` of :func:`_scale`
    in d=2.

    ``r_h(omega) = sum_j c_j/(omega + mu_j)`` with ``c_j >= 0`` and ``mu_j >
    0``, so ``f(x) = exp(s*x) * r_h(exp(x))`` is analytic in ``|Im x| <
    pi`` for every mesh, degree and ``s``. On panels of width 1 in ``x =
    ln(omega)``, its interpolant in 22 Chebyshev-Lobatto points errs by at
    most ``28 * 6.44**-22``, 3e-16 relative (Trefethen, *Approximation
    Theory and Approximation Practice*, Thm 8.2; Bonito & Pasciak, Math.
    Comp. 2015, use the same strip). So the level folds the points of the
    panels over ``[d sigma_1, d sigma_{n-1}]`` once, a few hundred whatever
    ``N_omega``, ``M`` and ``N_Y``, and interpolates ``f`` at every shift.

    The certificate ``0 < d_s * f = d_s * w**s * r_h(w) <= 1 + margin``
    stands in for a residual check: the exact extension gives 1, and the
    Galerkin subspace and the truncation can only lower it. The four steps
    are the base eigenvalues, the :func:`_interpolant`, which is certified
    at its points and checked against the fold at each panel's midpoint
    before any shift is evaluated, the copy of the load, and
    :func:`_scale`, which raises the certificate at the distinct shifts
    after its last chunk, naming the smallest failing shift."""
    mass, stiff = _p1_eigenvalues(grid.n)
    sigma = stiff / mass
    cert = dict(s=s, d_s=d_s, margin=margin)
    f_h = _interpolant(y, grid.d * sigma[0], grid.d * sigma[-1], **cert)
    G = np.array(load, dtype=float)  # a copy: scaled in place
    _scale(G, f_h, mass, sigma, grid.d, **cert)
    return G


@dataclass
class TensorPreconditioner:
    """Exact inverse of ``S``: the sine transform in the base direction and
    a dense solve of the assembled pair ``omega*B_mass + B_stiff`` in y; in
    :func:`solve` it is the preconditioner of iterative refinement. It
    holds one dense pair per distinct shift, distinct shifts times
    ``N_y**2`` doubles: a reference for desk sizes."""

    base_shape: tuple
    mass_eig: np.ndarray  # (N_omega,): the mass eigenvalue of every mode
    shifts: np.ndarray    # the distinct shifts, ascending
    shift_of: np.ndarray  # (N_omega,): the index in shifts of every mode
    pairs: np.ndarray     # (distinct shifts, N_y, N_y): omega*B_mass + B_stiff

    @classmethod
    def build(cls, system: KroneckerSystem) -> "TensorPreconditioner":
        """The dense assembled pair of every distinct shift, each checked
        positive definite by a Cholesky factorization. The modes are mapped
        to their shifts by sorting the shift of every mode (``np.unique``),
        as a reference for the chunks of :func:`_scale`."""
        grid = system.omega.grid
        mass, stiff = _p1_eigenvalues(grid.n)
        mass_eig = reduce(np.multiply.outer, [mass] * grid.d).ravel()
        shifts, shift_of = np.unique(reduce(np.add.outer, [stiff / mass] * grid.d).ravel(),
                                     return_inverse=True)
        pairs = np.multiply.outer(shifts, system.y.B_mass.toarray())
        pairs += system.y.B_stiff.toarray()
        for w, K in zip(shifts, pairs):
            try:
                np.linalg.cholesky(K)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"non-positive pivot in the dense factorization at shift omega={w:.6g}: "
                    "the assembled y-matrix pair is not numerically positive definite"
                ) from exc
        return cls((grid.n - 1,) * grid.d, mass_eig, shifts, shift_of, pairs)

    def apply(self, R: np.ndarray) -> np.ndarray:
        """``S^-1 R`` for an ``(N_omega, N_y)`` tensor, returned in Fortran
        order; ``R`` is left unchanged. The modes of one shift are solved in
        one call, each as a system of its own, so sharing a pair changes no
        bit."""
        from scipy.fft import dstn  # the full solve's oracle; the run path makes no transform

        axes = tuple(range(1, len(self.base_shape) + 1))
        sine = lambda X: dstn(X.reshape(-1, *self.base_shape), type=1, axes=axes,
                              norm="ortho").reshape(X.shape)
        G = sine(R.T)
        G /= self.mass_eig
        for j, K in enumerate(self.pairs):
            cols = self.shift_of == j
            G[:, cols] = np.linalg.solve(K, G[:, cols].T[:, :, None])[:, :, 0].T
        return sine(G).T


@dataclass
class SolutionTensor:
    """Solution coefficients of shape ``(N_omega, N_y)`` with solver
    statistics."""

    coefficients: np.ndarray
    iterations: int
    residual: float

    @property
    def trace(self) -> np.ndarray:
        """Coefficients of the unique y-basis function supported at the
        bottom of the cylinder; nodal values of the trace."""
        return self.coefficients[:, 0].copy()


def solve(system: KroneckerSystem, rhs, rel_tol: float = 1e-10) -> SolutionTensor:
    """Exact solve refined until the true relative residual
    ``||B - S X|| / ||B||`` is at most ``rel_tol``.

    ``iterations`` counts applications of the inverse
    (:class:`TensorPreconditioner`). Raises :class:`SolverError` on an
    assembled pair that is not numerically positive definite, or when a
    refinement step fails to halve the residual: below 1 that is
    ``rel_tol`` under the attainable floor, at or above 1 (no better than
    ``X = 0``) an inverse that is inaccurate on this mesh. Working set: the
    inverse's dense pairs and a few arrays of ``N_total`` doubles, desk
    sizes only.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    B, _ = _as_tensor(system, rhs)
    norm_b = float(np.linalg.norm(B))
    if norm_b == 0.0:
        return SolutionTensor(np.zeros_like(B), 0, 0.0)
    inverse = TensorPreconditioner.build(system)
    X = inverse.apply(B)
    applies, previous = 1, math.inf
    while True:
        R = B - kron_matvec(system, X)
        relres = float(np.linalg.norm(R)) / norm_b
        if relres <= rel_tol:
            return SolutionTensor(X, applies, relres)
        if not (math.isfinite(relres) and relres <= 0.5 * previous):
            cause = (f"rel_tol={rel_tol:.1e} is below the attainable floor" if relres < 1.0
                     else "no better than X = 0: the inverse is inaccurate on this mesh")
            raise SolverError(
                f"residual stalled at {relres:.3e} after {applies} applications of "
                f"the inverse; {cause}",
                residual=relres,
                iterations=applies,
            )
        previous = relres
        X += inverse.apply(R)
        applies += 1
