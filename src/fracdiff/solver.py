"""Exact solver for the tensor-product system
``S = B_mass (x) A_stiff + B_stiff (x) A_mass``.

Both solvers rest on fast diagonalization (Lynch, Rice & Thomas, 1964). The
uniform P1/Q1 base matrices have closed-form sine eigenvectors, so an
orthonormal DST-I diagonalizes the base direction and ``S`` splits into one
extended-direction system ``omega*B_mass + B_stiff`` per base eigenvalue
``omega``; in d=2 the modes ``(k, l)`` and ``(l, k)`` share one shift, and
the run path folds the cells ``k <= l`` in square tiles, each applied to its
cells and their mirror (:func:`_scale_tiles`).

The run path, :func:`solve_trace`, needs only the trace at ``y = 0`` of the
solution for the cylinder right-hand side ``e0 (x) load``. It maps the
load's orthonormal DST-I coefficients to the trace's, ``r_h(omega)/m`` times
them with ``m`` the base mass eigenvalues and ``r_h(omega) = e0^T
(omega*B_mass + B_stiff)^-1 e0`` one scalar per distinct shift, and makes no
transform. :func:`y_resolvent` folds ``r_h``
through the y-element matrices, never through the assembled pair, in one
loop over the elements of every degree: per-element scalars read off the
group arrays, in-place ufuncs on two buffers, and for an element with bumps
its pole sums, formed and freed before the next element. The certificate
``0 < d_s * omega**s * r_h <= 1 + margin`` stands in for a residual check.
Working set: two arrays of ``N_omega`` doubles, the load's and the trace's
coefficients, and a fixed budget of ``_BLOCK_BYTES`` for one shift block or
d=2 tile (:func:`trace_bytes`); no ``(N_omega, N_y)`` array, no base-domain
matrix, and no array of ``N_omega`` (or ``N_omega/2``) shifts, ``r_h``,
mode indices or mass eigenvalues.

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
    """The level could not be built, the y-resolvent certificate failed, a
    bump block of the fold or an assembled pair of the full solve met a
    non-positive pivot, refinement stopped short of ``rel_tol`` or the
    energy identity failed; non-finite y-element matrices are a
    ``MeshError`` of assembly."""

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


# Bytes of the temporaries of one block of shift columns of the fold: a
# block of :func:`y_resolvent`, or a d=2 tile of :func:`_scale_tiles`.
_BLOCK_BYTES = 4 << 20


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


# Rows of one shift column that the fold holds besides 1/(omega + theta)
# (see _block_columns): the 7 rows of an element's pole sums S = Z @ inv, the
# fold's four buffers (the shifts, the admittance, g and t; see _rows), and
# one row for the padding of those four. Each is padded to a multiple of 512
# doubles plus 128, and the buffer by 511 more: at most 3,067 doubles, less
# than one row at every block of 3,067 columns or more, which is every block
# of an element of up to 158 bumps. An element without bumps uses the four.
_FOLD_ROWS = 12


def _block_columns(bumps: int) -> int:
    """The shift columns whose fold temporaries for an element of up to
    ``bumps`` bumps fit ``_BLOCK_BYTES``: per column ``1/(omega + theta)``,
    one row per bump, and ``_FOLD_ROWS`` rows."""
    return max(1, _BLOCK_BYTES // (8 * (bumps + _FOLD_ROWS)))


def _shift_blocks(n: int, bumps: int) -> list[slice]:
    """Slices of ``n`` shift columns in blocks of :func:`_block_columns`.
    The last block takes what is left, one column or more: the block size
    moves the fold by a few ulp (see :func:`y_resolvent`)."""
    step = _block_columns(bumps)
    return [slice(j, min(j + step, n)) for j in range(0, max(n, 1), step)]


def _condense(m: int, Xm: np.ndarray, Xs: np.ndarray) -> _Bumps:
    """The :class:`_Bumps` of element ``m`` (degree >= 2) from its element
    matrices, whose rows 0-1 are its two vertices, the constrained top
    vertex of the top element included."""
    try:
        # W = L^-T V with L L^T the bump mass and V the eigenvectors of
        # L^-1 Sbb L^-T (LAPACK's sygv, itype 1); the explicit inverse of L
        # costs fewer calls than triangular solves on blocks this small
        Linv = np.linalg.inv(np.linalg.cholesky(Xm[2:, 2:]))
        theta, V = np.linalg.eigh(Linv @ Xs[2:, 2:] @ Linv.T)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"non-positive pivot in the extended-direction factorization (bump block of "
            f"element {m}): the y-matrix pair is not symmetric positive definite"
        ) from exc
    W = Linv.T @ V
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


def _fold_chain(y: WeightedMatrices) -> list[tuple]:
    """The element data of the fold, read from the group arrays: every
    element, topmost first, as ``(-m01, s01, m00 + m01, m10 + m11, bumps)``
    with ``m`` and ``s`` its mass and stiffness. Rows 0-1 are the vertex
    block at every degree, so the element's two-port at a shift ``w`` is
    ``g = -(w*m01 + s01)`` and ``rho_i = w*(m_i0 + m_i1)`` plus its
    :func:`_pole_sums`. ``bumps`` is the :class:`_Bumps` of an element of
    degree >= 2 (condensed in ascending order, so a pivot error names the
    lowest element), None for degree 1."""
    M = y.mesh.M  # not y.dofmap: building it would outlive the call
    bumps, affine = {}, np.empty((4, M))
    for ms, mass, stiff in y.groups:
        affine[:, ms - 1] = (-mass[:, 0, 1], stiff[:, 0, 1], mass[:, 0, 0] + mass[:, 0, 1],
                             mass[:, 1, 0] + mass[:, 1, 1])
        if mass.shape[1] > 2:
            bumps.update(zip(ms.tolist(), zip(mass, stiff)))
    condensed = {m: _condense(m, *bumps[m]) for m in sorted(bumps)}
    return list(zip(*affine[:, ::-1].tolist(), map(condensed.get, range(M, 0, -1))))


def _rows(n: int, count: int) -> list[np.ndarray]:
    """``count`` rows of ``n`` doubles in one buffer, each starting 1 KiB
    past a multiple of 4 KiB from the one before: rows that share their
    address bits 0-11 make loads falsely wait on stores (4K aliasing). Only
    four rows start at distinct bits 0-11: a fifth would start at those of
    row 0, so the fold holds no more than four. With rows allocated one by
    one, ``solve --scheme hfem --s 0.8 --d 2 --n 1024`` took 1.8-2.2 s or
    1.5-1.7 s depending only on the path of the checkout, which moves the
    heap; 1.4-1.7 s with these rows (2 cores)."""
    stride = -(-n // 512) * 512 + 128
    buf = np.empty(count * stride + 511)
    base = -buf.ctypes.data % 4096 // 8
    return [buf[base + k * stride:][:n] for k in range(count)]


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

    One loop folds every element, the top one included, whatever its
    degree, from the scalars of :func:`_fold_chain` with in-place ufuncs on
    the rows ``g`` and ``t``: nine calls an element of degree 1, and an
    element with bumps adds its :func:`_pole_sums`, one BLAS product and
    in-place calls on its rows. Each product and sum is the one of the
    element's two-port with the operands swapped or the sign moved, so the
    result is bitwise that of one two-port per element at the same shift
    blocks.
    Forming the rows ``g``, ``rho0`` and ``rho1`` of a chunk of elements at
    once, which leaves five calls an element, was slower on the benchmark
    levels: 8.1 against 6.5 ms for h-FEM n=1024 d=1, 0.73 against 0.49 ms
    for n=64 d=2 (2 cores, numpy 2.4). Runs in shift blocks: the working
    set beyond the result is a fixed budget. The blocks change ``r_h`` by
    a few ulp, not bitwise: BLAS rounds the pole sums of a block under
    four columns wide through other kernels (at most 7 ulp measured)."""
    chain = _fold_chain(y)
    blocks = _shift_blocks(shifts.size, max(y.mesh.degrees) - 1)
    rows = _rows(max(c.stop - c.start for c in blocks), 4)
    r = np.empty(shifts.size)
    for c in blocks:
        w, q, g, t = (row[:c.stop - c.start] for row in rows)
        w[:] = shifts[c]
        _fold(chain, w, q, g, t)
        r[c] = 1.0 / q
    return r


def _fold(chain: list[tuple], w: np.ndarray, q: np.ndarray, g: np.ndarray, t: np.ndarray):
    """The admittance ``q`` at vertex 0 of the :func:`_fold_chain` ``chain``
    at the shifts ``w``, in place, with ``g`` and ``t`` as scratch rows of
    ``w``'s size (see :func:`y_resolvent`)."""
    for i, (m01, s01, sum0, sum1, el) in enumerate(chain):
        np.multiply(w, m01, out=g)
        g -= s01
        if el is not None:
            poles, rho = _pole_sums(el, w)
            g += poles
        if i == 0:
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


def _failures(w: np.ndarray, r: np.ndarray, ratio: np.ndarray, *, s: float, d_s: float,
              margin: float) -> tuple[int, tuple[float, float]]:
    """How many of the shifts ``w`` fail the certificate ``0 < d_s * w**s *
    r_h(w) <= 1 + margin``, with ``r`` their ``r_h``, and the smallest
    failing shift with its ratio, ``(inf, nan)`` if none fails. ``ratio``
    is scratch of ``w``'s size."""
    np.power(w, s, out=ratio)
    ratio *= d_s
    ratio *= r
    bad = np.flatnonzero(~((ratio > 0.0) & (ratio <= 1.0 + margin)))
    if not bad.size:
        return 0, (math.inf, math.nan)
    j = bad[np.argmin(w[bad])]
    return bad.size, (float(w[j]), float(ratio[j]))


def _scale_tiles(G: np.ndarray, y: WeightedMatrices, mass: np.ndarray, sigma: np.ndarray, *,
                 s: float, d_s: float, margin: float) -> tuple[int, tuple[float, float]]:
    """``G[k, l] *= r_h/(m_k*m_l)`` at ``omega = sigma_k + sigma_l``, in
    place on the ``(n, n)`` d=2 coefficients ``G``; returns the
    certificate's :func:`_failures` over the cells ``k <= l``. The cells go
    in square tiles ``(I, J)``, ``I <= J``, of at most
    :func:`_block_columns` cells, a diagonal tile holding its cells ``k <=
    l`` alone. Each tile is folded in one block, in row order, and its
    ``r_h`` scales its cells and their mirror: float addition and
    multiplication commute, so ``(l, k)`` gets the shift and the products
    of ``(k, l)``, and the tile size moves only the fold. A tile's shifts,
    ``r_h`` and ratios, and its square layout of shifts, ``r_h`` and mass
    products, live in the fold's four rows (a level of one tile takes a
    buffer of its own for the layout): no array larger than a tile is
    formed."""
    chain = _fold_chain(y)
    n = sigma.size
    side = min(n, math.isqrt(_block_columns(max(y.mesh.degrees) - 1)))
    # a level of one tile folds only its cells k <= l, so its rows need no
    # more, and its square layout takes a buffer of its own: four square
    # rows added 0.2 MB to the peak RSS of the multimode-d2 benchmark
    w, q, g, t = _rows(side * side if side < n else n * (n + 1) // 2, 4)
    spare = g if side < n else np.empty(n * n)
    upper = np.triu(np.ones((side, side), dtype=bool))
    cuts = [slice(i, min(i + side, n)) for i in range(0, n, side)]
    failed, first = 0, (math.inf, math.nan)
    for a, I in enumerate(cuts):
        for J in cuts[a:]:
            shape = (I.stop - I.start, J.stop - J.start)
            if J is I:
                cells = upper[:shape[0], :shape[1]]
                tile = np.add.outer(sigma[I], sigma[J], out=spare[:cells.size].reshape(shape))
                shifts = np.compress(cells.ravel(), tile.ravel(),
                                     out=w[:np.count_nonzero(cells)])
            else:
                shifts = w[:shape[0] * shape[1]]
                np.add.outer(sigma[I], sigma[J], out=shifts.reshape(shape))
            size = shifts.size
            _fold(chain, shifts, q[:size], g[:size], t[:size])
            r = np.divide(1.0, q[:size], out=q[:size])
            count, least = _failures(shifts, r, t[:size], s=s, d_s=d_s, margin=margin)
            failed, first = failed + count, min(first, least)
            if J is I:
                blocks, R = (G[I, J],), tile
                R[cells] = r
                R.T[cells] = r
            else:
                blocks, R = (G[I, J], G[J, I].T), r.reshape(shape)
            for block in blocks:
                block *= R
            m = np.multiply.outer(mass[I], mass[J], out=spare[:R.size].reshape(shape))
            for block in blocks:
                block /= m
    return failed, first


def trace_bytes(n_omega: int) -> int:
    """The bytes that :func:`solve_trace` and the load hold at their peak
    on ``n_omega`` base-domain dofs, whatever the y-mesh: two arrays of
    ``n_omega`` doubles, the load's and the trace's coefficients, and one
    ``_BLOCK_BYTES`` budget for the fold's block or tile. The traced peak
    of ``run_level`` beyond the two arrays was 0.97 of the budget (hp-FEM)
    and 0.49 (h-FEM) at d=2 n=1024."""
    return 16 * n_omega + _BLOCK_BYTES


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # the certificate rejects them
def solve_trace(grid: OmegaGrid, y: WeightedMatrices, load: np.ndarray, *, s: float, d_s: float,
                margin: float) -> np.ndarray:
    """Orthonormal DST-I coefficients of the nodal trace at ``y = 0`` of the
    solution of ``S X = e0 (x) F``, ``F`` the nodal load and ``load`` its
    coefficients (:func:`~fracdiff.femomega.assemble_load`): ``r_h/m *
    load``, with no transform, ``r_h`` from the fold of :func:`y_resolvent`
    at every distinct shift, whichever modes the load holds, and ``m`` the
    base mass eigenvalues. In d=1 the shifts are the 1-D ``sigma_k``,
    ascending; in d=2 the cells ``k <= l`` go in the tiles of
    :func:`_scale_tiles`. No array of ``N_omega`` (or ``N_omega/2``) shifts,
    indices, ``r_h`` or mass eigenvalues is formed.

    The certificate ``0 < d_s * w**s * r_h(w) <= 1 + margin`` is checked at
    every distinct shift, and its failures are raised after the last tile,
    naming the smallest failing shift: the exact extension gives 1, and the
    Galerkin subspace and the truncation can only lower it."""
    mass, stiff = _p1_eigenvalues(grid.n)
    sigma = stiff / mass
    cert = dict(s=s, d_s=d_s, margin=margin)
    G = np.array(load, dtype=float)  # a copy: scaled in place
    if grid.d == 1:
        r = y_resolvent(y, sigma)
        failed, first = _failures(sigma, r, np.empty_like(r), **cert)
        G *= r
        G /= mass
        shifts = sigma.size
    else:
        failed, first = _scale_tiles(G.reshape(sigma.size, sigma.size), y, mass, sigma, **cert)
        shifts = sigma.size * (sigma.size + 1) // 2
    if failed:
        raise SolverError(
            f"y-resolvent certificate failed at {failed} of {shifts} shifts, first at shift "
            f"omega={first[0]:.6g}: d_s*omega**s*r_h = {first[1]:.6g} is not in (0, 1 + "
            f"{margin:g}]"
        )
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
        as a reference for the tiles of :func:`_scale_tiles`."""
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
