"""Exact solver for the tensor-product system
``S = B_mass (x) A_stiff + B_stiff (x) A_mass``.

The coefficient tensor is stored as an ``(N_omega, N_y)`` array; the flat
vector interface uses the layout that lists all base-domain coefficients of
the first y-basis function first (Fortran flattening of the tensor), under
which the dense equivalent of the operator is exactly
``kron(B_mass, A_stiff) + kron(B_stiff, A_mass)``.

``solve`` inverts ``S`` by fast diagonalization (Lynch, Rice & Thomas,
1964). The uniform P1/Q1 base matrices have closed-form sine eigenvectors,
so an orthonormal DST-I diagonalizes the base direction and ``S`` splits
into one extended-direction system ``omega*B_mass + B_stiff`` per base
eigenvalue ``omega``. Each of those is solved exactly: the bumps of every
element are condensed onto the vertex dofs through the element's own
generalized eigenpairs, and the remaining vertex tridiagonal is factored by
one LDL^T sweep that runs over all shifts at once. Iterative refinement with
the same factorization brings the true residual below the requested
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg

from .fem1d import WeightedMatrices
from .femomega import OmegaMatrices


class SolverError(RuntimeError):
    """The extended-direction factorization met a non-positive pivot, or
    iterative refinement stopped short of the requested tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
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
        return self.omega.n_dofs

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
    same shape."""
    X, flat = _as_tensor(system, x)
    out = system.omega.A_stiff @ (system.y.B_mass @ X.T).T
    out += system.omega.A_mass @ (system.y.B_stiff @ X.T).T
    return out.reshape(-1, order="F") if flat else out


def cylinder_rhs(system: KroneckerSystem, load: np.ndarray) -> np.ndarray:
    """Right-hand side tensor: the base-domain load enters through the
    single y-dof supported at the bottom of the cylinder (dof 0)."""
    load = np.asarray(load, dtype=float)
    if load.shape != (system.n_omega,):
        raise ValueError(f"expected load vector of length {system.n_omega}")
    rhs = np.zeros((system.n_omega, system.n_y))
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
    """One element's bump block in its generalized eigenbasis:
    ``W^T Sbb W = diag(theta)`` and ``W^T Mbb W = I``; ``P`` and ``Q`` are
    the vertex-bump mass and stiffness couplings in that basis."""

    verts: np.ndarray
    bumps: np.ndarray
    W: np.ndarray
    theta: np.ndarray
    P: np.ndarray
    Q: np.ndarray

    def coupling(self, shifts: np.ndarray) -> np.ndarray:
        """``omega*P + Q`` for every shift, shape ``(verts, bumps, shifts)``."""
        return self.P[:, :, None] * shifts + self.Q[:, :, None]

    def inverse_diagonal(self, shifts: np.ndarray) -> np.ndarray:
        """``1/(omega + theta)``, shape ``(bumps, shifts)``."""
        return 1.0 / np.add.outer(self.theta, shifts)


def _pivot_error(where: str) -> SolverError:
    return SolverError(
        f"non-positive pivot in the extended-direction factorization ({where}): "
        "the y-matrix pair is not symmetric positive definite",
        residual=math.nan,
        iterations=0,
    )


@dataclass
class TensorPreconditioner:
    """Exact inverse of ``S`` by fast diagonalization; in :func:`solve` it is
    the preconditioner of iterative refinement.

    Rows of the working tensor are y-dofs, columns base-domain eigenmodes,
    so every step below is vectorized over all shifts ``omega``; Python
    loops run over elements and vertices only.
    """

    d: int
    mass_eig: np.ndarray   # base-direction mass eigenvalue of every mode
    shifts: np.ndarray     # generalized eigenvalue omega of every mode
    elements: list         # _Bumps of every element with degree >= 2
    pivots: np.ndarray     # (vertices, shifts): D of the vertex LDL^T
    lower: np.ndarray      # (vertices - 1, shifts): subdiagonal of L

    @classmethod
    def build(cls, system: KroneckerSystem) -> "TensorPreconditioner":
        grid = system.omega.grid
        mass, stiff = _p1_eigenvalues(grid.n)
        if grid.d == 1:
            mass_eig, shifts = mass, stiff / mass
        else:
            mass_eig = np.outer(mass, mass).ravel()
            shifts = np.add.outer(stiff / mass, stiff / mass).ravel()

        Bm, Bs, dofmap = system.y.B_mass.tocsr(), system.y.B_stiff.tocsr(), system.y.dofmap
        nv = dofmap.M
        diag = np.outer(Bm.diagonal()[:nv], shifts) + Bs.diagonal()[:nv, None]
        off = (np.outer(Bm[:nv, :nv].diagonal(1), shifts)
               + Bs[:nv, :nv].diagonal(1)[:, None])

        elements = []
        for m, p in enumerate(dofmap.degrees, start=1):
            if p == 1:
                continue
            glob, _ = dofmap.element_dofs(m)
            verts, bumps = glob[glob < nv], glob[glob >= nv]
            try:
                theta, W = scipy.linalg.eigh(Bs[bumps][:, bumps].toarray(),
                                             Bm[bumps][:, bumps].toarray())
            except np.linalg.LinAlgError as exc:
                raise _pivot_error(f"bump block of element {m}") from exc
            el = _Bumps(verts, bumps, W, theta,
                        Bm[verts][:, bumps].toarray() @ W, Bs[verts][:, bumps].toarray() @ W)
            inv = el.inverse_diagonal(shifts)
            if not np.all(inv > 0.0):
                raise _pivot_error(f"bump block of element {m}")
            C = el.coupling(shifts)
            for i, vi in enumerate(verts):
                diag[vi] -= np.sum(C[i] * C[i] * inv, axis=0)
            if verts.size == 2:
                off[verts[0]] -= np.sum(C[0] * C[1] * inv, axis=0)
            elements.append(el)

        for i in range(nv - 1):
            off[i] /= diag[i]
            diag[i + 1] -= off[i] * off[i] * diag[i]
        if not np.all(diag > 0.0):
            raise _pivot_error("vertex tridiagonal")
        return cls(d=grid.d, mass_eig=mass_eig, shifts=shifts, elements=elements,
                   pivots=diag, lower=off)

    def _dst(self, T: np.ndarray) -> np.ndarray:
        """Orthonormal DST-I over the base-domain axes of a ``(N_y,
        N_omega)`` tensor; it is its own inverse."""
        if self.d == 1:
            return scipy.fft.dst(T, type=1, axis=1, norm="ortho", overwrite_x=True)
        m = math.isqrt(T.shape[1])
        out = scipy.fft.dstn(T.reshape(-1, m, m), type=1, axes=(1, 2), norm="ortho",
                             overwrite_x=True)
        return out.reshape(T.shape)

    def apply(self, R: np.ndarray) -> np.ndarray:
        G = self._dst(np.array(R.T, order="C"))
        G /= self.mass_eig
        shifts = self.shifts
        for el in self.elements:
            t = el.W.T @ G[el.bumps]
            G[el.bumps] = t
            G[el.verts] -= np.einsum("ikn,kn->in", el.coupling(shifts),
                                     t * el.inverse_diagonal(shifts))
        L, nv = self.lower, self.pivots.shape[0]
        for i in range(nv - 1):
            G[i + 1] -= L[i] * G[i]
        G[:nv] /= self.pivots
        for i in range(nv - 2, -1, -1):
            G[i] -= L[i] * G[i + 1]
        for el in self.elements:
            z = G[el.bumps] - np.einsum("ikn,in->kn", el.coupling(shifts), G[el.verts])
            G[el.bumps] = el.W @ (z * el.inverse_diagonal(shifts))
        return self._dst(G).T


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

    ``iterations`` counts applications of the inverse. Raises
    :class:`SolverError` on a non-positive pivot or when a refinement step
    fails to halve the residual (``rel_tol`` below the attainable floor).
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    B, _ = _as_tensor(system, rhs)
    norm_b = math.sqrt(float(np.vdot(B, B)))
    if norm_b == 0.0:
        return SolutionTensor(np.zeros_like(B), 0, 0.0)
    inverse = TensorPreconditioner.build(system)
    X = inverse.apply(B)
    applies, previous = 1, math.inf
    while True:
        R = B - kron_matvec(system, X)
        relres = math.sqrt(float(np.vdot(R, R))) / norm_b
        if relres <= rel_tol:
            return SolutionTensor(X, applies, relres)
        if not (math.isfinite(relres) and relres <= 0.5 * previous):
            raise SolverError(
                f"residual stalled at {relres:.3e} after {applies} applications of "
                f"the inverse; rel_tol={rel_tol:.1e} is below the attainable floor",
                residual=relres,
                iterations=applies,
            )
        previous = relres
        X += inverse.apply(R)
        applies += 1
