"""P1/Q1 finite elements on uniform tensor grids of the unit box.

For ``d = 1`` the matrices are the classical piecewise-linear mass and
stiffness matrices on interior nodes; for ``d = 2`` the bilinear (Q1)
matrices are realized exactly as Kronecker products of the 1-D factors.
DOF ordering for ``d = 2``: node ``(i, j)`` (1-based grid indices) maps to
``(i-1)*(n-1) + (j-1)``, i.e. the first coordinate is the slow index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .spectral import FractionalProblem, ModalFunction


@dataclass(frozen=True)
class OmegaGrid:
    """Uniform grid of the unit box with ``n`` cells per direction."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension d={self.d} must be 1 or 2")
        if self.n < 2:
            raise ValueError("need at least 2 cells per direction")

    @property
    def h(self) -> float:
        """Cell edge length."""
        return 1.0 / self.n

    @property
    def h_omega(self) -> float:
        """Element diameter: the cell edge for d=1, the cell diagonal for d=2."""
        return math.sqrt(self.d) / self.n

    @property
    def n_dofs(self) -> int:
        return (self.n - 1) ** self.d

    @property
    def interior_nodes(self) -> np.ndarray:
        """Interior node coordinates per direction."""
        return np.arange(1, self.n) * self.h


def _p1_factors(n: int) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    h = 1.0 / n
    m = n - 1
    main_mass = np.full(m, 2.0 * h / 3.0)
    off_mass = np.full(m - 1, h / 6.0)
    mass = sparse.diags([off_mass, main_mass, off_mass], [-1, 0, 1]).tocsr()
    main_stiff = np.full(m, 2.0 / h)
    off_stiff = np.full(m - 1, -1.0 / h)
    stiff = sparse.diags([off_stiff, main_stiff, off_stiff], [-1, 0, 1]).tocsr()
    return mass, stiff


@dataclass(frozen=True)
class OmegaMatrices:
    """Mass/stiffness pair on interior nodes."""

    A_mass: sparse.csr_matrix
    A_stiff: sparse.csr_matrix
    grid: OmegaGrid

    @property
    def n_dofs(self) -> int:
        return self.A_mass.shape[0]


def assemble_omega_matrices(grid: OmegaGrid) -> OmegaMatrices:
    m1, k1 = _p1_factors(grid.n)
    if grid.d == 1:
        A_mass, A_stiff = m1.copy(), k1.copy()
    else:
        A_mass = sparse.kron(m1, m1).tocsr()
        A_stiff = (sparse.kron(k1, m1) + sparse.kron(m1, k1)).tocsr()
    return OmegaMatrices(A_mass=A_mass, A_stiff=A_stiff, grid=grid)


@lru_cache(maxsize=None)
def unit_gauss_rule(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


def sine_hat_integrals(grid: OmegaGrid, k: int, n_gauss: int = 8) -> np.ndarray:
    """Per-node integrals ``int_0^1 sin(k*pi*x) * hat_i(x) dx`` computed with
    a fixed Gauss rule on every cell."""
    if k < 1:
        raise ValueError("frequency index must be >= 1")
    n, h = grid.n, grid.h
    t, w = unit_gauss_rule(n_gauss)
    vals = np.sin(k * math.pi * h * (np.arange(n)[:, None] + t)) * (w * h)  # (cell, point)
    # node i gets the rising hat of the cell on its left and the falling
    # hat of the cell on its right
    return (vals @ t)[:-1] + (vals @ (1.0 - t))[1:]


def assemble_f_inner(grid: OmegaGrid, f: ModalFunction, n_gauss: int = 8) -> np.ndarray:
    """Vector of ``int f * eta_i dx`` for a finite modal ``f``."""
    out = np.zeros(grid.n_dofs)
    for mode, coef in f.modes:
        weight = coef * mode.factor
        if grid.d == 1:
            out += weight * sine_hat_integrals(grid, mode.index[0], n_gauss)
        else:
            g1 = sine_hat_integrals(grid, mode.index[0], n_gauss)
            g2 = sine_hat_integrals(grid, mode.index[1], n_gauss)
            out += weight * np.kron(g1, g2)
    return out


def assemble_load(grid: OmegaGrid, problem: FractionalProblem, n_gauss: int = 8) -> np.ndarray:
    """Load vector ``d_s * int f * eta_i dx``; the cylinder right-hand side
    is this vector placed in the unique y-dof supported at ``y = 0``."""
    return problem.d_s * assemble_f_inner(grid, problem.f, n_gauss)
