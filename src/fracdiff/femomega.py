"""P1/Q1 finite elements on uniform tensor grids of the unit box.

For any ``d`` the P1/Q1 matrices on interior nodes are realized exactly as
Kronecker products of the 1-D piecewise-linear factors: the mass is the
product of ``d`` 1-D masses, the stiffness their Kronecker sum. DOF ordering:
the interior nodes are numbered in row-major order of their 1-based grid
indices, i.e. the first coordinate is the slowest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy import sparse

from .spectral import FractionalProblem


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
    d = grid.d
    A_mass = reduce(sparse.kron, [m1] * d).tocsr()
    A_stiff = sum(
        reduce(sparse.kron, [k1 if j == i else m1 for j in range(d)]) for i in range(d)
    ).tocsr()
    return OmegaMatrices(A_mass=A_mass, A_stiff=A_stiff, grid=grid)


@lru_cache(maxsize=None)
def unit_gauss_rule(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


def sine_hat_integrals(grid: OmegaGrid, k: int) -> np.ndarray:
    """Per-node integrals ``int_0^1 sin(k*pi*x) * hat_i(x) dx`` computed with
    the 8-point Gauss rule on every cell."""
    if k < 1:
        raise ValueError("frequency index must be >= 1")
    n, h = grid.n, grid.h
    t, w = unit_gauss_rule(8)
    vals = np.sin(k * math.pi * h * (np.arange(n)[:, None] + t)) * (w * h)  # (cell, point)
    # node i gets the rising hat of the cell on its left and the falling
    # hat of the cell on its right
    return (vals @ t)[:-1] + (vals @ (1.0 - t))[1:]


def assemble_load(grid: OmegaGrid, problem: FractionalProblem) -> np.ndarray:
    """Load vector ``d_s * int f * eta_i dx``; the cylinder right-hand side
    is this vector placed in the unique y-dof supported at ``y = 0``. Each
    mode of ``f`` is a product of sines, so its part of ``int f * eta_i`` is
    the Kronecker product of the 1-D sine-hat integrals."""
    out = np.zeros(grid.n_dofs)
    for mode, coef in problem.f.modes:
        out += coef * reduce(
            np.kron, [sine_hat_integrals(grid, k) for k in mode.index])
    return problem.d_s * out
