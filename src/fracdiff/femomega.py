"""P1/Q1 finite elements on uniform tensor grids of the unit box.

For any ``d`` the P1/Q1 matrices on interior nodes are realized exactly as
Kronecker products of the 1-D piecewise-linear factors: the mass is the
product of ``d`` 1-D masses, the stiffness their Kronecker sum. DOF ordering:
the interior nodes are numbered in row-major order of their 1-based grid
indices, i.e. the first coordinate is the slowest index.

The run path forms no nodal vector: it places the load and reads the trace
as DST-I coefficients by one aliasing rule (:func:`_aliased_cells`); the
assembled matrices and :func:`sine_hat_integrals` are the tests' references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .meshing import MeshError
from .spectral import FractionalProblem

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True)
class OmegaGrid:
    """Uniform grid of the unit box with ``n`` cells per direction; a ``d``
    other than 1 or 2, or fewer than 2 cells, is a :class:`MeshError`."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise MeshError(f"dimension d={self.d} must be 1 or 2")
        if self.n < 2:
            raise MeshError("need at least 2 cells per direction")

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
    from scipy import sparse

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


def assemble_omega_matrices(grid: OmegaGrid) -> OmegaMatrices:
    """The assembled base-domain pair of the full solve, the tests' oracle;
    the run path reads only the closed-form sine eigenpairs."""
    from scipy import sparse

    m1, k1 = _p1_factors(grid.n)
    d = grid.d
    A_mass = reduce(sparse.kron, [m1] * d).tocsr()
    A_stiff = sum(
        reduce(sparse.kron, [k1 if j == i else m1 for j in range(d)]) for i in range(d)
    ).tocsr()
    return OmegaMatrices(A_mass=A_mass, A_stiff=A_stiff, grid=grid)


def sine_hat_integrals(grid: OmegaGrid, k: int) -> np.ndarray:
    """Per-node integrals ``int_0^1 sin(k*pi*x) * hat_i(x) dx`` in closed
    form, ``sin(k*pi*x_i) * 4*sin(k*pi*h/2)**2 / ((k*pi)**2 * h)``; the
    half-angle factor avoids the cancellation in ``1 - cos(k*pi*h)``."""
    if k < 1:
        raise ValueError("frequency index must be >= 1")
    w, h = k * math.pi, grid.h
    return np.sin(w * grid.interior_nodes) * (4.0 * math.sin(w * h / 2.0) ** 2 / (w * w * h))


def _aliased_cells(grid: OmegaGrid, indices) -> tuple[np.ndarray, np.ndarray]:
    """``(factor, cell)`` of every mode index: ``prod_i gamma_k_i *
    sin(k_i*pi*x_i)`` at the nodes, ``gamma_k = 4*sin(k*pi*h/2)**2 /
    ((k*pi)**2 * h)`` the sine-hat factor, is ``factor`` times the
    orthonormal DST-I basis vector at the flat ``cell``. Per axis the grid
    samples ``k`` to ``sqrt(n/2)`` times the basis vector of ``k`` aliased
    into ``0..n``: ``k`` and ``2n - k`` to opposite sines, multiples of ``n``
    to zero."""
    n = grid.n
    factor = np.ones(len(indices))
    cell = np.zeros(len(indices), dtype=np.int64)
    for k in np.array(indices, dtype=np.int64).reshape(-1, grid.d).T.copy():  # a row per axis
        w = k * math.pi
        factor *= np.sin(w * grid.h / 2.0) ** 2 * (4.0 * math.sqrt(n / 2.0)) / (w * w * grid.h)
        k %= 2 * n
        factor[k > n] *= -1.0
        factor[k % n == 0] = 0.0
        cell *= n - 1
        cell += np.clip(np.minimum(k, 2 * n - k), 1, n - 1) - 1
    return factor, cell


def sine_projections(grid: OmegaGrid, coeffs, indices) -> np.ndarray:
    """``(tr u_h, prod_i sin(k_i*pi*x_i))`` for every mode index of
    ``indices``: the :func:`_aliased_cells` factor times the trace's
    orthonormal DST-I coefficient ``coeffs`` at the cell."""
    factor, cell = _aliased_cells(grid, indices)
    return factor * np.asarray(coeffs, dtype=float).reshape(-1)[cell]


def assemble_load(grid: OmegaGrid, problem: FractionalProblem) -> np.ndarray:
    """Orthonormal DST-I coefficients of the load vector ``d_s * int f *
    eta_i dx``: each sine mode of ``f`` adds ``d_s`` times its coefficient
    times its :func:`_aliased_cells` factor into its cell. The nodal load,
    placed in the y-dof at ``y = 0`` of the cylinder, is their orthonormal
    DST-I (``scipy.fft.dstn(..., type=1, norm="ortho")``), which the run path
    never forms."""
    modes = problem.f.modes
    factor, cell = _aliased_cells(grid, [index for index, _ in modes])
    out = np.zeros(grid.n_dofs)
    np.add.at(out, cell, problem.d_s * np.array([c for _, c in modes]) * factor)
    return out
