"""One-level discretization, error measures and the convergence-study driver.

The energy error of the cylinder discretization is computed through the
identity ``error**2 = d_s * (int f*u - int f*u_h)`` over the base domain,
an exact consequence of Galerkin orthogonality; a slow direct quadrature of
the weighted gradient difference over the cylinder is provided as an
independent desk-scale cross-check. Trace errors are measured in the
fractional Sobolev norm by modal projection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fem1d import (
    QuadratureError,
    WeightedMatrices,
    assemble_weighted_matrices,
    shape_derivatives,
    shape_values,
    weighted_rule,
)
from .femomega import (
    OmegaGrid,
    assemble_load,
    assemble_omega_matrices,
    sine_hat_integrals,
    unit_gauss_rule,
)
from .meshing import MeshError, YMesh, build_ymesh, select_params_h, select_params_hp
from .solver import KroneckerSystem, SolutionTensor, SolverError, cylinder_rhs, solve
from .spectral import (
    BoxDomain,
    FractionalProblem,
    benchmark_problem,
    modal_function,
    solve_fractional,
    tail_energy,
)
from .specialfunc import psi, psi_prime

DIRECT_CHECK_MAX_DOFS = 5000


@dataclass(frozen=True)
class StudyRow:
    """One refinement level of a convergence study.

    ``N_Y`` is the constrained system size ``sum(p_m)``, i.e. the
    unconstrained piecewise-polynomial dimension ``1 + sum(p_m)`` minus the
    dof pinned at the top of the cylinder; ``N_total = N_omega * N_Y``.
    ``wall_time`` is in seconds.
    """

    h_omega: float
    N_omega: int
    M: int
    N_Y: int
    N_total: int
    Y: float
    energy_error: float
    trace_hs_error: float
    solve_iterations: int
    wall_time: float


def exact_data_product(problem: FractionalProblem) -> float:
    """Closed modal form of ``int f * u dx`` for the exact fractional
    solution: ``sum_k lambda_k**(-s) * f_k**2`` in orthonormal
    coefficients."""
    return sum(
        lam ** (-problem.s) * coef**2 for _, lam, coef in problem.f.orthonormal_items()
    )


def energy_error(problem: FractionalProblem, load: np.ndarray, trace) -> float:
    """Weighted-gradient energy error from the Galerkin-orthogonality
    identity: ``sqrt(d_s * (I_exact - I_h))`` with ``I_h = int f * tr u_h``,
    read off the level's load vector ``d_s * int f * eta_i``.

    Tiny negative radicands (down to ``-1e-12 * I_exact``) are clamped to
    zero; anything larger signals an inconsistent (under-resolved) solve and
    raises.
    """
    trace = np.asarray(trace, dtype=float)
    i_exact = exact_data_product(problem)
    i_h = float((load / problem.d_s) @ trace)
    radicand = problem.d_s * (i_exact - i_h)
    if radicand < 0.0:
        if radicand >= -1e-12 * problem.d_s * abs(i_exact):
            return 0.0
        raise ValueError(
            f"energy identity produced negative radicand {radicand:.3e}; "
            "solver tolerance too loose for this level"
        )
    return math.sqrt(radicand)


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
    for mode, coef in solve_fractional(problem).modes:
        sins = [np.sin(k * math.pi * x) for k in mode.index]
        coss = [k * math.pi * np.cos(k * math.pi * x) for k in mode.index]
        grads = [coef * _outer(sins[:i] + [coss[i]] + sins[i + 1:]) for i in range(d)]
        modes.append((math.sqrt(mode.lam), coef * _outer(sins), grads))

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
        glob, local = dofmap.element_dofs(m)
        Gy = U[:, glob] @ Bv[local]   # (N_omega, nq_y): FE x-nodal values per y point
        Gdy = U[:, glob] @ Dv[local]

        for q in range(ypts.size):
            y = ypts[q]
            nodal = Gy[:, q].reshape(nodal_shape)
            fe = [_along_axes(tables, nodal) for tables in grad_tables]
            fe.append(_along_axes([vals] * d, Gdy[:, q].reshape(nodal_shape)))
            ex = [np.zeros_like(fe[0]) for _ in fe]
            for root, val, grads in modes:
                pz = psi(problem.profile, root * y)
                for i in range(d):
                    ex[i] += pz * grads[i]
                ex[d] += root * psi_prime(problem.profile, root * y) * val
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


def _mode_inner_with_trace(grid: OmegaGrid, index, trace: np.ndarray) -> float:
    """Quadrature of ``int tr_h * phi_hat_k dx`` (orthonormal): the nodal
    trace contracted with one 1-D sine-hat vector per axis, slowest first."""
    T = trace
    for k in index:
        T = sine_hat_integrals(grid, k) @ T.reshape(grid.n - 1, -1)
    return 2.0 ** (grid.d / 2.0) * float(T[0])


def trace_hs_error(
    problem: FractionalProblem,
    grid: OmegaGrid,
    trace,
    k_modes: int,
) -> float:
    """Fractional-norm trace error of the projection on the first
    ``k_modes`` orthonormal eigenfunctions:
    ``sqrt(sum_k lambda_k**s * (u_k - (tr_h, phi_k))**2)``."""
    trace = np.asarray(trace, dtype=float)
    indices = problem.domain.modes_by_eigenvalue(k_modes)
    exact = {idx: coef for idx, _, coef in solve_fractional(problem).orthonormal_items()}
    if any(idx not in indices for idx in exact):
        raise ValueError("k_modes must cover every mode of the data (plus margin)")
    value_sq = 0.0
    for idx in indices:
        lam = problem.domain.eigenvalue(idx)
        c = exact.get(idx, 0.0) - _mode_inner_with_trace(grid, idx, trace)
        value_sq += lam**problem.s * c * c
    return math.sqrt(value_sq)


def _default_mode_count(problem: FractionalProblem) -> int:
    """Smallest eigenvalue-ordered mode count covering the data, plus a
    margin for the projection of the discrete trace."""
    base = 12 if problem.domain.d == 1 else 16
    wanted = {mode.index for mode, _ in problem.f.modes}
    # fewer than sum(k*k) modes precede a mode, so this list holds the data
    length = max((sum(k * k for k in idx) for idx in wanted), default=0)
    position = {idx: i for i, idx in enumerate(problem.domain.modes_by_eigenvalue(length))}
    last = max((position[idx] + 1 for idx in wanted), default=0)
    return base + 8 * max(0, -(-(last - base) // 8))


@dataclass(frozen=True)
class Discretization:
    """The tensor system of one refinement level: the base grid, the
    extended-direction mesh and its weighted matrices, the Kronecker
    operator, the base-domain load and the cylinder right-hand side."""

    grid: OmegaGrid
    mesh: YMesh
    weighted: WeightedMatrices
    system: KroneckerSystem
    load: np.ndarray
    rhs: np.ndarray


def discretize(
    problem: FractionalProblem,
    scheme: str,
    n: int,
    *,
    mu: float | None = None,
    sigma: float = 0.125,
    beta: float = 0.7,
    m_mult: float = 1.0,
    y_mult: float = 1.0,
) -> Discretization:
    """Build the level with ``n`` cells per direction: P1/Q1 in the base
    domain and, in the extended direction, graded h-FEM (``"hfem"``) or
    geometric hp-FEM (``"hpfem"``) with the parameters that
    :func:`~fracdiff.meshing.select_params_h` or
    :func:`~fracdiff.meshing.select_params_hp` derive from the mesh size."""
    grid = OmegaGrid(problem.domain.d, n)
    lam1 = problem.domain.lambda1
    if scheme == "hfem":
        params = select_params_h(grid.h_omega, problem.s, lam1, mu=mu,
                                 m_mult=m_mult, y_mult=y_mult)
    elif scheme == "hpfem":
        params = select_params_hp(grid.h_omega, problem.s, lam1, sigma=sigma,
                                  beta=beta, m_mult=m_mult, y_mult=y_mult)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    mesh = build_ymesh(params)
    weighted = assemble_weighted_matrices(mesh, alpha=problem.alpha)
    system = KroneckerSystem(assemble_omega_matrices(grid), weighted)
    load = assemble_load(grid, problem)
    return Discretization(grid=grid, mesh=mesh, weighted=weighted, system=system,
                          load=load, rhs=cylinder_rhs(system, load))


def run_level(
    problem: FractionalProblem,
    scheme: str,
    n: int,
    *,
    tol: float = 1e-9,
    **mesh_overrides,
) -> StudyRow:
    """Discretize, solve, and measure a single refinement level;
    ``mesh_overrides`` are the keyword parameters of :func:`discretize`.

    A level whose mesh or weighted quadrature cannot be built, or whose
    solve fails, raises :class:`SolverError` prefixed with the level."""
    t0 = time.perf_counter()
    where = f"{scheme} s={problem.s:g} d={problem.domain.d} n={n}"
    try:
        level = discretize(problem, scheme, n, **mesh_overrides)
        sol = solve(level.system, level.rhs, rel_tol=tol)
    except SolverError as exc:
        raise SolverError(f"{where}: {exc}", exc.residual, exc.iterations) from exc
    except (MeshError, QuadratureError) as exc:
        raise SolverError(f"{where}: {exc}") from exc
    grid = level.grid
    err = energy_error(problem, level.load, sol.trace)
    tr_err = trace_hs_error(problem, grid, sol.trace, _default_mode_count(problem))
    wall = time.perf_counter() - t0
    return StudyRow(
        h_omega=grid.h_omega,
        N_omega=grid.n_dofs,
        M=level.mesh.M,
        N_Y=level.weighted.n_dofs,
        N_total=level.system.n_total,
        Y=level.mesh.Y,
        energy_error=err,
        trace_hs_error=tr_err,
        solve_iterations=sol.iterations,
        wall_time=wall,
    )


def run_convergence_study(
    scheme: str,
    s: float,
    d: int,
    levels: int | None = None,
    n_list=None,
    *,
    f_entries=None,
    **level_kwargs,
) -> list[StudyRow]:
    """Run a refinement sequence and return one row per level.

    ``n_list`` gives explicit cell counts; otherwise ``levels`` doublings
    starting from 8 cells per direction.
    """
    if n_list is None:
        if levels is None or levels < 1:
            raise ValueError("need levels >= 1 or an explicit n_list")
        n_list = [8 * 2**i for i in range(levels)]
    domain = BoxDomain(d)
    if f_entries is None:
        problem = benchmark_problem(s, d)
    else:
        problem = FractionalProblem(s=s, domain=domain,
                                    f=modal_function(domain, f_entries))
    return [run_level(problem, scheme, int(n), **level_kwargs) for n in n_list]


def observed_orders(rows: list[StudyRow], log_power: float = 0.0) -> list[float]:
    """Orders ``log(e_i/e_{i+1}) / log(h_i/h_{i+1})`` between consecutive
    levels, after dividing the errors by ``|ln h|**log_power``."""
    orders = []
    for r0, r1 in zip(rows, rows[1:]):
        e0 = r0.energy_error / abs(math.log(r0.h_omega)) ** log_power
        e1 = r1.energy_error / abs(math.log(r1.h_omega)) ** log_power
        orders.append(math.log(e0 / e1) / math.log(r0.h_omega / r1.h_omega))
    return orders


def dof_gap(rows_ref: list[StudyRow], rows_alt: list[StudyRow]):
    """Smallest total dof counts with which each sequence reaches the finest
    error level achieved by both; returns ``(error_level, N_ref, N_alt)``."""
    e_star = max(
        min(r.energy_error for r in rows_ref),
        min(r.energy_error for r in rows_alt),
    )
    tol = 1e-12 * e_star
    n_ref = min(r.N_total for r in rows_ref if r.energy_error <= e_star + tol)
    n_alt = min(r.N_total for r in rows_alt if r.energy_error <= e_star + tol)
    return e_star, n_ref, n_alt
