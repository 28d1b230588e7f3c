"""Error measures and the convergence-study driver.

The energy error of the cylinder discretization is computed through the
identity ``error**2 = d_s * (int f*u - int f*u_h)`` over the base domain,
an exact consequence of Galerkin orthogonality; a slow direct quadrature of
the weighted gradient difference over the cylinder is provided as an
independent desk-scale cross-check. Trace errors are measured in the
fractional Sobolev norm by modal projection.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fem1d import (
    WeightedMatrices,
    assemble_weighted_matrices,
    shape_derivatives,
    shape_values,
    weighted_rule,
)
from .femomega import (
    OmegaGrid,
    assemble_f_inner,
    assemble_load,
    assemble_omega_matrices,
    build_grid,
    sine_hat_integrals,
    unit_gauss_rule,
)
from .meshing import build_ymesh, select_params_h, select_params_hp
from .solver import SolutionTensor, SolverError, build_system, cylinder_rhs, solve
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


def energy_error(
    problem: FractionalProblem,
    grid: OmegaGrid,
    trace,
    n_gauss: int = 8,
    f_inner: np.ndarray | None = None,
) -> float:
    """Weighted-gradient energy error from the Galerkin-orthogonality
    identity: ``sqrt(d_s * (I_exact - I_h))`` with ``I_h = int f * tr u_h``.

    Tiny negative radicands (down to ``-1e-12 * I_exact``) are clamped to
    zero; anything larger signals an inconsistent (under-resolved) solve and
    raises.
    """
    if isinstance(trace, SolutionTensor):
        trace = trace.trace
    trace = np.asarray(trace, dtype=float)
    if f_inner is None:
        f_inner = assemble_f_inner(grid, problem.f, n_gauss)
    i_exact = exact_data_product(problem)
    i_h = float(f_inner @ trace)
    radicand = problem.d_s * (i_exact - i_h)
    if radicand < 0.0:
        if radicand >= -1e-12 * problem.d_s * abs(i_exact):
            return 0.0
        raise ValueError(
            f"energy identity produced negative radicand {radicand:.3e}; "
            "solver tolerance too loose for this level"
        )
    return math.sqrt(radicand)


def _x_quadrature(grid: OmegaGrid, n_gauss: int):
    t, w = unit_gauss_rule(n_gauss)
    cells = np.arange(grid.n)
    pts = (cells[:, None] + t[None, :]) * grid.h  # (n, g)
    return t, w * grid.h, pts


def _pad_nodal(grid: OmegaGrid, vec: np.ndarray) -> np.ndarray:
    if grid.d == 1:
        out = np.zeros(grid.n + 1)
        out[1:-1] = vec
        return out
    out = np.zeros((grid.n + 1, grid.n + 1))
    out[1:-1, 1:-1] = vec.reshape(grid.n - 1, grid.n - 1)
    return out


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
    u_exact = solve_fractional(problem)
    t, wx, xpts = _x_quadrature(grid, nx_gauss)
    h = grid.h

    if grid.d == 1:
        phi = [(mode, coef, mode(xpts), mode.gradient(xpts)[..., 0]) for mode, coef in u_exact.modes]
    else:
        # tensor points (n, g, n, g, 2); first coordinate is the slow axis
        P1 = xpts[:, :, None, None]
        P2 = xpts[None, None, :, :]
        pts2 = np.stack(np.broadcast_arrays(P1, P2), axis=-1)
        phi = [(mode, coef, mode(pts2), mode.gradient(pts2)) for mode, coef in u_exact.modes]

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
            if grid.d == 1:
                pad = _pad_nodal(grid, Gy[:, q])
                pad_dy = _pad_nodal(grid, Gdy[:, q])
                left, right = pad[:-1, None], pad[1:, None]
                uh = left * (1.0 - t) + right * t
                uh_dx = (right - left) / h
                uh_dy = pad_dy[:-1, None] * (1.0 - t) + pad_dy[1:, None] * t
                ex = np.zeros_like(uh)
                ex_dx = np.zeros_like(uh)
                ex_dy = np.zeros_like(uh)
                for mode, coef, vals, grads in phi:
                    root = math.sqrt(mode.lam)
                    pz = psi(problem.profile, root * y)
                    dpz = root * psi_prime(problem.profile, root * y)
                    ex += coef * pz * vals
                    ex_dx += coef * pz * grads
                    ex_dy += coef * dpz * vals
                cell_int = ((uh_dx - ex_dx) ** 2 + (uh_dy - ex_dy) ** 2) @ wx
                total += wy[q] * cell_int.sum()
            else:
                pad = _pad_nodal(grid, Gy[:, q])
                pad_dy = _pad_nodal(grid, Gdy[:, q])
                uh, uh_d1, uh_d2 = _q1_eval(pad, t, h)
                uh_dy = _q1_eval(pad_dy, t, h)[0]
                ex = np.zeros_like(uh)
                ex_d1 = np.zeros_like(uh)
                ex_d2 = np.zeros_like(uh)
                ex_dy = np.zeros_like(uh)
                for mode, coef, vals, grads in phi:
                    root = math.sqrt(mode.lam)
                    pz = psi(problem.profile, root * y)
                    dpz = root * psi_prime(problem.profile, root * y)
                    ex += coef * pz * vals
                    ex_d1 += coef * pz * grads[..., 0]
                    ex_d2 += coef * pz * grads[..., 1]
                    ex_dy += coef * dpz * vals
                integrand = (
                    (uh_d1 - ex_d1) ** 2 + (uh_d2 - ex_d2) ** 2 + (uh_dy - ex_dy) ** 2
                )
                cell_int = np.einsum("agbh,g,h->", integrand, wx, wx)
                total += wy[q] * cell_int

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


def _q1_eval(pad: np.ndarray, t: np.ndarray, h: float):
    """Bilinear field and gradient on all cells from padded nodal values;
    returns arrays of shape (cells1, g, cells2, g)."""
    c00 = pad[:-1, :-1][:, None, :, None]
    c10 = pad[1:, :-1][:, None, :, None]
    c01 = pad[:-1, 1:][:, None, :, None]
    c11 = pad[1:, 1:][:, None, :, None]
    t1 = t[None, :, None, None]
    t2 = t[None, None, None, :]
    u = (
        c00 * (1 - t1) * (1 - t2)
        + c10 * t1 * (1 - t2)
        + c01 * (1 - t1) * t2
        + c11 * t1 * t2
    )
    d1 = ((c10 - c00) * (1 - t2) + (c11 - c01) * t2) / h
    d2 = ((c01 - c00) * (1 - t1) + (c11 - c10) * t1) / h
    return u, d1, d2


class TraceHsError(NamedTuple):
    value: float
    remainder_estimate: float


def _mode_inner_with_trace(grid: OmegaGrid, index, trace: np.ndarray, n_gauss: int) -> float:
    """Quadrature of ``int tr_h * phi_hat_k dx`` (orthonormal)."""
    factor = 2.0 ** (grid.d / 2.0)
    if grid.d == 1:
        return factor * float(sine_hat_integrals(grid, index[0], n_gauss) @ trace)
    g1 = sine_hat_integrals(grid, index[0], n_gauss)
    g2 = sine_hat_integrals(grid, index[1], n_gauss)
    T = trace.reshape(grid.n - 1, grid.n - 1)
    return factor * float(g1 @ T @ g2)


def _trace_l2_error_sq(problem, grid, trace, n_gauss: int) -> float:
    """Quadrature of ``int (u - tr_h)**2 dx``."""
    u = solve_fractional(problem)
    t, wx, xpts = _x_quadrature(grid, n_gauss)
    pad = _pad_nodal(grid, np.asarray(trace, dtype=float))
    if grid.d == 1:
        fe = pad[:-1, None] * (1.0 - t) + pad[1:, None] * t
        diff = u(xpts) - fe
        return float((diff**2 @ wx).sum())
    P1 = xpts[:, :, None, None]
    P2 = xpts[None, None, :, :]
    pts2 = np.stack(np.broadcast_arrays(P1, P2), axis=-1)
    fe = _q1_eval(pad, t, grid.h)[0]
    diff = u(pts2) - fe
    return float(np.einsum("agbh,g,h->", diff**2, wx, wx))


def trace_hs_error(
    problem: FractionalProblem,
    grid: OmegaGrid,
    trace,
    k_modes: int,
    n_gauss: int = 8,
) -> TraceHsError:
    """Fractional-norm trace error by projection on the first ``k_modes``
    orthonormal eigenfunctions, plus a heuristic estimate of the truncated
    remainder based on the leftover L2 mass weighted by the last included
    eigenvalue."""
    trace = np.asarray(trace, dtype=float)
    indices = problem.domain.modes_by_eigenvalue(k_modes)
    exact = {idx: coef for idx, _, coef in solve_fractional(problem).orthonormal_items()}
    if any(idx not in indices for idx in exact):
        raise ValueError("k_modes must cover every mode of the data (plus margin)")
    value_sq = 0.0
    captured_sq = 0.0
    lam_last = problem.domain.eigenvalue(indices[-1])
    for idx in indices:
        lam = problem.domain.eigenvalue(idx)
        c = exact.get(idx, 0.0) - _mode_inner_with_trace(grid, idx, trace, n_gauss)
        value_sq += lam**problem.s * c * c
        captured_sq += c * c
    l2_sq = _trace_l2_error_sq(problem, grid, trace, n_gauss)
    remainder = lam_last**problem.s * max(0.0, l2_sq - captured_sq)
    return TraceHsError(value=math.sqrt(value_sq), remainder_estimate=remainder)


def _default_mode_count(problem: FractionalProblem) -> int:
    """Smallest eigenvalue-ordered mode count covering the data, plus a
    margin for the projection of the discrete trace."""
    base = 12 if problem.domain.d == 1 else 16
    wanted = {mode.index for mode, _ in problem.f.modes}
    count = base
    while not wanted.issubset(set(problem.domain.modes_by_eigenvalue(count))):
        count += 8
    return count


def run_level(
    problem: FractionalProblem,
    scheme: str,
    n: int,
    *,
    tol: float = 1e-9,
    k_modes: int | None = None,
    n_gauss: int = 8,
    mu: float | None = None,
    sigma: float = 0.125,
    beta: float = 0.7,
    m_mult: float = 1.0,
    y_mult: float = 1.0,
) -> StudyRow:
    """Assemble, solve, and measure a single refinement level."""
    t0 = time.perf_counter()
    d = problem.domain.d
    grid = build_grid(d, n)
    lam1 = problem.domain.lambda1
    if scheme == "hfem":
        params = select_params_h(grid.h_omega, problem.s, lam1, mu=mu,
                                 m_mult=m_mult, y_mult=y_mult)
    elif scheme == "hpfem":
        params = select_params_hp(grid.h_omega, problem.s, lam1, sigma=sigma,
                                  beta=beta, m_factor=1.75 * m_mult, y_mult=y_mult)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    mesh = build_ymesh(params)
    weighted = assemble_weighted_matrices(mesh, alpha=problem.alpha)
    omega = assemble_omega_matrices(grid)
    system = build_system(omega, weighted)
    load = assemble_load(grid, problem, n_gauss)
    rhs = cylinder_rhs(system, load)
    try:
        sol = solve(system, rhs, rel_tol=tol)
    except SolverError as exc:
        raise SolverError(f"{scheme} s={problem.s:g} d={d} n={n}: {exc}",
                          residual=exc.residual, iterations=exc.iterations) from exc
    f_inner = load / problem.d_s
    err = energy_error(problem, grid, sol.trace, n_gauss=n_gauss, f_inner=f_inner)
    if k_modes is None:
        k_modes = _default_mode_count(problem)
    tr_err = trace_hs_error(problem, grid, sol.trace, k_modes, n_gauss=n_gauss).value
    wall = time.perf_counter() - t0
    return StudyRow(
        h_omega=grid.h_omega,
        N_omega=grid.n_dofs,
        M=mesh.M,
        N_Y=weighted.n_dofs,
        N_total=grid.n_dofs * weighted.n_dofs,
        Y=mesh.Y,
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
    base_n: int = 8,
    **level_kwargs,
) -> list[StudyRow]:
    """Run a refinement sequence and return one row per level.

    ``n_list`` gives explicit cell counts; otherwise ``levels`` doublings
    starting from ``base_n``. The FRACDIFF_THREADS environment variable caps
    how many rows run concurrently (default: sequential).
    """
    if n_list is None:
        if levels is None or levels < 1:
            raise ValueError("need levels >= 1 or an explicit n_list")
        n_list = [base_n * 2**i for i in range(levels)]
    n_list = [int(n) for n in n_list]
    domain = BoxDomain(d)
    if f_entries is None:
        problem = benchmark_problem(s, d)
    else:
        problem = FractionalProblem(s=s, domain=domain,
                                    f=modal_function(domain, f_entries, "plain"))

    workers = int(os.environ.get("FRACDIFF_THREADS", "1") or "1")
    if workers > 1 and len(n_list) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                lambda n: run_level(problem, scheme, n, **level_kwargs), n_list
            ))
    else:
        rows = [run_level(problem, scheme, n, **level_kwargs) for n in n_list]
    return rows


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
