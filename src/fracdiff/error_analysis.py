"""One-level discretization, error measures and the convergence-study driver.

The energy error of the cylinder discretization is computed through the
identity ``error**2 = d_s * (int f*u - int f*u_h)`` over the base domain,
an exact consequence of Galerkin orthogonality, as the product of the sine
coefficients of the load and of the discrete trace (Parseval). Trace errors
are measured in the fractional Sobolev norm by modal projection. The direct
quadrature of the weighted gradient difference over the cylinder that
cross-checks the identity is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fem1d import WeightedMatrices, assemble_weighted_matrices
from .femomega import OmegaGrid, assemble_load, assemble_omega_matrices, sine_projections
from .meshing import (MeshError, build_ymesh, physical_memory_bytes, select_params_h,
                      select_params_hp)
from .solver import KroneckerSystem, SolverError, cylinder_rhs, solve_trace, trace_bytes
from .spectral import (
    BoxDomain,
    FractionalProblem,
    benchmark_problem,
    modal_function,
    solve_fractional,
)


@dataclass(frozen=True)
class StudyRow:
    """One refinement level of a convergence study, and the run record the
    CLI writes: the fields are the CSV columns in order and the keys of the
    JSON ``rows``.

    ``N_Y`` is the constrained system size ``sum(p_m)``, i.e. the
    unconstrained piecewise-polynomial dimension ``1 + sum(p_m)`` minus the
    dof pinned at the top of the cylinder; ``N_total = N_omega * N_Y``.
    ``wall_ms`` is the level's wall time in milliseconds.
    """

    h_omega: float
    N_omega: int
    M: int
    N_Y: int
    N_total: int
    Y: float
    energy_error: float
    trace_hs_error: float
    wall_ms: float


def exact_data_product(problem: FractionalProblem) -> float:
    """Closed modal form of ``int f * u dx`` for the exact fractional
    solution: ``sum_k lambda_k**(-s) * f_k**2`` in orthonormal
    coefficients. The sum is taken over the coefficients scaled by
    ``2**-f.scale_exponent`` and scaled back (exact), so it overflows only
    when the product itself lies beyond the double range."""
    scale = problem.f.scale_exponent
    return math.ldexp(sum(
        lam ** (-problem.s) * math.ldexp(coef, -scale) ** 2
        for _, lam, coef in problem.f.orthonormal_items()
    ), 2 * scale)


def energy_error(problem: FractionalProblem, load, coeffs) -> float:
    """Weighted-gradient energy error from the Galerkin-orthogonality
    identity: ``sqrt(d_s * (I_exact - I_h))`` with ``I_h = int f * tr u_h =
    load @ coeffs / d_s`` by Parseval, from the orthonormal DST-I
    coefficients of the load (:func:`~fracdiff.femomega.assemble_load`) and
    of the trace (:func:`~fracdiff.solver.solve_trace`).

    Tiny negative radicands (down to ``-1e-12 * I_exact``) are clamped to
    zero; anything larger signals a trace inconsistent with the data and
    raises :class:`~fracdiff.solver.SolverError`.
    """
    i_exact = exact_data_product(problem)
    i_h = float(load @ coeffs) / problem.d_s
    radicand = problem.d_s * (i_exact - i_h)
    if radicand < 0.0:
        if radicand >= -1e-12 * problem.d_s * abs(i_exact):
            return 0.0
        raise SolverError(
            f"energy identity produced negative radicand {radicand:.3e}: int f*tr u_h "
            "exceeds its exact value (is the certificate margin tol too loose?)"
        )
    return math.sqrt(radicand)


def trace_hs_error(
    problem: FractionalProblem,
    grid: OmegaGrid,
    coeffs,
    k_modes: int,
) -> float:
    """Fractional-norm trace error of the projection on the first
    ``k_modes`` orthonormal eigenfunctions:
    ``sqrt(sum_k lambda_k**s * (u_k - (tr_h, phi_k))**2)``.

    The quadratures ``(tr_h, phi_k)`` are gathered from the orthonormal
    DST-I coefficients ``coeffs`` of the nodal trace
    (:func:`~fracdiff.femomega.sine_projections`)."""
    indices = problem.domain.modes_by_eigenvalue(k_modes)
    exact = {idx: coef for idx, _, coef in solve_fractional(problem).orthonormal_items()}
    if not exact.keys() <= set(indices):
        raise ValueError("k_modes must cover every mode of the data (plus margin)")
    ks = np.array(indices)
    c = np.array([exact.get(idx, 0.0) for idx in indices])
    c -= 2.0 ** (grid.d / 2.0) * sine_projections(grid, coeffs, ks)
    lam = math.pi**2 * (ks * ks).sum(axis=1)
    return math.sqrt(lam**problem.s @ (c * c))


def _default_mode_count(problem: FractionalProblem) -> int:
    """Smallest eigenvalue-ordered mode count covering the data, plus a
    margin for the projection of the discrete trace. The data's last mode
    ``(k, l)`` in the order ``(k*k + l*l, k, l)`` of ``modes_by_eigenvalue``
    is counted in place: it follows ``isqrt(L - i*i - 1)`` modes of each
    column ``i``, ``L = k*k + l*l``, and the ties ``(i, j)``, ``i < k``."""
    base = 12 if problem.domain.d == 1 else 16
    k, *l = max((index for index, _ in problem.f.modes),
                key=lambda idx: (sum(k * k for k in idx), idx), default=(0,))
    count = k
    if l:
        L = k * k + l[0] ** 2
        count = 1 + sum(math.isqrt(L - i * i - 1) for i in range(1, math.isqrt(L - 1) + 1))
        count += sum(math.isqrt(L - i * i) ** 2 == L - i * i for i in range(1, k))
    return base + 8 * max(0, -(-(count - base) // 8))


def mode_list_bytes(index: tuple[int, ...]) -> int:
    """A lower bound on the bytes that :func:`trace_hs_error` holds for data
    whose last mode is ``index``, in O(1). Its modes include every mode of
    smaller eigenvalue: the ``k`` modes up to ``(k,)`` in d=1, and in d=2
    the ``m*m`` modes ``(i, j)``, ``i, j <= m = isqrt((L - 1) // 2)``,
    below ``L = k*k + l*l``. While :func:`~fracdiff.femomega._aliased_cells`
    places them, each listed mode holds at least its list slot and its
    tuple of ``d`` indices (40 + 8*d bytes with the tuple's header), its
    indices three times as int64 (the index array, its copy and its
    transpose) and three more 8-byte entries (coefficient, factor and
    cell): ``72 + 32*d`` bytes. Traced: 151-217 bytes a mode in d=1 and
    239-289 a counted mode in d=2 (about 160 a listed one)."""
    if len(index) == 1:
        count = index[0]
    else:
        count = math.isqrt((sum(k * k for k in index) - 1) // 2) ** 2
    return (72 + 32 * len(index)) * count


_INT64_MAX = int(np.iinfo(np.int64).max)


def data_mode_error(modes, have: int) -> str | None:
    """Why the data ``modes``, ``(index, coefficient)`` pairs, cannot be
    solved within ``have`` bytes, or None: the :func:`mode_list_bytes` of
    the mode of largest eigenvalue exceed ``have``, or an index lies past
    the int64 range in which the load and the errors place their cells."""
    index = max((idx for idx, _ in modes), key=lambda idx: sum(k * k for k in idx))
    need = mode_list_bytes(index)
    if need > have:
        return (f"the trace error of data mode {index} holds at least {need:.3g} bytes of "
                f"listed modes, more than the {have:.3g} bytes of physical memory")
    if any(k > _INT64_MAX for idx, _ in modes for k in idx):
        return f"data mode {index} has an index past the int64 range"
    return None


def tol_error(tol: float) -> str | None:
    """Why ``tol``, the margin of the certificate ``0 < d_s*omega**s*r_h <=
    1 + tol``, is refused, or None: it must be finite and positive, since
    an infinite margin leaves the certificate only its positivity."""
    if not (math.isfinite(tol) and tol > 0.0):
        return f"tol must be finite and positive, got {tol}"
    return None


@dataclass(frozen=True)
class Discretization:
    """One refinement level: the base grid, the extended-direction weighted
    matrices, whose mesh ``mesh`` reads, and the load's sine coefficients.
    The Kronecker operator and the cylinder right-hand side of the full
    tensor system, with the nodal load, are built on first use; the run
    path reads neither."""

    grid: OmegaGrid
    weighted: WeightedMatrices
    load: np.ndarray

    mesh = property(lambda self: self.weighted.mesh)
    system = cached_property(
        lambda self: KroneckerSystem(assemble_omega_matrices(self.grid), self.weighted))

    @cached_property
    def rhs(self) -> np.ndarray:
        from scipy.fft import dstn  # the full solve's oracle; the run path makes no transform

        nodal = dstn(self.load.reshape((self.grid.n - 1,) * self.grid.d), type=1, norm="ortho")
        return cylinder_rhs(self.system, nodal.ravel())


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
    :func:`~fracdiff.meshing.select_params_hp` derive from the mesh size.

    A grid whose :func:`~fracdiff.solver.trace_bytes` exceed the physical
    memory raises :class:`MeshError` before anything is built."""
    grid = OmegaGrid(problem.domain.d, n)
    need, have = trace_bytes(grid.n_dofs), physical_memory_bytes()
    if need > have:
        raise MeshError(f"N_omega = {grid.n_dofs} base-domain dofs keep at least {need:.3g} "
                        f"bytes while the level is solved, more than the {have:.3g} bytes of "
                        "physical memory")
    lam1 = problem.domain.lambda1
    if scheme == "hfem":
        params = select_params_h(grid.h_omega, problem.s, lam1, mu=mu,
                                 m_mult=m_mult, y_mult=y_mult)
    elif scheme == "hpfem":
        params = select_params_hp(grid.h_omega, problem.s, lam1, sigma=sigma,
                                  beta=beta, m_mult=m_mult, y_mult=y_mult)
    else:
        raise MeshError(f"unknown scheme {scheme!r}")
    weighted = assemble_weighted_matrices(build_ymesh(params), alpha=problem.alpha)
    return Discretization(grid=grid, weighted=weighted, load=assemble_load(grid, problem))


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

    Only the sine coefficients of the trace at ``y = 0`` are computed
    (:func:`~fracdiff.solver.solve_trace`), and ``tol`` is the margin of its
    certificate. A ``tol`` or data that the CLI would reject
    (:func:`tol_error`, :func:`data_mode_error`), a level that cannot be
    built (any :class:`MeshError`: the grid, the scheme, the rules, the mesh
    or its weighted quadrature), a failed certificate, or running out of
    memory anywhere raises :class:`SolverError` prefixed with the level.

    Both errors are linear in the data, so the level is solved for the data
    scaled by a power of two (exact) to a largest coefficient in [0.5, 1),
    and the errors are scaled back: ``f_k**2`` neither overflows nor
    underflows."""
    t0 = time.perf_counter()
    where = f"{scheme} s={problem.s:g} d={problem.domain.d} n={n}"
    scale = problem.f.scale_exponent
    problem = replace(problem, f=replace(problem.f, modes=tuple(
        (index, math.ldexp(c, -scale)) for index, c in problem.f.modes)))
    try:
        cause = tol_error(tol) or data_mode_error(problem.f.modes, physical_memory_bytes())
        if cause is not None:
            raise SolverError(cause)
        level = discretize(problem, scheme, n, **mesh_overrides)
        coeffs = solve_trace(level.grid, level.weighted, level.load, s=problem.s,
                             d_s=problem.d_s, margin=tol)
        err = energy_error(problem, level.load, coeffs)
        tr_err = trace_hs_error(problem, level.grid, coeffs, _default_mode_count(problem))
    except (SolverError, MeshError) as exc:
        raise SolverError(f"{where}: {exc}") from exc
    except MemoryError as exc:
        raise SolverError(f"{where}: out of memory ({str(exc) or 'no detail'})") from exc
    grid = level.grid
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return StudyRow(
        h_omega=grid.h_omega,
        N_omega=grid.n_dofs,
        M=level.mesh.M,
        N_Y=level.weighted.n_dofs,
        N_total=grid.n_dofs * level.weighted.n_dofs,
        Y=level.mesh.Y,
        energy_error=math.ldexp(err, scale),
        trace_hs_error=math.ldexp(tr_err, scale),
        wall_ms=wall_ms,
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
