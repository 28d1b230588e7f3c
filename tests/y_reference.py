"""Per-element reference forms of the extended direction, for bitwise tests.

``element_loop_assembly`` builds the element matrices one element at a
time: its point count by the scalar formula, its shape tables by one
``legvander`` call each (``legendre_shapes``). ``element_loop_fold`` forms
every element's two-port on its own (``two_port``), degree 1 and the top
element included, with its own product of the bump couplings, and
folds the resolvent through them from the clamped top vertex. The program
does the same arithmetic with array operations and one in-place loop, so
both must agree bitwise.

``unique_solve_trace`` finds the distinct base-domain shifts by sorting the
shift of every mode (``np.unique``), folds the resolvent at each of them and
expands it back to every mode through the returned index; the program
interpolates the resolvent from a few hundred folds, in chunks of the cells
``k <= l`` that it applies to the cells and their mirror.
"""

import math
from functools import reduce

import numpy as np

from fracdiff import fem1d, solver
from fracdiff.fem1d import WeightedMatrices, weighted_rule


def legendre_shapes(q: int, t: np.ndarray):
    """Values and derivatives of the hierarchical shape functions of degree
    ``q`` at ``t``, each row from its own ``legvander`` table."""
    x = 2.0 * t - 1.0
    B, D = np.empty((q + 1, t.size)), np.empty((q + 1, t.size))
    B[0], B[1], D[0], D[1] = 1.0 - t, t, -1.0, 1.0
    if q >= 2:
        k = np.arange(2, q + 1)
        V = np.polynomial.legendre.legvander(x, q)
        B[2:] = ((V[:, 2:] - V[:, :-2]) / np.sqrt(2.0 * (2.0 * k - 1.0))).T
        V = np.polynomial.legendre.legvander(x, q - 1)
        D[2:] = (np.sqrt(2.0 * (2.0 * k - 1.0)) * V[:, 1:]).T
    return B, D


def gl_point_count(a: float, b: float, polydeg: int) -> int:
    """Gauss-Legendre points of one element ``[a, b]``, ``a > 0``, in scalar
    arithmetic."""
    ra, rb = math.sqrt(a), math.sqrt(b)
    log_rho = math.log1p(2.0 * ra * (ra + rb) / (b - a))
    return polydeg // 2 + 1 + math.ceil(fem1d._LOG_TARGET / (2.0 * log_rho))


def element_loop_assembly(mesh, alpha):
    """:func:`~fracdiff.fem1d.assemble_weighted_matrices` by a loop over the
    elements, with the same groups in the same order: the Gauss-Jacobi
    first element and the split elements alone, then the elements of one
    degree and point count in the order of their first element."""
    nodes = np.asarray(mesh.nodes)
    width = np.diff(nodes)
    rules = []
    shared = {}
    for m, p in enumerate(mesh.degrees, start=1):
        a, b = nodes[m - 1], nodes[m]
        points = gl_point_count(a, b, 2 * p) if a > 0.0 else 0
        if 0 < points <= fem1d._MAX_GL_POINTS:
            shared.setdefault((p, points), []).append(m)
            continue
        pts, wts = weighted_rule(a, b, alpha, 2 * p)
        rules.append((np.array([m]), (pts - a) / (b - a), wts[None, :]))
    for (p, points), ms in shared.items():
        ms = np.array(ms)
        x, w = np.polynomial.legendre.leggauss(points)
        a, b = nodes[ms - 1, None], nodes[ms, None]
        pts = a + (x + 1.0) / 2.0 * (b - a)
        rules.append((ms, (x + 1.0) / 2.0, w * (b - a) / 2.0 * pts**alpha))
    groups = []
    with np.errstate(over="ignore", invalid="ignore"):
        for ms, t, wts in rules:
            p = mesh.degrees[ms[0] - 1]
            B, D = legendre_shapes(p, t)
            h = width[ms - 1]
            mass = (B * wts[:, None, :]) @ B.T
            stiff = ((D * wts[:, None, :]) @ D.T) / (h * h)[:, None, None]
            groups.append((ms, mass, stiff))
    return WeightedMatrices(groups=tuple(groups), mesh=mesh)


def two_port(Xm: np.ndarray, Xs: np.ndarray, el, w: np.ndarray):
    """The vertex Schur complement ``E = K_vv - K_vb K_bb^-1 K_bv`` of one
    element with ``K = w*mass + stiff`` at the shifts ``w``, as ``(g, rho0,
    rho1)``: the coupling ``g = -E01`` and the row sums ``rho = E 1``. The
    stiffness annihilates constants, so the row sums are formed from the
    mass alone, ``rho = w*(M_vv 1 - K_vb K_bb^-1 M_bv 1)``. ``el`` is the
    element's ``solver._Bumps``, or None for degree 1. With the coupling
    ``C = w*P + Q`` of the vertices to the bumps expanded in ``w``, each
    sum over the bumps is one row of ``S = Z @ (1/(w + theta))``, formed
    here for each element on its own."""
    g = -(w * Xm[0, 1] + Xs[0, 1])
    rho = np.multiply.outer(Xm[:2, :2].sum(axis=1), w)
    if el is not None:
        S = el.Z @ (1.0 / (el.theta[:, None] + w))
        g += (S[0] * w + S[1]) * w + S[2]
        rho -= w * (w * S[3:5] + S[5:])
    return g, rho[0], rho[1]


def element_loop_fold(y, shifts):
    """:func:`~fracdiff.solver.y_resolvent` with one :func:`two_port` call
    per element. The fold starts at the clamped top vertex: the top
    element's admittance is ``rho0 + g``, the limit of ``rho0 + g*t/(g +
    t)`` as ``t`` grows."""
    elements = sorted(((m, Xm, Xs) for ms, mass, stiff in y.groups
                       for m, Xm, Xs in zip(ms.tolist(), mass, stiff)), key=lambda e: e[0])
    bumps = {m: solver._condense(m, Xm, Xs) for m, Xm, Xs in elements if len(Xm) > 2}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (m, Xm, Xs), *below = elements[::-1]
        g, rho0, _ = two_port(Xm, Xs, bumps.get(m), shifts)
        q = rho0 + g
        for m, Xm, Xs in below:
            g, rho0, rho1 = two_port(Xm, Xs, bumps.get(m), shifts)
            t = rho1 + q
            q = rho0 + g * t / (g + t)
        return 1.0 / q


def unique_shifts(grid):
    """The mass eigenvalue of every base mode, the ascending distinct
    shifts and the index of every mode's shift in them, from the shift of
    every mode by ``np.unique``."""
    mass, stiff = solver._p1_eigenvalues(grid.n)
    mass_eig = reduce(np.multiply.outer, [mass] * grid.d).ravel()
    shifts = reduce(np.add.outer, [stiff / mass] * grid.d).ravel()
    distinct, factor = np.unique(shifts, return_inverse=True)
    return mass_eig, distinct, factor


def unique_solve_trace(grid, y, load, *, s, d_s, margin):
    """:func:`~fracdiff.solver.solve_trace`, the trace's sine coefficients
    from the load's, on the distinct shifts of :func:`unique_shifts`: the certificate names
    the first failing one in ascending order, and the resolvent reaches the
    modes through the index."""
    mass_eig, distinct, factor = unique_shifts(grid)
    r = solver.y_resolvent(y, distinct)
    ratio = d_s * distinct**s * r
    bad = np.flatnonzero(~((ratio > 0.0) & (ratio <= 1.0 + margin)))
    if bad.size:
        j = bad[0]
        raise solver.SolverError(
            f"y-resolvent certificate failed at {bad.size} of {ratio.size} shifts, first at "
            f"shift omega={distinct[j]:.6g}: d_s*omega**s*r_h = {ratio[j]:.6g} is "
            f"not in (0, 1 + {margin:g}]"
        )
    G = np.array(load, dtype=float)
    G *= r[factor]
    G /= mass_eig
    return G
