import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from fracdiff.error_analysis import exact_data_product


@pytest.fixture(scope="session")
def direct_q1_assembly():
    """Independent d=2 assembly oracle: loop cells, 3x3 Gauss quadrature,
    bilinear local basis, interior-node numbering with the first coordinate
    as the slow index."""

    def build(n):
        h = 1.0 / n
        x, w = np.polynomial.legendre.leggauss(3)
        t = (x + 1) / 2
        wt = w / 2
        ndof = (n - 1) ** 2
        A_mass = np.zeros((ndof, ndof))
        A_stiff = np.zeros((ndof, ndof))

        def node_id(i, j):
            if 1 <= i <= n - 1 and 1 <= j <= n - 1:
                return (i - 1) * (n - 1) + (j - 1)
            return None

        corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
        for cx in range(n):
            for cy in range(n):
                ids = [node_id(cx + dx, cy + dy) for dx, dy in corners]
                for g1 in range(3):
                    for g2 in range(3):
                        t1, t2 = t[g1], t[g2]
                        weight = wt[g1] * wt[g2] * h * h
                        vals, grads = [], []
                        for dx, dy in corners:
                            b1 = t1 if dx else 1 - t1
                            b2 = t2 if dy else 1 - t2
                            d1 = (1 if dx else -1) / h
                            d2 = (1 if dy else -1) / h
                            vals.append(b1 * b2)
                            grads.append((d1 * b2, b1 * d2))
                        for a in range(4):
                            if ids[a] is None:
                                continue
                            for b in range(4):
                                if ids[b] is None:
                                    continue
                                A_mass[ids[a], ids[b]] += weight * vals[a] * vals[b]
                                A_stiff[ids[a], ids[b]] += weight * (
                                    grads[a][0] * grads[b][0] + grads[a][1] * grads[b][1]
                                )
        return A_mass, A_stiff

    return build


@pytest.fixture(scope="session")
def exact_resolvent():
    """Oracle of the extended direction: ``e0' (w*B_mass + B_stiff)^-1 e0``
    by elimination of the stored element matrices in exact rational
    arithmetic (every double is a dyadic rational), or in ``digits``-digit
    decimal arithmetic where exact numbers grow too long. Each element's
    dofs are eliminated onto its bottom vertex, from the top element down,
    the admittance from above added at its top vertex; never through the
    assembled matrices, whose summed entries are rounded."""

    def resolvent(weighted, w, digits=None):
        with decimal.localcontext() as ctx:
            if digits is None:
                number = Fraction
            else:
                ctx.prec = digits
                number = decimal.Decimal
            shift = number(float(w))
            top = weighted.dofmap.M
            elements = sorted((int(m), Xm, Xs) for ms, mass, stiff in weighted.groups
                              for m, Xm, Xs in zip(ms, mass, stiff))
            q = None
            for m, Xm, Xs in reversed(elements):
                keep = [i for i in range(len(Xm)) if not (i == 1 and m == top)]
                K = [[shift * number(float(Xm[i, j])) + number(float(Xs[i, j])) for j in keep]
                     for i in keep]
                if q is not None:
                    K[1][1] += q
                for p in range(len(K) - 1, 0, -1):
                    for i in range(p):
                        f = K[i][p] / K[p][p]
                        for j in range(p):
                            K[i][j] -= f * K[p][j]
                q = K[0][0]
            return 1 / q

    return resolvent


@pytest.fixture(scope="session")
def exact_energy_error(exact_resolvent):
    """Energy error of the exact discrete solution of a d=1 level whose data
    are plain sine modes. Each sampled sine is an eigenvector of the uniform
    P1 pencil, so the discrete trace splits into one resolvent per mode,
    taken from ``exact_resolvent``; the base factors are the half-angle
    forms the program uses."""

    def energy(problem, level, digits=None):
        n, h = level.grid.n, level.grid.h
        i_h = 0.0
        for (k,), c in problem.f.modes:
            sin2 = math.sin(k * (math.pi * h / 2.0)) ** 2
            mass, stiff = h * (1.0 - 2.0 * sin2 / 3.0), 4.0 * sin2 / h
            gamma = 4.0 * sin2 / ((k * math.pi) ** 2 * h)
            r = float(exact_resolvent(level.weighted, stiff / mass, digits))
            i_h += problem.d_s * (c * gamma) ** 2 * r / mass * n / 2.0
        return math.sqrt(problem.d_s * (exact_data_product(problem) - i_h))

    return energy
