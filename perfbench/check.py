"""Correctness check of one refinement level, independent of the program.

Every load the benchmark uses is a finite sum of plain sine modes. A sine
mode is an exact eigenvector of the uniform P1/Q1 mass and stiffness
matrices, and its load vector is a multiple of that eigenvector. The exact
discrete solution therefore splits into one extended-direction problem per
mode, and its trace is

    tr = sum_k d_s * c_k * gamma_k * r_k / m_k * v_k

with ``v_k`` the sampled sine, ``m_k`` its mass eigenvalue, ``gamma_k`` the
closed-form hat integral factor and ``r_k = e0' (w_k B_mass + B_stiff)^-1 e0``
the extended-direction resolvent at the mode's shift ``w_k``. The resolvents
depend only on the level, not on the seed; ``make_refs.py`` stores them in
``refs.json`` together with the exact sizes. From them this module derives
the energy error (Galerkin identity) and the fractional trace error for any
seed's coefficients in closed form, without calling the program.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

REFS_PATH = Path(__file__).with_name("refs.json")

# The program's PCG (relative residual 1e-9) matches the exact discrete
# solution to better than 1e-6 relative on every level. A plain
# double-precision direct solve of the same systems is off by up to 2e-4,
# because the identity-based energy error amplifies the ~1e-9 relative
# error of the extended-direction solve about 1e5-fold at the finest
# s=0.2 levels. The tolerance admits any solver accurate to double
# precision; one refinement step changes either error by a factor of about
# two, and the sizes are compared exactly.
RTOL = 1e-3


def index_key(index) -> str:
    return ",".join(map(str, index))


def paper_modes(s: float, d: int):
    """The paper's data ``f = lambda_1**s * phi_1`` in plain sines."""
    return [((1,) * d, (d * math.pi**2) ** s)]


def d_s(s: float) -> float:
    return 2.0 ** (1.0 - 2.0 * s) * math.gamma(1.0 - s) / math.gamma(s)


def _p1_mode(n: int, k: int):
    """Mass eigenvalue, stiffness eigenvalue and hat-integral factor of the
    sampled sine ``sin(k pi x_i)`` on the uniform P1 grid with ``n`` cells."""
    h = 1.0 / n
    c = math.cos(k * math.pi * h)
    mass = h * (4.0 + 2.0 * c) / 6.0
    stiff = (2.0 - 2.0 * c) / h
    gamma = 2.0 * (1.0 - c) / ((k * math.pi) ** 2 * h)
    return mass, stiff, gamma


def mode_shift(n: int, index) -> float:
    """Generalized eigenvalue ``w`` of the base-domain pencil for a mode."""
    return sum(_p1_mode(n, k)[1] / _p1_mode(n, k)[0] for k in index)


def modes_by_eigenvalue(d: int, count: int) -> list[tuple[int, ...]]:
    """First ``count`` Dirichlet modes of the unit box by eigenvalue, ties
    broken lexicographically."""
    if d == 1:
        return [(k,) for k in range(1, count + 1)]
    bound = count + 1
    cand = [(k, l) for k in range(1, bound + 1) for l in range(1, bound + 1)]
    cand.sort(key=lambda idx: (idx[0] ** 2 + idx[1] ** 2, idx))
    return cand[:count]


def trace_mode_count(d: int, data_indices) -> int:
    """Modes ``run_level`` projects the trace error on: 12 (d=1) or 16
    (d=2), grown by 8 until every data mode is included."""
    count = 12 if d == 1 else 16
    while not set(data_indices) <= set(modes_by_eigenvalue(d, count)):
        count += 8
    return count


def expected_errors(level_ref: dict, modes) -> tuple[float, float]:
    """``(energy_error, trace_hs_error)`` of the exact discrete solution."""
    s, d, n = level_ref["s"], level_ref["d"], level_ref["n"]
    ds = d_s(s)
    x = np.arange(1, n) / n
    sines = {}

    def sine(k):
        if k not in sines:
            sines[k] = np.sin(k * math.pi * x)
        return sines[k]

    def dot(a, b):
        return math.prod(float(sine(i) @ sine(j)) for i, j in zip(a, b))

    def factors(index):
        parts = [_p1_mode(n, k) for k in index]
        return math.prod(p[0] for p in parts), math.prod(p[2] for p in parts)

    coef = dict(modes)
    trace = []  # (index, coefficient of v_index in the discrete trace)
    for index, c in modes:
        mass, gamma = factors(index)
        r = level_ref["resolvent"][index_key(index)]
        trace.append((index, ds * c * gamma * r / mass))

    lam = lambda idx: math.pi**2 * sum(k * k for k in idx)
    i_exact = sum(lam(idx) ** (-s) * (c * 2.0 ** (-d / 2)) ** 2 for idx, c in modes)
    i_h = sum(
        c * factors(a)[1] * t * dot(a, b) for a, c in modes for b, t in trace
    )
    energy = math.sqrt(max(0.0, ds * (i_exact - i_h)))

    hs_sq = 0.0
    for j in modes_by_eigenvalue(d, trace_mode_count(d, coef)):
        exact = coef.get(j, 0.0) * 2.0 ** (-d / 2) * lam(j) ** (-s)
        proj = 2.0 ** (d / 2) * factors(j)[1] * sum(t * dot(j, b) for b, t in trace)
        hs_sq += lam(j) ** s * (exact - proj) ** 2
    return energy, math.sqrt(hs_sq)


def check_row(row: dict, level_ref: dict, expected) -> list[str]:
    """Mismatches between one CLI output row and its references."""
    problems = []
    for key in ("M", "N_Y", "N_total"):
        if row[key] != level_ref[key]:
            problems.append(f"{key}={row[key]} != reference {level_ref[key]}")
    for key, ref in zip(("energy_error", "trace_hs_error"), expected):
        value = row[key]
        if not (isinstance(value, float) and abs(value - ref) <= RTOL * abs(ref)):
            problems.append(f"{key}={value!r} differs from reference {ref!r}")
    return problems
