"""The problem and its exact solution in modal form on tensor-product boxes.

Eigenvalues of the Dirichlet Laplacian on ``(0,1)**d``, finite eigenfunction
expansions, the fractional problem with the constants of its extension, and
the fractional solve in modal form. The extended solution on the cylinder,
fractional Sobolev norms and the energy above a truncation height are test
oracles (``tests/oracles.py``).

Eigenfunctions are plain sine products only, with L2 norm ``2**(-d/2)``;
expansions carry ``(index, coefficient)`` pairs in that basis and read each
eigenvalue from :meth:`BoxDomain.eigenvalue`. Modal sums are taken in
orthonormal coefficients, which :meth:`ModalFunction.orthonormal_items`
obtains by the constant factor ``2**(-d/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class BoxDomain:
    """Unit box ``(0,1)**d`` with ``d`` in {1, 2}."""

    d: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension d={self.d} must be 1 or 2")

    @property
    def lambda1(self) -> float:
        return self.d * math.pi**2

    def eigenvalue(self, index) -> float:
        return math.pi**2 * float(sum(k * k for k in _check_index(self, index)))

    def modes_by_eigenvalue(self, count: int) -> list[tuple[int, ...]]:
        """First ``count`` eigenmode indices ordered by eigenvalue
        (ties broken lexicographically)."""
        if self.d == 1:
            return [(k,) for k in range(1, count + 1)]
        if count <= 0:
            return []
        # the s*s box holds count modes of eigenvalue <= 2*s*s, so no index
        # of the first count modes exceeds isqrt(2*s*s)
        s = math.isqrt(count - 1) + 1
        side = math.isqrt(2 * s * s)
        k, l = np.divmod(np.arange(side * side), side)
        k, l = k + 1, l + 1
        order = np.lexsort((l, k, k * k + l * l))[:count]
        return list(zip(k[order].tolist(), l[order].tolist()))


def _check_index(domain: BoxDomain, index) -> tuple[int, ...]:
    """``index`` as a tuple of ints, or ``ValueError``. A tuple of Python
    ints, what the program passes, is taken as it is; anything else goes
    through ``np.atleast_1d``."""
    if type(index) is not tuple or not all(type(k) is int for k in index):
        index = tuple(int(k) for k in np.atleast_1d(index))
    if len(index) != domain.d or any(k < 1 for k in index):
        raise ValueError(f"invalid eigenmode index {index} for d={domain.d}")
    return index


def _sine_product(index: tuple[int, ...], x) -> float | np.ndarray:
    """The eigenfunction ``prod_i sin(k_i*pi*x_i)`` at points ``x`` of shape
    ``(..., d)`` (plain scalars/arrays for d=1)."""
    x = np.asarray(x, dtype=float)
    coords = [x] if len(index) == 1 else [x[..., i] for i in range(len(index))]
    out = np.prod([np.sin(k * math.pi * c) for k, c in zip(index, coords)], axis=0)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class ModalFunction:
    """Finite eigenfunction expansion ``sum_k coef_k * phi_k`` held as
    ``(index, coef)`` pairs."""

    domain: BoxDomain
    modes: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        for index, coef in self.modes:
            if not math.isfinite(coef):
                raise ValueError(f"mode {index} has a non-finite coefficient {coef}")

    def __call__(self, x):
        if not self.modes:
            x = np.asarray(x, dtype=float)
            shape = x.shape[:-1] if self.domain.d > 1 and x.ndim > 0 else x.shape
            out = np.zeros(shape)
            return float(out) if out.ndim == 0 else out
        return sum(coef * _sine_product(index, x) for index, coef in self.modes)

    def orthonormal_items(self) -> list[tuple[tuple[int, ...], float, float]]:
        """List of ``(index, eigenvalue, orthonormal coefficient)``."""
        conv = 2.0 ** (-self.domain.d / 2.0)
        return [(index, self.domain.eigenvalue(index), coef * conv)
                for index, coef in self.modes]

    @property
    def scale_exponent(self) -> int:
        """Exponent ``e`` of the largest |coefficient| as ``math.frexp``
        gives it (0 without modes). Dividing the coefficients by ``2**e`` is
        exact and puts the largest in [0.5, 1), where its square neither
        overflows nor underflows."""
        return math.frexp(max((abs(c) for _, c in self.modes), default=0.0))[1]


def modal_function(domain: BoxDomain, entries) -> ModalFunction:
    """Build a :class:`ModalFunction` from ``(index, coefficient)`` pairs,
    merging repeated indices."""
    merged: dict[tuple[int, ...], float] = {}
    for index, coef in entries:
        index = _check_index(domain, index)
        merged[index] = merged.get(index, 0.0) + float(coef)
    return ModalFunction(domain, tuple(sorted(merged.items())))


@dataclass(frozen=True)
class FractionalProblem:
    """Fractional diffusion problem of order ``s`` on a box with a finite
    modal right-hand side."""

    s: float
    domain: BoxDomain
    f: ModalFunction

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s={self.s} must lie in (0, 1)")
        if self.f.domain != self.domain:
            raise ValueError("right-hand side lives on a different domain")

    @property
    def alpha(self) -> float:
        """Weight exponent of the extended problem, in (-1, 1)."""
        return 1.0 - 2.0 * self.s

    @property
    def d_s(self) -> float:
        """Constant coupling the traced flux to the data."""
        return 2.0**self.alpha * math.gamma(1.0 - self.s) / math.gamma(self.s)


def benchmark_problem(s: float, d: int) -> FractionalProblem:
    """Single-mode benchmark: ``f = lambda_1**s * phi_1`` so the solution of
    the fractional problem is exactly the first (plain sine)
    eigenfunction."""
    domain = BoxDomain(d)
    index = (1,) * d
    lam = domain.eigenvalue(index)
    f = modal_function(domain, [(index, lam**s)])
    return FractionalProblem(s=s, domain=domain, f=f)


def solve_fractional(problem: FractionalProblem) -> ModalFunction:
    """Modal solution: each coefficient is scaled by ``lambda_k**(-s)``."""
    lam = problem.domain.eigenvalue
    modes = tuple(
        (index, coef * lam(index) ** (-problem.s)) for index, coef in problem.f.modes
    )
    return replace(problem.f, modes=modes)
