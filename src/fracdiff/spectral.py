"""Exact and reference solutions on tensor-product boxes.

Eigenpairs of the Dirichlet Laplacian on ``(0,1)**d``, the fractional solve
in modal form, fractional Sobolev norms, the extended solution on the
semi-infinite cylinder, and the energy content beyond a truncation height.

Eigenfunctions are plain sine products only, with L2 norm ``2**(-d/2)``;
expansions carry coefficients in that basis. Norms are computed in
orthonormal coefficients, which :meth:`ModalFunction.orthonormal_items`
obtains by the constant factor ``2**(-d/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .specialfunc import PsiProfile, psi, psi_prime


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
        index = _check_index(self, index)
        return math.pi**2 * float(sum(k * k for k in index))

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
    index = tuple(int(k) for k in np.atleast_1d(index))
    if len(index) != domain.d or any(k < 1 for k in index):
        raise ValueError(f"invalid eigenmode index {index} for d={domain.d}")
    return index


@dataclass(frozen=True)
class EigenMode:
    """A single Dirichlet-Laplacian eigenpair on the box; the eigenfunction
    is the plain sine product."""

    domain: BoxDomain
    index: tuple[int, ...]
    lam: float

    def __call__(self, x) -> float | np.ndarray:
        """Evaluate the eigenfunction at points ``x`` of shape ``(..., d)``
        (plain scalars/arrays for d=1)."""
        x = np.asarray(x, dtype=float)
        coords = [x] if self.domain.d == 1 else [x[..., i] for i in range(self.domain.d)]
        out = np.prod([np.sin(k * math.pi * c) for k, c in zip(self.index, coords)], axis=0)
        return float(out) if np.ndim(out) == 0 else out


def eigenpair(domain: BoxDomain, index) -> EigenMode:
    """Eigenvalue and eigenfunction evaluator for one mode of the box."""
    index = _check_index(domain, index)
    return EigenMode(domain, index, domain.eigenvalue(index))


@dataclass(frozen=True)
class ModalFunction:
    """Finite eigenfunction expansion ``sum_k coef_k * phi_k``."""

    domain: BoxDomain
    modes: tuple[tuple[EigenMode, float], ...]

    def __post_init__(self):
        for mode, coef in self.modes:
            if not math.isfinite(coef):
                raise ValueError("coefficients must be finite")

    def __call__(self, x):
        if not self.modes:
            x = np.asarray(x, dtype=float)
            shape = x.shape[:-1] if self.domain.d > 1 and x.ndim > 0 else x.shape
            out = np.zeros(shape)
            return float(out) if out.ndim == 0 else out
        total = sum(coef * mode(x) for mode, coef in self.modes)
        return total

    def orthonormal_items(self) -> list[tuple[tuple[int, ...], float, float]]:
        """List of ``(index, eigenvalue, orthonormal coefficient)``."""
        conv = 2.0 ** (-self.domain.d / 2.0)
        return [(mode.index, mode.lam, coef * conv) for mode, coef in self.modes]


def modal_function(domain: BoxDomain, entries) -> ModalFunction:
    """Build a :class:`ModalFunction` from ``(index, coefficient)`` pairs,
    merging repeated indices."""
    merged: dict[tuple[int, ...], float] = {}
    for index, coef in entries:
        index = _check_index(domain, index)
        merged[index] = merged.get(index, 0.0) + float(coef)
    modes = tuple(
        (eigenpair(domain, index), coef) for index, coef in sorted(merged.items())
    )
    return ModalFunction(domain, modes)


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

    @property
    def profile(self) -> PsiProfile:
        return PsiProfile(self.s)


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
    modes = tuple(
        (mode, coef * mode.lam ** (-problem.s)) for mode, coef in problem.f.modes
    )
    return replace(problem.f, modes=modes)


def hs_norm(v: ModalFunction, s: float) -> float:
    """Fractional Sobolev norm ``sqrt(sum lambda_k**s * v_k**2)`` computed in
    orthonormal coefficients; negative ``s`` gives the dual norm."""
    return math.sqrt(sum(lam**s * coef**2 for _, lam, coef in v.orthonormal_items()))


def exact_extended(problem: FractionalProblem, x, y) -> float | np.ndarray:
    """Extended solution ``u(x, y) = sum_k u_k * phi_k(x) * psi_s(sqrt(lambda_k) y)``
    for ``y >= 0``; at ``y = 0`` this is the fractional solution itself."""
    u = solve_fractional(problem)
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0.0):
        raise ValueError("extended variable must satisfy y >= 0")
    profile = problem.profile
    total = 0.0
    for mode, coef in u.modes:
        total = total + coef * mode(x) * psi(profile, math.sqrt(mode.lam) * y_arr)
    if np.ndim(total) == 0:
        return float(total)
    return total


def tail_energy(problem: FractionalProblem, Y: float) -> float:
    """Squared weighted-gradient energy of the extended solution above the
    truncation height ``Y >= 1``.

    Computed mode by mode as
    ``sum_k u_k**2 * int_Y^inf y**alpha * (lambda_k psi_k**2 + psi_k'**2) dy``
    with orthonormal coefficients ``u_k``; each integral is truncated at
    ``Y + 40/sqrt(lambda_k)``, beyond which the integrand is below the float
    noise floor.
    """
    from scipy import integrate  # loads scipy.optimize too; oracle use only

    if Y < 1.0:
        raise ValueError("tail energy requires Y >= 1")
    u = solve_fractional(problem)
    profile = problem.profile
    alpha = problem.alpha
    total = 0.0
    for index, lam, coef in u.orthonormal_items():
        if coef == 0.0:
            continue
        root = math.sqrt(lam)

        def integrand(y, root=root):
            z = root * y
            return y**alpha * lam * (psi(profile, z) ** 2 + psi_prime(profile, z) ** 2)

        upper = Y + 40.0 / root
        val, err, info = integrate.quad(
            integrand, Y, upper, epsabs=1e-300, epsrel=1e-10, limit=300,
            full_output=True,
        )[:3]
        if not np.isfinite(val) or (val > 0 and err > max(1e-10 * val, 1e-250)):
            raise RuntimeError(
                f"tail quadrature did not converge for mode {index}: err={err}"
            )
        total += coef**2 * val
    return total
