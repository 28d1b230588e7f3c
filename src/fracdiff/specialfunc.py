"""Modified Bessel functions of the second kind and the decay profile
``psi_s(z) = c_s * z**s * K_s(z)``.

This module provides the scalar building blocks used by the exact-solution
machinery: evaluation of ``K_nu`` for real order (production path plus an
independent integral-representation cross-check), the profile ``psi_s`` with
its closed-form first derivative, and the coefficient recurrence behind the
representation of its higher derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

# Practical evaluation range; K_nu overflows float64 long before this for
# small arguments, so callers stay well inside.
MAX_ORDER = 40.0

# derivative_coeffs values are exact Python integers; the cap only bounds the
# representation used by psi_nth_derivative and the recurrence tests.
MAX_COEFF_ORDER = 40

# psi_nth_derivative is specified for n up to 12.
MAX_DERIVATIVE_ORDER = 12


def _as_float_array(z):
    arr = np.asarray(z, dtype=float)
    return arr, (arr.ndim == 0)


def _order(nu) -> float:
    """``|nu|`` through the symmetry ``K_{-nu} = K_nu``, checked against the
    supported range."""
    order = abs(float(nu))
    if order > MAX_ORDER:
        raise ValueError(f"order |nu|={order} outside supported range <= {MAX_ORDER}")
    return order


def bessel_k(nu, z) -> float | np.ndarray:
    """Modified Bessel function of the second kind ``K_nu(z)``.

    Accepts a real order ``|nu| <= 40``; vectorized in ``z``. Raises
    ``ValueError`` for ``z <= 0`` or orders outside the supported range.
    """
    order = _order(nu)
    arr, scalar = _as_float_array(z)
    if np.any(arr <= 0.0) or np.any(~np.isfinite(arr)):
        raise ValueError("bessel_k requires z > 0")
    out = special.kv(order, arr)
    return float(out) if scalar else out


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # log(cosh(x)) without overflow for large |x|
    return np.logaddexp(x, -x) - math.log(2.0)


def bessel_k_integral(nu: float, z: float) -> float:
    """Reference evaluation of ``K_nu(z)`` by adaptive quadrature of
    ``integral_0^inf exp(-z*cosh t)*cosh(nu*t) dt``.

    Scalar and slow; serves as the independent cross-check for
    :func:`bessel_k`. Raises ``OverflowError`` when the value exceeds the
    float64 range.
    """
    from scipy import integrate  # loads scipy.optimize too; oracle use only

    order = _order(nu)
    z = float(z)
    if z <= 0.0:
        raise ValueError("bessel_k_integral requires z > 0")

    def log_f(t):
        return -z * np.cosh(t) + _log_cosh(order * t)

    t_peak = float(np.arcsinh(order / z)) if order > 0 else 0.0
    shift = float(log_f(np.asarray(t_peak)))
    if shift > 700.0:
        raise OverflowError("K_nu(z) exceeds the representable float range")

    upper = max(t_peak, 1.0)
    while float(log_f(np.asarray(upper))) - shift > -80.0:
        upper += max(1.0, 0.5 * upper)

    def f(t):
        return np.exp(log_f(t) - shift)

    val, err, info = integrate.quad(f, 0.0, upper, epsabs=1e-300, epsrel=1e-14,
                                    limit=500, full_output=True)[:3]
    if not np.isfinite(val) or (val > 0 and err / val > 1e-11):
        raise RuntimeError(f"quadrature for K_{order}({z}) did not converge: err={err}")
    return math.exp(shift) * val


@dataclass(frozen=True)
class PsiProfile:
    """Profile parameters: fractional order ``s`` and the scale
    ``c_s = 2**(1-s)/Gamma(s)`` that makes ``psi_s(0) = 1``."""

    s: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s={self.s} must lie in (0, 1)")

    @property
    def c_s(self) -> float:
        return 2.0 ** (1.0 - self.s) / math.gamma(self.s)


def psi(profile: PsiProfile, z) -> float | np.ndarray:
    """Evaluate ``psi_s(z) = c_s * z**s * K_s(z)`` for ``z >= 0``.

    The value at ``z = 0`` is the analytic limit 1. Monotone decreasing with
    values in ``(0, 1]``; underflows to 0 for ``z`` beyond roughly 700.
    """
    arr, scalar = _as_float_array(z)
    if np.any(arr < 0.0):
        raise ValueError("psi requires z >= 0")
    out = np.ones_like(arr)
    pos = arr > 0.0
    if np.any(pos):
        zp = arr[pos]
        out[pos] = profile.c_s * zp ** profile.s * special.kv(profile.s, zp)
    return float(out) if scalar else out


def psi_prime(profile: PsiProfile, z) -> float | np.ndarray:
    """First derivative ``psi_s'(z) = -(c_s/c_{1-s}) * z**(2s-1) * psi_{1-s}(z)``.

    Requires ``z > 0`` (the value diverges at 0 for ``s < 1/2``); strictly
    negative on its domain.
    """
    arr, scalar = _as_float_array(z)
    if np.any(arr <= 0.0):
        raise ValueError("psi_prime requires z > 0")
    dual = PsiProfile(1.0 - profile.s)
    out = -(profile.c_s / dual.c_s) * arr ** (2.0 * profile.s - 1.0) * psi(dual, arr)
    return float(out) if scalar else out


@lru_cache(maxsize=None)
def derivative_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients ``a_0 .. a_n`` of the n-th derivative representation of
    ``z**s * K_s(z)`` as a combination of ``z**(s-m) * K_{s-(n-m)}(z)``.

    The values are exact integers: ``a_0 = (-1)**n`` and
    ``a_m = (-1)**(n+m) * n! / (2**m * m! * (n-2m)!)`` for
    ``1 <= m <= floor(n/2)``, zero beyond.
    """
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n > MAX_COEFF_ORDER:
        raise ValueError(f"derivative order {n} exceeds supported cap {MAX_COEFF_ORDER}")
    a = [0] * (n + 1)
    a[0] = (-1) ** n
    for m in range(1, n // 2 + 1):
        num = math.factorial(n)
        den = 2**m * math.factorial(m) * math.factorial(n - 2 * m)
        q, r = divmod(num, den)
        assert r == 0
        a[m] = (-1) ** (n + m) * q
    return tuple(a)


def psi_nth_derivative(profile: PsiProfile, n: int, z) -> float | np.ndarray:
    """n-th derivative of ``psi_s`` at ``z > 0`` via the exact representation
    ``c_s * sum_m a_m * z**(s-m) * K_{s-(n-m)}(z)``, for ``0 <= n <= 12``."""
    if not 0 <= n <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must lie in [0, {MAX_DERIVATIVE_ORDER}]")
    arr, scalar = _as_float_array(z)
    if np.any(arr <= 0.0):
        raise ValueError("psi_nth_derivative requires z > 0")
    coeffs = derivative_coeffs(n)
    s = profile.s
    out = np.zeros_like(arr)
    for m in range(n // 2 + 1):
        # kv handles negative orders through the K_{-nu} = K_nu symmetry
        out += coeffs[m] * arr ** (s - m) * special.kv(s - (n - m), arr)
    out *= profile.c_s
    return float(out) if scalar else out


def decay_envelope_constant(profile: PsiProfile, r: float, a: float = 1.0) -> float:
    """Explicit constant ``C(a, s, r)`` with ``|z**r * psi_s(z)| <= C * exp(-z/2)``
    for all ``z >= a``, valid for ``r >= min(s, 1/2) - s``.

    ``C = c_s * a**s0 * exp(a) * K_s(a) * (2*(r + s - s0)/e)**(r + s - s0)``
    with ``s0 = min(s, 1/2)``.
    """
    s = profile.s
    s0 = min(s, 0.5)
    if r < s0 - s:
        raise ValueError(f"r={r} below admissible range r >= {s0 - s}")
    expo = r + s - s0
    peak = (2.0 * expo / math.e) ** expo if expo > 0 else 1.0
    return profile.c_s * a**s0 * math.exp(a) * bessel_k(s, a) * peak
