"""Meshes for the extended direction and the parameter-selection rules.

Two mesh families on ``(0, Y)``:

* graded: ``y_m = (m/M)**(1/mu) * Y`` with piecewise-linear elements;
* geometric: ``y_m = sigma**(M-m) * Y`` with a linear degree vector of
  slope ``beta``.

The selection rules tie the number of elements ``M``, the truncation height
``Y``, and the grading or degree parameters to the mesh size of the base
domain; the mesh itself holds only its nodes and degrees.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np


class MeshError(ValueError):
    """The level cannot be built: its base grid, base mesh size or scheme
    lies outside the rules, a rule override is out of range, its element
    count, height or a degree is not finite, its nodes are not strictly
    increasing (e.g. a strongly graded or scaled node underflowed to its
    neighbour), or an element's weighted quadrature rule or element matrices
    cannot be formed."""


def _check_first_width(width: float, rule: str, log10_width: float):
    """Reject a first node that underflows to 0, naming the width ``rule``
    asks for; checked before the nodes are built, so a huge ``M`` fails fast.
    Four significant digits bound the exponent's length, which reaches
    about 1e300 at ``s = 1e-300``."""
    if width == 0.0:
        raise MeshError(f"the first element width {rule} = 10**{log10_width:#.4g} underflows to 0")


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise MeshError(f"{name} = {value} is not finite")
    return value


@dataclass(frozen=True)
class YMesh:
    """Partition ``0 = y_0 < ... < y_M = Y`` with per-element degrees; the
    height ``Y`` is the last node."""

    nodes: tuple[float, ...]
    degrees: tuple[int, ...]

    Y = property(lambda self: self.nodes[-1])

    def __post_init__(self):
        nodes = np.asarray(self.nodes)
        if nodes[0] != 0.0:
            raise ValueError("mesh must start at y_0 = 0")
        bad = np.flatnonzero(np.diff(nodes) <= 0.0)
        if bad.size:
            k = bad[0]
            raise MeshError(f"mesh nodes must be strictly increasing, got "
                            f"y_{k} = {nodes[k]:.17g} and y_{k + 1} = {nodes[k + 1]:.17g}")
        if len(self.degrees) != len(self.nodes) - 1:
            raise ValueError("one polynomial degree per element required")
        if any(p < 1 for p in self.degrees):
            raise ValueError("polynomial degrees must be >= 1")

    @property
    def M(self) -> int:
        return len(self.nodes) - 1

    @property
    def h(self) -> np.ndarray:
        return np.diff(np.asarray(self.nodes))


def graded_mesh(M: int, mu: float, Y: float) -> YMesh:
    """Graded mesh ``y_m = (m/M)**(1/mu) * Y`` with all degrees 1."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"grading parameter mu={mu} must lie in (0, 1]")
    if Y <= 0.0:
        raise ValueError("Y must be positive")
    _check_first_width((1 / M) ** (1.0 / mu) * Y, "(1/M)**(1/mu)*Y",
                       math.log10(Y) - math.log10(M) / mu)
    nodes = tuple((m / M) ** (1.0 / mu) * Y for m in range(M + 1))
    return YMesh(nodes=nodes, degrees=(1,) * M)


def geometric_mesh(M: int, sigma: float, Y: float) -> YMesh:
    """Geometric mesh ``y_0 = 0``, ``y_m = sigma**(M-m) * Y`` with all
    degrees 1 (:func:`hp_mesh` attaches the linear degree vector)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"geometric ratio sigma={sigma} must lie in (0, 1)")
    if Y <= 0.0:
        raise ValueError("Y must be positive")
    _check_first_width(sigma ** (M - 1) * Y, "sigma**(M-1)*Y",
                       (M - 1) * math.log10(sigma) + math.log10(Y))
    nodes = (0.0,) + tuple(sigma ** (M - m) * Y for m in range(1, M + 1))
    return YMesh(nodes=nodes, degrees=(1,) * M)


def linear_degree_vector(mesh: YMesh, beta: float) -> tuple[int, ...]:
    """Degree vector ``p_1 = 1`` and ``p_m = ceil(1 + beta*ln(h_m/h_1))`` for
    ``m >= 2``, clamped at degree 1 where ``h_m < h_1``.

    On a geometric mesh this is the tightest integer rule above the lower
    degree band; the upper band holds with at most one extra degree of
    slack. For ratios above 1/2 the second element is shorter than the first
    and the clamp applies. ``ln h_m - ln h_1`` does not overflow as ``h_m/h_1``
    does; a degree that overflows raises :class:`MeshError`.
    """
    if beta <= 0.0:
        raise ValueError("slope beta must be positive")
    h = mesh.h
    log_h1 = math.log(h[0])
    p = [1]
    for m in range(2, mesh.M + 1):
        degree = 1.0 + beta * max(math.log(h[m - 1]) - log_h1, 0.0)
        p.append(math.ceil(_finite(f"element {m}: the degree 1 + beta*ln(h_m/h_1)", degree)))
    return tuple(p)


def hp_mesh(M: int, sigma: float, Y: float, beta: float) -> YMesh:
    """Geometric mesh equipped with its linear degree vector."""
    mesh = geometric_mesh(M, sigma, Y)
    return replace(mesh, degrees=linear_degree_vector(mesh, beta))


@dataclass(frozen=True)
class DiscretizationParams:
    """Extended-direction discretization parameters derived from the base
    mesh size ``h_omega``."""

    scheme: str  # "hfem" | "hpfem"
    M: int
    Y: float
    mu: float | None = None
    sigma: float | None = None
    beta: float | None = None


def check_h_omega(h_omega: float):
    """Reject a base mesh size outside ``(0, 1/2]``, the range of the rules,
    as :class:`MeshError`."""
    if not 0.0 < h_omega <= 0.5:
        raise MeshError(f"h_omega={h_omega} must lie in (0, 1/2]")


def rule_override_error(*, mu: float | None = None, sigma: float = 0.125, beta: float = 0.7,
                        m_mult: float = 1.0, y_mult: float = 1.0) -> str | None:
    """Why an override of the selection rules lies outside its range, or
    None: ``mu`` in ``(0, 1]`` (None derives it from ``s``), ``sigma`` in
    ``(0, 1)``, and ``beta``, ``m_mult`` and ``y_mult`` finite and
    positive."""
    for name, value in (("beta", beta), ("m_mult", m_mult), ("y_mult", y_mult)):
        if not (math.isfinite(value) and value > 0.0):
            return f"{name} must be finite and positive, got {value}"
    if not 0.0 < sigma < 1.0:
        return f"sigma must lie in (0, 1), got {sigma}"
    if mu is not None and not 0.0 < mu <= 1.0:
        return f"mu must lie in (0, 1], got {mu}"
    return None


def _truncation_height(h_omega: float, lambda1: float, y_mult: float) -> float:
    Y = y_mult * max(3.0 * abs(math.log(h_omega)) / math.sqrt(lambda1), 1.0)
    return _finite("the truncation height Y", Y)


def _element_count(numerator: float, denominator: float) -> int:
    """``max(1, ceil(numerator/denominator))``; a ratio that overflows raises
    :class:`MeshError`."""
    count = numerator / denominator if denominator > 0.0 else math.inf
    return max(1, math.ceil(_finite("the element count M", count)))


def select_params_h(
    h_omega: float,
    s: float,
    lambda1: float,
    mu: float | None = None,
    m_mult: float = 1.0,
    y_mult: float = 1.0,
) -> DiscretizationParams:
    """Graded-mesh parameters: ``mu = 0.8*s``, ``M = ceil(1/h_omega)``,
    ``Y = max(3*|ln h_omega|/sqrt(lambda1), 1)``. An override outside
    its range (:func:`rule_override_error`) raises :class:`MeshError`."""
    check_h_omega(h_omega)
    cause = rule_override_error(mu=mu, m_mult=m_mult, y_mult=y_mult)
    if cause is not None:
        raise MeshError(cause)
    if mu is None:
        mu = 0.8 * s
    M = _element_count(m_mult, h_omega)
    Y = _truncation_height(h_omega, lambda1, y_mult)
    return DiscretizationParams(scheme="hfem", M=M, Y=Y, mu=mu)


def select_params_hp(
    h_omega: float,
    s: float,
    lambda1: float,
    sigma: float = 0.125,
    beta: float = 0.7,
    m_mult: float = 1.0,
    y_mult: float = 1.0,
) -> DiscretizationParams:
    """Geometric-mesh parameters: ``sigma = 0.125``, ``beta = 0.7``,
    ``M = ceil(1.75*m_mult*|ln h_omega|/(s*|ln sigma|))`` and the same
    truncation height as the graded scheme. An override outside its range
    (:func:`rule_override_error`) raises :class:`MeshError`."""
    check_h_omega(h_omega)
    cause = rule_override_error(sigma=sigma, beta=beta, m_mult=m_mult, y_mult=y_mult)
    if cause is not None:
        raise MeshError(cause)
    M = _element_count(1.75 * m_mult * abs(math.log(h_omega)), s * abs(math.log(sigma)))
    Y = _truncation_height(h_omega, lambda1, y_mult)
    return DiscretizationParams(scheme="hpfem", M=M, Y=Y, sigma=sigma, beta=beta)


# Bytes a level keeps per element besides its element matrices: the node (a
# float object and its slot in the mesh's tuple) and the degree's slot.
_NODE_BYTES = 40
# Bytes assembly holds per element until it returns, besides the element
# matrices and the quadrature weights: the node, width and degree arrays and
# the element's entry in its group's index array.
_ASSEMBLY_BYTES = 32
# Bytes per element beyond the first 256 that forming the quadrature
# weights adds to the peak, counted low. The node, width and degree arrays,
# the point counts and the arrays that group the elements (about 57 bytes)
# live while each group's weights are formed in four arrays of its points;
# most elements of a graded mesh share one rule, and its arrays make the
# peak: 209-262 bytes per element traced for h-FEM at M = 2e4 to 3.2e5 and
# s = 0.05 to 0.95, of which the estimate counts 200.
_WEIGHTS_PEAK_BYTES, _WEIGHTS_PEAK_FROM = 40, 256


def _power_sums(a: float, b: float, lo: int, hi: int) -> tuple[float, float]:
    """``sum(a + b*j)`` and ``sum((a + b*j)**2)`` over ``j = lo..hi`` in
    closed form."""
    count = hi - lo + 1
    if count <= 0:
        return 0.0, 0.0
    sum_j = (lo + hi) * count / 2
    sum_j2 = (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) / 6
    return count * a + b * sum_j, count * a * a + 2 * a * b * sum_j + b * b * sum_j2


def y_storage_bytes(params: DiscretizationParams) -> float:
    """A lower bound on the peak bytes of the extended direction while the
    level is built and assembled, from ``M`` and the degrees alone: per
    element its node, its two ``(p+1) x (p+1)`` element matrices, its at
    least ``p + 2`` quadrature weights and what assembly holds besides (see
    ``_ASSEMBLY_BYTES``), all held when the contractions end, and an
    allowance for the earlier peak of forming the weights
    (``_WEIGHTS_PEAK_BYTES``). The hp degrees are bounded below by
    :func:`linear_degree_vector` without its ceiling: on the geometric mesh
    ``ln(h_m/h_1) = (m-1)*|ln sigma| + ln(1 - sigma)`` for ``m >= 2``. Sums
    that overflow (a huge ``beta``) give ``inf``, never NaN, which no memory
    would pass."""
    M = params.M
    if params.scheme == "hfem":
        linear, squares = 2.0 * M, 4.0 * M  # the sums of p + 1 and (p + 1)**2
    else:
        # p_m + 1 >= 2 + beta*max(0, j*|ln sigma| + ln(1 - sigma)), j = m - 1
        slope, offset = -math.log(params.sigma), math.log1p(-params.sigma)
        j0 = min(M, max(1, math.ceil(-offset / slope)))
        linear, squares = _power_sums(2.0 + params.beta * offset, params.beta * slope, j0, M - 1)
        linear, squares = linear + 2.0 * j0, squares + 4.0 * j0
    need = (M * (_NODE_BYTES + _ASSEMBLY_BYTES) + 16.0 * squares + 8.0 * (linear + M)
            + _WEIGHTS_PEAK_BYTES * max(0, M - _WEIGHTS_PEAK_FROM))
    return math.inf if math.isnan(need) else need  # inf - inf in _power_sums


def physical_memory_bytes() -> int:
    """The machine's physical memory, from the page size and count."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def build_ymesh(params: DiscretizationParams) -> YMesh:
    """Materialize the mesh (and degree vector) described by ``params``.

    A level whose :func:`y_storage_bytes` exceeds the physical memory raises
    :class:`MeshError` before any node is built."""
    need, have = y_storage_bytes(params), physical_memory_bytes()
    if need > have:
        raise MeshError(f"M = {params.M} elements keep at least {need:.3g} bytes while the "
                        f"extended direction is assembled, more than the {have:.3g} bytes of "
                        "physical memory")
    if params.scheme == "hfem":
        return graded_mesh(params.M, params.mu, params.Y)
    if params.scheme == "hpfem":
        return hp_mesh(params.M, params.sigma, params.Y, params.beta)
    raise ValueError(f"unknown scheme {params.scheme!r}")
