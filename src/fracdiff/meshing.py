"""Meshes for the extended direction and the parameter-selection rules.

Two mesh families on ``(0, Y)``:

* graded: ``y_m = (m/M)**(1/mu) * Y`` with piecewise-linear elements;
* geometric: ``y_m = sigma**(M-m) * Y`` with a linear degree vector of
  slope ``beta``.

The selection rules tie the number of elements ``M``, the truncation height
``Y``, and the family parameters to the mesh size of the base domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

FAMILIES = ("graded", "geometric")


@dataclass(frozen=True)
class YMesh:
    """Partition ``0 = y_0 < ... < y_M = Y`` with per-element degrees."""

    Y: float
    nodes: tuple[float, ...]
    degrees: tuple[int, ...]
    family: str
    param: float  # mu for graded, sigma for geometric

    def __post_init__(self):
        nodes = np.asarray(self.nodes)
        if nodes[0] != 0.0 or not np.isclose(nodes[-1], self.Y):
            raise ValueError("mesh must span [0, Y]")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("mesh nodes must be strictly increasing")
        if len(self.degrees) != len(self.nodes) - 1:
            raise ValueError("one polynomial degree per element required")
        if any(p < 1 for p in self.degrees):
            raise ValueError("polynomial degrees must be >= 1")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown mesh family {self.family!r}")

    @property
    def M(self) -> int:
        return len(self.nodes) - 1

    @property
    def h(self) -> np.ndarray:
        return np.diff(np.asarray(self.nodes))

    def n_dofs(self) -> int:
        """System size with the zero condition at ``Y`` applied:
        ``sum(p_m)``."""
        return int(sum(self.degrees))


def graded_mesh(M: int, mu: float, Y: float) -> YMesh:
    """Graded mesh ``y_m = (m/M)**(1/mu) * Y`` with all degrees 1."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"grading parameter mu={mu} must lie in (0, 1]")
    if Y <= 0.0:
        raise ValueError("Y must be positive")
    nodes = tuple((m / M) ** (1.0 / mu) * Y for m in range(M + 1))
    return YMesh(Y=Y, nodes=nodes, degrees=(1,) * M, family="graded", param=mu)


def geometric_mesh(M: int, sigma: float, Y: float) -> YMesh:
    """Geometric mesh ``y_0 = 0``, ``y_m = sigma**(M-m) * Y`` with all
    degrees 1 (:func:`hp_mesh` attaches the linear degree vector)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"geometric ratio sigma={sigma} must lie in (0, 1)")
    if Y <= 0.0:
        raise ValueError("Y must be positive")
    nodes = (0.0,) + tuple(sigma ** (M - m) * Y for m in range(1, M + 1))
    return YMesh(Y=Y, nodes=nodes, degrees=(1,) * M, family="geometric", param=sigma)


def linear_degree_vector(mesh: YMesh, beta: float) -> tuple[int, ...]:
    """Degree vector ``p_1 = 1`` and ``p_m = ceil(1 + beta*ln(h_m/h_1))`` for
    ``m >= 2`` on a geometric mesh.

    This is the tightest integer rule above the lower degree band; the upper
    band holds with at most one extra degree of slack. For ratios above 1/2
    the second element is shorter than the first and the rule is clamped at
    degree 1.
    """
    if mesh.family != "geometric":
        raise ValueError("linear degree vector requires a geometric mesh")
    if beta <= 0.0:
        raise ValueError("slope beta must be positive")
    h = mesh.h
    p = [1]
    for m in range(2, mesh.M + 1):
        p.append(max(1, math.ceil(1.0 + beta * math.log(h[m - 1] / h[0]))))
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
    h_omega: float
    s: float
    lambda1: float
    M: int
    Y: float
    mu: float | None = None
    sigma: float | None = None
    beta: float | None = None


def _check_h(h_omega: float):
    if not 0.0 < h_omega <= 0.5:
        raise ValueError(f"h_omega={h_omega} must lie in (0, 1/2]")


def _truncation_height(h_omega: float, lambda1: float, y_mult: float) -> float:
    return y_mult * max(3.0 * abs(math.log(h_omega)) / math.sqrt(lambda1), 1.0)


def select_params_h(
    h_omega: float,
    s: float,
    lambda1: float,
    mu: float | None = None,
    m_mult: float = 1.0,
    y_mult: float = 1.0,
) -> DiscretizationParams:
    """Graded-mesh parameters: ``mu = 0.8*s``, ``M = ceil(1/h_omega)``,
    ``Y = max(3*|ln h_omega|/sqrt(lambda1), 1)``."""
    _check_h(h_omega)
    if mu is None:
        mu = 0.8 * s
    M = math.ceil(m_mult / h_omega)
    Y = _truncation_height(h_omega, lambda1, y_mult)
    return DiscretizationParams(
        scheme="hfem", h_omega=h_omega, s=s, lambda1=lambda1, M=M, Y=Y, mu=mu
    )


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
    truncation height as the graded scheme."""
    _check_h(h_omega)
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma={sigma} must lie in (0, 1)")
    M = max(1, math.ceil(1.75 * m_mult * abs(math.log(h_omega)) / (s * abs(math.log(sigma)))))
    Y = _truncation_height(h_omega, lambda1, y_mult)
    return DiscretizationParams(
        scheme="hpfem", h_omega=h_omega, s=s, lambda1=lambda1, M=M, Y=Y,
        sigma=sigma, beta=beta,
    )


def build_ymesh(params: DiscretizationParams) -> YMesh:
    """Materialize the mesh (and degree vector) described by ``params``."""
    if params.scheme == "hfem":
        return graded_mesh(params.M, params.mu, params.Y)
    if params.scheme == "hpfem":
        return hp_mesh(params.M, params.sigma, params.Y, params.beta)
    raise ValueError(f"unknown scheme {params.scheme!r}")
