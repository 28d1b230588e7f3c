"""Spans around the program's public functions, recorded from outside.

A function is wrapped at the name its caller looks up: ``error_analysis``
imports ``solve``, ``sine_hat_integrals`` and the assembly functions into
its own namespace, so those names are patched there as well as in the
defining module. Spans are kept in memory; the caller writes them out when
the run ends. The patches are removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    op: int  # the refinement level (operation) the span belongs to
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _nnz(matrix) -> int:
    return int(getattr(matrix, "nnz", np.size(matrix)))


def matvec_counts(system) -> dict:
    """Computed kernel counts of one ``kron_matvec``: four sparse-times-dense
    products and one addition. Every dense operand is read once and every
    dense result written once; matrices are read once (values and column
    indices, 12 bytes per stored entry). Cache misses are not modelled."""
    n_o, n_y = system.n_omega, system.n_y
    nnz_y = _nnz(system.y.B_mass) + _nnz(system.y.B_stiff)
    nnz_o = _nnz(system.omega.A_mass) + _nnz(system.omega.A_stiff)
    n = n_o * n_y
    return {
        "flops": 2 * (nnz_y * n_o + nnz_o * n_y) + n,
        "bytes": 8 * (4 * 2 * n + 3 * n) + 12 * (nnz_y + nnz_o),
    }


def prec_apply_counts(prec, R) -> dict:
    """Computed kernel counts of one tensor-preconditioner apply: the dense
    base-direction transforms forward and back (one matrix product per
    direction of the base domain, each followed by a transposing copy in
    d=2), two permutations, and one pair of triangular solves per base
    eigenvalue with its bucket's dense Cholesky factor. Every pass over the
    tensor reads and writes it once; ``Q`` and each factor's stored triangle
    are read once per use."""
    n1 = prec.Q.shape[0]
    n_o, n_y = R.shape
    products = 2 * prec.d
    tensor_passes = products + 4 * (prec.d - 1) + 3
    factors = len(prec.bucket_factors)
    return {
        "flops": products * 2 * n1 * n_o * n_y + 2 * n_y * n_y * n_o,
        "bytes": 8 * (2 * n_o * n_y * tensor_passes + products * n1 * n1
                      + factors * n_y * (n_y + 1) // 2),
    }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []
        self._patches = []

    def span(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, probe=None):
        """Replace ``owner.attr`` by a recording wrapper. ``probe(bound
        arguments, result)`` returns attributes for the span; it runs after
        the span has closed. A name the program no longer has is skipped."""
        raw = inspect.getattr_static(owner, attr, None)
        if raw is None:
            return
        target = getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            signature = inspect.signature(target)
        else:
            target = raw
            signature = inspect.signature(raw)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.span(name)
            try:
                result = target(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span)
                span.attrs["error"] = type(exc).__name__
                if hasattr(exc, "iterations"):
                    span.attrs["iterations"] = exc.iterations
                raise
            tracer.close(span)
            if probe is not None:
                try:
                    span.attrs.update(probe(signature.bind(*args, **kwargs).arguments, result))
                except Exception as exc:  # a changed signature must not fail the level
                    span.attrs["probe_error"] = f"{type(exc).__name__}: {exc}"
            return result

        installed = staticmethod(wrapper) if isinstance(raw, (classmethod, staticmethod)) else wrapper
        setattr(owner, attr, installed)
        self._patches.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


def install(tracer: Tracer, fracdiff):
    """Wrap the public functions of the layers ``cli`` reaches on a study:
    ``error_analysis``, ``meshing``, ``fem1d``, ``femomega`` and ``solver``.
    ``spectral`` and ``specialfunc`` get no span: the study path uses them
    only for cheap modal arithmetic. The ``cli`` span is opened by the
    caller around each ``cli.main`` call."""
    ea, fem1d, femomega, solver = (
        fracdiff.error_analysis, fracdiff.fem1d, fracdiff.femomega, fracdiff.solver
    )

    def mesh_probe(args, mesh):
        return {"M": mesh.M, "N_Y": int(sum(mesh.degrees))}

    def rule_probe(args, result):
        return {"points": int(np.size(result[0]))}

    matvec = solver.kron_matvec

    def solve_probe(args, result):
        # the true relative residual, recomputed with the unwrapped operator
        # in a span of its own so that no layer is charged for it
        span = tracer.span("bench.residual_check")
        rhs = np.asarray(args["rhs"], dtype=float)
        residual = rhs - matvec(args["system"], result.coefficients.reshape(rhs.shape))
        norm = np.linalg.norm(rhs)
        rel = float(np.linalg.norm(residual) / norm) if norm > 0 else 0.0
        tracer.close(span)
        return {"iterations": result.iterations, "rel_residual": rel}

    def build_probe(args, result):
        return {"factorizations": len(getattr(result, "bucket_factors", ()))}

    def trace_probe(args, result):
        return {"k_modes": int(args["k_modes"])}

    def matvec_probe(args, result):
        return matvec_counts(args["system"])

    def apply_probe(args, result):
        return prec_apply_counts(args["self"], args["R"])

    wraps = [
        (ea, "run_convergence_study", "error_analysis.run_convergence_study", None),
        (ea, "run_level", "error_analysis.run_level", None),
        (ea, "energy_error", "error_analysis.energy_error", None),
        (ea, "trace_hs_error", "error_analysis.trace_hs_error", trace_probe),
        (ea, "build_ymesh", "meshing.build_ymesh", mesh_probe),
        (ea, "assemble_weighted_matrices", "fem1d.assemble_weighted_matrices", None),
        (fem1d, "weighted_rule", "fem1d.weighted_rule", rule_probe),
        (ea, "assemble_omega_matrices", "femomega.assemble_omega_matrices", None),
        (ea, "assemble_load", "femomega.assemble_load", None),
        (ea, "sine_hat_integrals", "femomega.sine_hat_integrals", None),
        (femomega, "sine_hat_integrals", "femomega.sine_hat_integrals", None),
        (ea, "solve", "solver.solve", solve_probe),
        (solver, "kron_matvec", "solver.kron_matvec", matvec_probe),
        (solver.TensorPreconditioner, "build", "solver.prec_build", build_probe),
        (solver.TensorPreconditioner, "apply", "solver.prec_apply", apply_probe),
    ]
    for owner, attr, name, probe in wraps:
        tracer.wrap(owner, attr, name, probe)
