"""The benchmark harness's spans (``perfbench/spans.py``) wrap the program's
functions by name. A rename in the program must fail here, not only in a
traced benchmark run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import fracdiff
from fracdiff import error_analysis, fem1d, femomega, solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# every (owner, attribute) that install() wraps on this program
WRAPPED = {
    (error_analysis, "run_convergence_study"),
    (error_analysis, "run_level"),
    (error_analysis, "energy_error"),
    (error_analysis, "trace_hs_error"),
    (error_analysis, "build_ymesh"),
    (error_analysis, "assemble_weighted_matrices"),
    (fem1d, "weighted_rule"),
    (error_analysis, "assemble_omega_matrices"),
    (error_analysis, "assemble_load"),
    (femomega, "sine_hat_integrals"),
    (solver, "kron_matvec"),
    (solver.TensorPreconditioner, "build"),
    (solver.TensorPreconditioner, "apply"),
}


def load_spans(monkeypatch):
    """``perfbench/spans.py`` as a module, imported without writing bytecode
    next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_the_program_names_and_uninstall_restores_them(monkeypatch):
    spans = load_spans(monkeypatch)
    owners = {owner for owner, _ in WRAPPED}
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = spans.Tracer()
    try:
        spans.install(tracer, fracdiff)
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        changed = {(owner, attr) for owner, attr in WRAPPED
                   if inspect.getattr_static(owner, attr) is not before[owner][attr]}
    finally:
        tracer.uninstall()
    assert patched == WRAPPED
    assert changed == WRAPPED
    for owner in owners:
        after = dict(vars(owner))
        assert after.keys() == before[owner].keys()
        assert all(after[name] is value for name, value in before[owner].items())
