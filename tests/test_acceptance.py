"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The convergence studies on the d=2 benchmark (cells doubling from
an 8x8 grid, i.e. four mesh-size halvings starting near 1/8) are shared
between criteria through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from fracdiff.error_analysis import (
    direct_energy_error_small,
    discretize,
    dof_gap,
    energy_error,
    observed_orders,
    run_convergence_study,
)
from fracdiff.fem1d import assemble_weighted_matrices
from fracdiff.femomega import OmegaGrid, assemble_omega_matrices
from fracdiff.meshing import geometric_mesh, graded_mesh, hp_mesh, linear_degree_vector
from fracdiff.solver import KroneckerSystem, kron_matvec, solve
from fracdiff.specialfunc import (
    PsiProfile,
    decay_envelope_constant,
    derivative_coeffs,
    psi,
    psi_nth_derivative,
)
from fracdiff.spectral import (
    BoxDomain,
    FractionalProblem,
    benchmark_problem,
    hs_norm,
    modal_function,
    solve_fractional,
    tail_energy,
)

N_LIST = [8, 16, 32, 64, 128]
ORDERS_OF_S = (0.2, 0.8)


def report(number: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def hfem_studies():
    return {
        s: run_convergence_study("hfem", s, 2, n_list=N_LIST, tol=1e-9)
        for s in ORDERS_OF_S
    }


@pytest.fixture(scope="module")
def hpfem_studies():
    return {
        s: run_convergence_study("hpfem", s, 2, n_list=N_LIST, tol=1e-9)
        for s in ORDERS_OF_S
    }


def test_criterion_01_hfem_rate(hfem_studies):
    window = (0.85, 1.15)
    details, ok = [], True
    for s, rows in hfem_studies.items():
        orders = observed_orders(rows, log_power=s)[-2:]
        details.append(f"s={s}: log-normalized orders {['%.3f' % o for o in orders]}")
        ok = ok and all(window[0] <= o <= window[1] for o in orders)
    report(1, "h-fem energy rate", ok, "; ".join(details))


def test_criterion_02_hpfem_rate(hpfem_studies):
    # The integer element-count ceiling advances less than once per mesh
    # halving for larger s, so single-increment orders alternate between
    # stall and release at this scale; the rate is measured across the last
    # two increments together (single-increment values reported alongside).
    window = (0.9, 1.1)
    details, ok = [], True
    for s, rows in hpfem_studies.items():
        e0, e2 = rows[-3].energy_error, rows[-1].energy_error
        h0, h2 = rows[-3].h_omega, rows[-1].h_omega
        span_order = math.log(e0 / e2) / math.log(h0 / h2)
        single = observed_orders(rows)[-2:]
        details.append(
            f"s={s}: order {span_order:.3f} over last two increments "
            f"(single-increment {['%.3f' % o for o in single]})"
        )
        ok = ok and window[0] <= span_order <= window[1]
    report(2, "hp-fem energy rate", ok, "; ".join(details))


def test_criterion_03_dof_scalings(hfem_studies, hpfem_studies):
    details, ok = [], True
    for s, rows in hfem_studies.items():
        ratios = [r.N_total / r.N_omega ** (1 + 1 / 2) for r in rows]
        spread = max(ratios) / min(ratios)
        details.append(f"hfem s={s}: spread {spread:.2f}")
        ok = ok and spread <= 4.0
    for s, rows in hpfem_studies.items():
        ratios = [r.N_total / (r.N_omega * math.log(r.N_omega) ** 2) for r in rows]
        spread = max(ratios) / min(ratios)
        details.append(f"hpfem s={s}: spread {spread:.2f}")
        ok = ok and spread <= 4.0
    report(3, "dof scalings", ok, "; ".join(details))


def test_criterion_04_efficiency_gap(hfem_studies, hpfem_studies):
    err, n_h, n_hp = dof_gap(hfem_studies[0.8], hpfem_studies[0.8])
    ratio = n_h / n_hp
    report(
        4,
        "hp efficiency gap",
        ratio >= 10.0,
        f"error level {err:.4g}: hfem {n_h} dofs vs hpfem {n_hp} dofs ({ratio:.1f}x)",
    )


def test_criterion_05_special_functions():
    checks = []

    z = np.linspace(0.01, 30.0, 300)
    half = psi(PsiProfile(0.5), z)
    checks.append(np.max(np.abs(half - np.exp(-z)) / np.exp(-z)) < 1e-12)

    for s in np.arange(0.1, 0.95, 0.1):
        vals = psi(PsiProfile(round(float(s), 2)), np.linspace(0.0, 25.0, 200))
        checks.append(bool(np.all(vals > 0) and np.all(vals <= 1.0) and np.all(np.diff(vals) < 0)))

    stencils = {
        1: ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)),
        2: ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
        3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8)),
        4: ((-3, -2, -1, 0, 1, 2, 3), (-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6)),
    }
    for n in range(1, 5):
        offs, coefs = stencils[n]
        for s in (0.2, 0.5, 0.8):
            profile = PsiProfile(s)
            for zv in (0.5, 1.2, 2.5, 5.0):
                h = zv * 1e-16 ** (1.0 / (n + 4))
                fd = sum(c * psi(profile, zv + o * h) for o, c in zip(offs, coefs)) / h**n
                exact = psi_nth_derivative(profile, n, zv)
                checks.append(abs(fd - exact) / abs(exact) < 1e-4)

    for n in range(16):
        cur, nxt = derivative_coeffs(n), derivative_coeffs(n + 1)
        checks.append(nxt[0] == -cur[0])
        checks.append(
            all(nxt[m] == -cur[m] + (n - 2 * (m - 1)) * cur[m - 1] for m in range(1, n + 1))
        )

    zg = np.linspace(1.0, 30.0, 300)
    for s in (0.2, 0.5, 0.8):
        profile = PsiProfile(s)
        for r in (0.0, 0.5, 1.0):
            bound = decay_envelope_constant(profile, r, a=1.0) * np.exp(-zg / 2)
            checks.append(bool(np.all(zg**r * psi(profile, zg) <= bound * (1 + 1e-12))))

    report(5, "special-function suite", all(checks), f"{len(checks)} checks")


def test_criterion_06_mesh_lemmas():
    checks = []

    mesh = graded_mesh(17, 0.36, 1.9)
    nodes, h = np.asarray(mesh.nodes), mesh.h
    checks.append(abs(h[0] - 17 ** (-1 / 0.36) * 1.9) < 1e-15)
    mu, Y, M = 0.36, 1.9, 17
    for m in range(2, M + 1):
        scale = nodes[m] ** (1 - mu) * Y**mu / M
        lower, upper = 2 ** ((mu - 1) / mu) / mu * scale, scale / mu
        checks.append(lower * (1 - 1e-12) <= h[m - 1] <= upper * (1 + 1e-12))

    geo = geometric_mesh(9, 0.125, 2.3)
    gnodes, gh = np.asarray(geo.nodes), geo.h
    checks.append(abs(gh[0] - 0.125**8 * 2.3) < 1e-18)
    for m in range(2, 10):
        checks.append(abs(gh[m - 1] - 0.875 * gnodes[m]) <= 1e-12 * gh[m - 1])
        checks.append(abs(gh[m - 1] - 7.0 * gnodes[m - 1]) <= 1e-12 * gh[m - 1])
        checks.append(abs(gh[m - 1] - 0.875 * 0.125 ** (1 - m) * gh[0]) <= 1e-12 * gh[m - 1])

    beta = 0.7
    p = linear_degree_vector(geo, beta)
    checks.append(p[0] == 1)
    for m in range(2, 10):
        slope = math.log(0.875) + (1 - m) * math.log(0.125)
        checks.append(1 + beta * slope <= p[m - 1] + 1e-9 <= 2 + beta * slope + 2e-9)

    hp = hp_mesh(9, 0.125, 2.3, 0.7)
    checks.append(hp.n_dofs() == sum(hp.degrees))

    report(6, "mesh lemma suite", all(checks), f"{len(checks)} checks")


def test_criterion_07_linear_algebra_oracles(direct_q1_assembly):
    checks = []
    rng = np.random.default_rng(101)

    omega = assemble_omega_matrices(OmegaGrid(1, 11))
    weighted = assemble_weighted_matrices(hp_mesh(5, 0.125, 1.6, 0.7), alpha=-0.6)
    system = KroneckerSystem(omega, weighted)
    assert system.n_total <= 1000
    dense = np.kron(weighted.B_mass.toarray(), omega.A_stiff.toarray()) + np.kron(
        weighted.B_stiff.toarray(), omega.A_mass.toarray()
    )
    for _ in range(5):
        x = rng.standard_normal(system.n_total)
        want = dense @ x
        err = np.max(np.abs(kron_matvec(system, x) - want)) / np.abs(want).max()
        checks.append(err <= 1e-13)

    omega_m = assemble_omega_matrices(OmegaGrid(1, 14))
    weighted_m = assemble_weighted_matrices(graded_mesh(9, 0.35, 1.8), alpha=-0.2)
    system_m = KroneckerSystem(omega_m, weighted_m)
    w = rng.standard_normal((system_m.n_omega, system_m.n_y))
    rhs_m = kron_matvec(system_m, w)
    sol = solve(system_m, rhs_m, rel_tol=1e-10)
    checks.append(np.linalg.norm(sol.coefficients - w) / np.linalg.norm(w) < 1e-8)
    dense_m = np.kron(weighted_m.B_mass.toarray(), omega_m.A_stiff.toarray()) + np.kron(
        weighted_m.B_stiff.toarray(), omega_m.A_mass.toarray()
    )
    direct = np.linalg.solve(dense_m, rhs_m.reshape(-1, order="F")).reshape(w.shape, order="F")
    checks.append(np.linalg.norm(direct - w) / np.linalg.norm(w) < 1e-8)
    checks.append(
        np.linalg.norm(sol.coefficients - direct) / np.linalg.norm(direct) < 1e-8
    )

    omega2 = assemble_omega_matrices(OmegaGrid(2, 3))
    mass, stiff = direct_q1_assembly(3)
    checks.append(np.max(np.abs(omega2.A_mass.toarray() - mass)) <= 1e-13 * mass.max())
    checks.append(
        np.max(np.abs(omega2.A_stiff.toarray() - stiff)) <= 1e-13 * np.abs(stiff).max()
    )

    report(7, "linear-algebra oracles", all(checks), f"{len(checks)} checks")


def test_criterion_08_energy_identity_cross_check():
    details, ok = [], True
    for s in (0.3, 0.5, 0.75):
        for scheme in ("hfem", "hpfem"):
            problem = benchmark_problem(s, 1)
            level = discretize(problem, scheme, 24)
            assert level.system.n_total <= 5000
            sol = solve(level.system, level.rhs, rel_tol=1e-11)
            identity = energy_error(problem, level.load, sol.trace)
            direct = direct_energy_error_small(problem, level.grid, level.weighted, sol)
            rel = abs(direct - identity) / identity
            details.append(f"{scheme} s={s}: {rel:.4%}")
            ok = ok and rel <= 0.02
    report(8, "energy identity cross-check", ok, "; ".join(details))


def test_criterion_09_spectral_isometry():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 3))
        domain = BoxDomain(d)
        n_modes = int(rng.integers(1, 7))
        entries = []
        for _ in range(n_modes):
            idx = tuple(int(k) for k in rng.integers(1, 9, size=d))
            entries.append((idx, float(rng.standard_normal() * 10)))
        f = modal_function(domain, entries)
        s = float(rng.uniform(0.02, 0.98))
        problem = FractionalProblem(s=s, domain=domain, f=f)
        u = solve_fractional(problem)
        nf = hs_norm(f, -s)
        if nf == 0.0:
            continue
        worst = max(worst, abs(hs_norm(u, s) - nf) / nf)
    report(9, "spectral isometry", worst <= 1e-14, f"worst relative gap {worst:.2e}")


def test_criterion_10_truncation_decay():
    details, ok = [], True
    for s in (0.2, 0.5, 0.8):
        problem = benchmark_problem(s, 2)
        heights = np.linspace(1.0, 4.0, 7)
        logs = np.log([tail_energy(problem, Y) for Y in heights])
        slopes = np.diff(logs) / np.diff(heights)
        bound = -math.sqrt(problem.domain.lambda1) + 0.1
        details.append(f"s={s}: max slope {slopes.max():.2f} vs bound {bound:.2f}")
        ok = ok and bool(np.all(slopes <= bound))
    report(10, "truncation decay", ok, "; ".join(details))
