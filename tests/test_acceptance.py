"""Acceptance gate: one test per top-level acceptance criterion.

Each test registers a single PASS/FAIL line (printed in the terminal
summary) and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erf

from conftest import ACCEPTANCE_LINES
from ncpiv import airy, fredholm, kernels, painleve
from ncpiv.cli import main as cli_main
from ncpiv.cli import random_initial_state
from ncpiv.families import (
    WeightFamily,
    build_family,
    family_constants,
    ode_residual,
    phi_all,
)
from ncpiv.quadrature import compensated_weights, gauss_hermite


def record(idx, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES[idx] = f"criterion {idx:2d} [{name}]: {verdict}{suffix}"
    assert passed, f"criterion {idx} ({name}) failed: {detail}"


def build(kind, nu, nmax):
    return build_family(WeightFamily(kind=kind, nu=nu), nmax=nmax)


def test_criterion_01_orthonormality():
    start = time.time()
    quad = gauss_hermite(200)
    w = compensated_weights(quad)
    worst = 0.0
    for kind in ("a", "b"):
        for nu in (0.0, 0.5, 1.0, 2.0):
            family = build(kind, nu, 10)
            p = phi_all(family, quad.nodes.real, 11)
            gram = np.einsum("i,jiab,kicb->jkac", w, p, p, optimize=True)
            target = np.einsum("jk,ac->jkac", np.eye(11), np.eye(2))
            worst = max(worst, float(np.max(np.abs(gram - target))))
    elapsed = time.time() - start
    record(
        1,
        "orthonormality",
        worst <= 1e-9 and elapsed < 5.0,
        f"max residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_norms():
    worst = 0.0
    for kind in ("a", "b"):
        for nu in (0.0, 0.5, 1.0, 2.0):
            family = build(kind, nu, 10)
            for n in range(11):
                closed = family_constants(family.weight, n)["norm"]
                rel = float(np.max(np.abs(family.norms[n] - closed)) / np.max(np.abs(closed)))
                worst = max(worst, rel)
    record(2, "closed-form norms", worst <= 1e-8, f"max rel error {worst:.2e}")


def test_criterion_03_ode_residual(rng):
    worst = 0.0
    xs = rng.uniform(-2.5, 2.5, size=20)
    for kind in ("a", "b"):
        family = build(kind, 1.0, 8)
        for n in range(9):
            for x in xs:
                worst = max(worst, float(np.max(np.abs(ode_residual(family, n, float(x))))))
    record(3, "ODE eigenfunction residual", worst <= 1e-8, f"max residual {worst:.2e}")


def test_criterion_04_integral_representations():
    worst = 0.0
    for kind, nu in (("a", 1.0), ("a", 0.5), ("b", 0.7), ("b", 1.0)):
        family = build(kind, nu, 6)
        for n in range(7):
            for x in (-1.0, 0.0, 0.5, 1.5):
                direct = kernels.polynomial_times_tfactor(family, n, x)
                worst = max(
                    worst,
                    float(np.max(np.abs(kernels.intrep_loop(family, n, x) - direct))),
                    float(np.max(np.abs(kernels.intrep_line(family, n, x) - direct))),
                )
    record(4, "integral representations", worst <= 1e-8, f"max abs error {worst:.2e}")


def test_criterion_05_kernel_equivalence():
    start = time.time()
    grid = [(x, y) for x in np.linspace(-2.0, 2.0, 5) for y in np.linspace(-2.0, 2.0, 5)]
    xs, ys = np.array(grid).T
    worst = 0.0
    for kind in ("a", "b"):
        for nu in (0.0, 0.5, 1.0):
            family = build(kind, nu, 6)
            for n in range(1, 7):
                kints = kernels.cd_double_integral(family.weight, n, xs, ys)
                for kint, (x, y) in zip(kints, grid):
                    ksum = kernels.cd_sum(family, n, x, y)
                    rel = float(np.max(np.abs(kint - ksum)) / (1.0 + np.max(np.abs(ksum))))
                    worst = max(worst, rel)
    elapsed = time.time() - start
    record(
        5,
        "kernel representation equivalence",
        worst <= 1e-6,
        f"max rel error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_determinant_route_equality():
    start = time.time()
    worst = 0.0
    for kind in ("a", "b"):
        family = build(kind, 1.0, 6)
        for n in (1, 2, 3, 4):
            for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
                g = fredholm.gram_det(family, n, s)
                c = fredholm.contour_det(family, n, s)
                worst = max(worst, abs(g - c))
    elapsed = time.time() - start
    record(
        6,
        "determinant route equality",
        worst <= 1e-5 and elapsed < 120.0,
        f"max |gram-contour| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_scalar_sigma_piv():
    family = build_family(WeightFamily(kind="scalar"), nmax=6)
    worst = 0.0
    for n in range(1, 6):
        for s in np.linspace(-3.0, 3.0, 61):
            s = float(s)
            rpp = fredholm.second_log_deriv(family, n, s)
            resid = abs(fredholm.sigma_piv_residual(family, n, s))
            worst = max(worst, resid / (1e-6 * (1.0 + rpp * rpp)))
    f0 = fredholm.gram_det(family, 1, 0.0)
    erf_ok = abs(f0 - 0.5 * (1.0 + erf(0.0))) <= 1e-10
    record(
        7,
        "scalar sigma-form",
        worst <= 1.0 and erf_ok,
        f"worst residual/tolerance ratio {worst:.2e}, F(0) err {abs(f0 - 0.5):.1e}",
    )


def integrate_as_far_as_possible(state, s_end, h):
    """Trajectory to s_end, shrinking the horizon past movable poles."""
    while True:
        try:
            return painleve.integrate(state, s_end, h)
        except ValueError:
            s_end = state.s + 0.5 * (s_end - state.s)
            if s_end - state.s < 8 * h:
                raise


def test_criterion_08_coupled_system_implications():
    lams = (1.0, -1.0, 2j, -2j, 0.5)
    worst_lax = worst_nc = 0.0
    for variant in ("a", "b"):
        for seed in range(10):
            state = random_initial_state(variant, 1, 0.0, seed=seed)
            # every state of the trajectory, in one stacked call per residual
            st = integrate_as_far_as_possible(state, 1.0, 1e-3).stacked
            d = painleve.analytic_derivatives(st)
            worst_nc = max(worst_nc, float(np.max(np.abs(painleve.ncpiv_residual(st, derivs=d)))))
            for lam in lams:
                worst_lax = max(
                    worst_lax,
                    float(np.max(np.abs(painleve.lax_compat_residual(st, lam, derivs=d)))),
                )
    # diagonal data: matrix residual equals the scalar third-order
    # residual entrywise, with the 12s u u' cross-term reading
    diag = painleve.PIVState(
        s=0.0,
        y=np.diag([1.0, 2.0]),
        z=np.diag([0.2, -0.1]),
        zp=np.diag([0.1, 0.2]),
        u=np.diag([0.4, -0.5]),
        variant="a",
        n=1,
    )
    traj = painleve.integrate(diag, 0.5, 1e-3)
    worst_diag = 0.0
    for st in (traj.states[0], traj.states[len(traj.states) // 2], traj.states[-1]):
        d = painleve.analytic_derivatives(st)
        mat = painleve.ncpiv_residual(st)
        for i in (0, 1):
            scal = painleve.scalar_derived_residual(
                st.u[i, i], d["up"][i, i], d["upp"][i, i], d["uppp"][i, i], st.s, st.n
            )
            worst_diag = max(worst_diag, abs(mat[i, i] - scal))
    record(
        8,
        "coupled system implications",
        worst_lax <= 1e-8 and worst_nc <= 1e-6 and worst_diag <= 1e-8,
        f"lax {worst_lax:.2e}, matrix-eq {worst_nc:.2e}, diag-vs-scalar {worst_diag:.2e}",
    )


def test_criterion_09_scalar_piv_consistency():
    ss, us, ups = painleve.integrate_scalar_piv(1.0, 0.0, 0.0, 1.0, 1e-3, n=1.0)
    worst = 0.0
    for i in range(0, len(ss), 50):
        s, u, up = float(ss[i]), float(us[i]), float(ups[i])
        upp = (
            up * up / (2.0 * u)
            + 1.5 * u**3
            - 4.0 * s * u * u
            + 2.0 * (s * s + 2.0) * u
            - 2.0 / u
        )
        uppp = painleve.scalar_piv_third_derivative(u, up, s, 1.0)
        worst = max(worst, abs(painleve.scalar_derived_residual(u, up, upp, uppp, s, 1.0)))
    record(9, "scalar PIV consistency", worst <= 1e-7, f"max residual {worst:.2e}")


def test_criterion_10_airy_limit():
    start = time.time()
    grid = [(x, y) for x in np.linspace(-1.5, 1.5, 4) for y in np.linspace(-1.5, 1.5, 4)]
    degrees = (8, 16, 32, 64)
    ok = True
    details = []
    for kind, nu in (("scalar", 0.0), ("a", 1.0), ("b", 1.0)):
        family = build_family(WeightFamily(kind=kind, nu=nu), nmax=64)
        sups, offs = [], []
        for n in degrees:
            r = airy.scaling_limit_error(family, n, grid)
            sups.append(r["sup_error"])
            offs.append(r["offdiag_max"])
        strict = all(b < a for a, b in zip(sups, sups[1:]))
        off_ok = kind == "scalar" or offs[-1] < offs[0]
        ok = ok and strict and off_ok
        details.append(f"{kind}: sup {sups[0]:.1e}->{sups[-1]:.1e}")
    matrix0 = build_family(WeightFamily(kind="a", nu=0.0), nmax=16)
    scalar = build_family(WeightFamily(kind="scalar"), nmax=16)
    d0 = abs(
        airy.scaling_limit_error(matrix0, 16, grid)["sup_error"]
        - airy.scaling_limit_error(scalar, 16, grid)["sup_error"]
    )
    elapsed = time.time() - start
    record(
        10,
        "Airy scaling limit",
        ok and d0 <= 1e-12 and elapsed < 120.0,
        "; ".join(details) + f"; nu=0 vs scalar {d0:.1e}; {elapsed:.1f}s",
    )


def test_criterion_11_symmetric_formulation():
    state = painleve.SymState(
        s=0.2,
        q=np.diag([0.5, -0.3]),
        qp=np.diag([0.1, 0.2]),
        r=np.diag([0.4, 0.6]),
        rp=np.diag([-0.2, 0.3]),
        variant="a",
        n=1,
    )
    traj = painleve.integrate_sym(state, 0.8, 1e-3)
    worst = 0.0
    report = None
    for st in (traj.states[0], traj.states[len(traj.states) // 2], traj.states[-1]):
        report = painleve.sym_residuals(st)
        worst = max(worst, max(report["compat"].values()))
    # informational: both candidate normalizations of the rho relation
    rho_note = (
        f"rho_R disc c=1: {report['rho_R'][1.0]:.2e}, c=2: {report['rho_R'][2.0]:.2e}; "
        f"rho_L disc c=1: {report['rho_L'][1.0]:.2e}, c=2: {report['rho_L'][2.0]:.2e}"
    )
    record(
        11,
        "symmetric formulation",
        worst <= 1e-8,
        f"compat {worst:.2e}; {rho_note}",
    )


def test_criterion_12_cli_determinism(tmp_path):
    args = [
        "fredholm-scan",
        "--family",
        "scalar",
        "--n",
        "1",
        "--s-min",
        "-1",
        "--s-max",
        "1",
        "--s-steps",
        "5",
    ]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    same_scan = out1.read_bytes() == out2.read_bytes()

    pargs = [
        "painleve",
        "--family",
        "b",
        "--n",
        "1",
        "--seed",
        "7",
        "--s-min",
        "0",
        "--s-max",
        "0.3",
        "--step",
        "0.005",
    ]
    out3, out4 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert cli_main(pargs + ["--out", str(out3)]) == 0
    assert cli_main(pargs + ["--out", str(out4)]) == 0
    same_traj = out3.read_bytes() == out4.read_bytes()
    record(12, "CLI determinism", same_scan and same_traj, "byte-identical outputs")
