"""Tests of the coupled matrix ODE systems, their Lax pairs, the
symmetric formulation, and the scalar Painleve IV reductions."""

import numpy as np
import pytest

from conftest import ref_rhs, ref_v_term, ref_yinv
from ncpiv import painleve
from ncpiv.cli import main, random_initial_state
from ncpiv.painleve import (
    PIVState,
    SymState,
    Trajectory,
    analytic_derivatives,
    integrate,
    integrate_scalar_piv,
    integrate_sym,
    lax_compat_residual,
    lax_matrices,
    ncpiv_residual,
    rhs,
    scalar_derived_residual,
    scalar_piv_residual,
    scalar_piv_third_derivative,
    sym_compat_residual,
    sym_residuals,
    sym_rhs,
    v_term,
)

Z2 = np.zeros((2, 2))
I2 = np.eye(2)


def fixed_point():
    return PIVState(s=0.0, y=I2, z=Z2, zp=Z2, u=Z2, variant="a", n=0)


def diagonal_state(s=0.0, n=1):
    return PIVState(
        s=s,
        y=np.diag([1.0, 2.0]),
        z=np.diag([0.3, -0.2]),
        zp=np.diag([0.1, 0.4]),
        u=np.diag([0.5, -0.7]),
        variant="a",
        n=n,
    )


# ---------------------------------------------------------------- v_term


def test_v_term_diagonal_vanishes():
    assert np.max(np.abs(v_term("a", np.diag([1.0, 3.0])))) == 0.0


def test_v_term_unipotent_example():
    y = np.array([[1.0, 1.0], [0.0, 1.0]])
    expected = 2.0 * (np.diag([1.0, 0.0]) @ y - y @ np.diag([1.0, 0.0])) @ np.linalg.inv(y)
    assert np.allclose(v_term("a", y), expected)
    assert np.allclose(expected, np.array([[0.0, 2.0], [0.0, 0.0]]) @ np.linalg.inv(y))


def test_v_term_rectangular_example():
    y = np.hstack([I2, np.zeros((2, 1))])
    assert np.allclose(v_term("b", y), np.diag([0.0, -2.0]))


def test_v_term_singular_y():
    with pytest.raises(ValueError, match="y singular"):
        v_term("a", np.array([[1.0, 1.0], [1.0, 1.0]]))


# ------------------------------------------------------------- integrate


def test_fixed_point_is_stationary():
    state = fixed_point()
    derivs = rhs(state)
    assert all(np.max(np.abs(d)) == 0.0 for d in derivs)
    traj = integrate(state, 1.0, 1e-2)
    end = traj.states[-1]
    # (u, z, z') stay at the fixed point; y follows y' = -2sy exactly
    for name in ("z", "zp", "u"):
        assert np.max(np.abs(getattr(end, name) - getattr(state, name))) < 1e-14
    assert np.max(np.abs(end.y - np.exp(-1.0) * I2)) < 1e-8


def test_diagonal_data_stays_diagonal():
    traj = integrate(diagonal_state(), 0.5, 1e-3)
    for st in traj.states[:: len(traj.states) // 10]:
        for m in (st.y, st.z, st.zp, st.u):
            assert abs(m[0, 1]) < 1e-12 and abs(m[1, 0]) < 1e-12


def test_richardson_order_four():
    state = random_initial_state("a", 1, 0.0, seed=3)
    coarse = integrate(state, 0.5, 2e-3, error_estimate=True)
    fine = integrate(state, 0.5, 1e-3, error_estimate=True)
    factor = coarse.global_error_estimate / fine.global_error_estimate
    assert 12.8 < factor < 19.2  # 16 +- 20%


def test_blowup_reports_location():
    state = PIVState(
        s=0.0, y=I2, z=50.0 * I2, zp=200.0 * I2, u=60.0 * I2, variant="a", n=0
    )
    with pytest.raises(ValueError, match="singularity encountered at s="):
        integrate(state, 5.0, 1e-2)


BLOWUP_FLOWS = {
    "integrate": lambda s_end, h: integrate(
        PIVState(s=0.0, y=I2, z=50.0 * I2, zp=200.0 * I2, u=60.0 * I2, variant="a", n=0),
        s_end,
        h,
    ),
    "integrate_sym": lambda s_end, h: integrate_sym(
        SymState(s=0.0, q=3.0 * I2, qp=Z2, r=3.0 * I2, rp=Z2, variant="a", n=1), s_end, h
    ),
    "integrate_scalar_piv": lambda s_end, h: integrate_scalar_piv(10.0, 0.0, 0.0, s_end, h, n=1.0),
}


@pytest.mark.parametrize("flow", sorted(BLOWUP_FLOWS))
def test_step_guards_on_every_flow(flow):
    # data that runs into a pole well before s = 5, so a missing step cap
    # shows as a blow-up rather than as a long run
    run = BLOWUP_FLOWS[flow]
    with pytest.raises(ValueError, match="step must be positive"):
        run(1.0, 0.0)
    with pytest.raises(ValueError, match="too many steps"):
        run(2e3, 1e-3)
    with pytest.raises(ValueError, match="singularity encountered at s="):
        run(5.0, 1e-2)


def test_state_shape_validation():
    with pytest.raises(ValueError, match="wrong shape"):
        PIVState(s=0.0, y=np.eye(3), z=Z2, zp=Z2, u=Z2, variant="a", n=0)
    with pytest.raises(ValueError, match="variant"):
        PIVState(s=0.0, y=I2, z=Z2, zp=Z2, u=Z2, variant="c", n=0)


# ----------------------------------------------- derivatives & residuals


def test_analytic_derivatives_match_finite_differences():
    # the mandated cross-check of the derivative recursion: compare
    # u'', u''' and V' against central differences along the flow
    state0 = random_initial_state("a", 1, 0.3, seed=9)
    h = 1e-4
    lo = integrate(state0, state0.s - h, h).states[-1]
    hi = integrate(state0, state0.s + h, h).states[-1]
    d0 = analytic_derivatives(state0)
    dlo, dhi = analytic_derivatives(lo), analytic_derivatives(hi)
    for name, fd_of in (("upp", "up"), ("uppp", "upp"), ("vp", "v"), ("zppp", "zpp")):
        fd = (dhi[fd_of] - dlo[fd_of]) / (2.0 * h)
        rel = np.max(np.abs(fd - d0[name])) / (1.0 + np.max(np.abs(d0[name])))
        assert rel < 1e-5


@pytest.mark.parametrize("variant", ["a", "b"])
def test_ncpiv_residual_along_trajectories(variant):
    state = random_initial_state(variant, 1, 0.0, seed=1)
    traj = integrate(state, 1.0, 1e-3)
    for st in traj.states[::250] + [traj.states[-1]]:
        assert np.max(np.abs(ncpiv_residual(st))) < 1e-6


def test_ncpiv_vblock_sign_discriminates():
    # only one sign of the V-block yields a vanishing residual off the
    # commuting subspace
    state = integrate(random_initial_state("a", 1, 0.0, seed=2), 0.5, 1e-3).states[-1]
    good = np.max(np.abs(ncpiv_residual(state, vblock_sign=-1.0)))
    bad = np.max(np.abs(ncpiv_residual(state, vblock_sign=+1.0)))
    assert good < 1e-8
    assert bad > 1e-2


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("lam", [1.0, -1.0, 2j, -2j, 0.5, 1.3])
def test_lax_compatibility(variant, lam):
    state = integrate(random_initial_state(variant, 2, 0.0, seed=1), 0.7, 1e-3).states[-1]
    assert np.max(np.abs(lax_compat_residual(state, lam))) < 1e-8


def test_lax_fixed_point_compatibility():
    assert np.max(np.abs(lax_compat_residual(fixed_point(), 0.7))) < 1e-12


def test_lax_matrix_structure():
    state = diagonal_state()
    amat, umat = lax_matrices(state)
    u = umat(1.3)
    assert np.allclose(u[:2, 2:], -state.y)  # block (1,2) of U is -y
    a = amat(1.3)
    top = np.trace(a[:2, :2] - 1.3 * np.eye(2) + state.s * np.eye(2))
    bot = np.trace(a[2:, 2:] + 1.3 * np.eye(2) - state.s * np.eye(2))
    # lambda-linear part has zero total trace: +2 from the top block,
    # -2 from the bottom
    assert abs((top + bot) - np.trace(a - np.diag([1.3, 1.3, -1.3, -1.3]) )) < 1e-9


def test_lax_pole_at_origin():
    amat, _ = lax_matrices(fixed_point())
    with pytest.raises(ValueError, match="pole of A"):
        amat(0.0)
    with pytest.raises(ValueError, match="pole of A"):
        lax_compat_residual(fixed_point(), 0.0)


# ------------------------------------------------- stacked evaluation


@pytest.mark.parametrize("variant", ["a", "b"])
def test_stacked_evaluation_matches_per_state(variant):
    # one call over the whole trajectory gives what the per-state calls
    # give: bit for bit on square y, to rounding on rectangular y
    traj = integrate(random_initial_state(variant, 2, 0.0, seed=4), 0.2, 1e-3)
    st = traj.stacked
    assert st.s.shape == (len(traj.states),) and st.u.shape == (len(traj.states), 2, 2)
    d = analytic_derivatives(st)
    stacked = {"ncpiv": ncpiv_residual(st, derivs=d)}
    for lam in (1.3, 2j):
        stacked[lam] = lax_compat_residual(st, lam, derivs=d)

    def check(got, want):
        if variant == "a":
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))

    for i, one in enumerate(traj.states):
        for key, value in analytic_derivatives(one).items():
            check(d[key][i], value)
        check(stacked["ncpiv"][i], ncpiv_residual(one))
        for lam in (1.3, 2j):
            check(stacked[lam][i], lax_compat_residual(one, lam))


def test_trajectory_states_are_the_stacked_rows():
    traj = integrate(random_initial_state("b", 1, 0.1, seed=2), 0.15, 1e-2)
    st = traj.stacked
    assert len(traj.states) == len(st.s) == 6
    for i, one in enumerate(traj.states):
        assert one.s == st.s[i] and (one.variant, one.n) == ("b", 1)
        for name in ("y", "z", "zp", "u"):
            assert np.array_equal(getattr(one, name), getattr(st, name)[i])


def test_integrate_rejects_a_stacked_state():
    st = integrate(diagonal_state(), 0.01, 1e-3).stacked
    with pytest.raises(ValueError, match="single state"):
        integrate(st, 0.1, 1e-3)


def two_by_two_cases():
    """Four sets of 2x2 matrices: random, near-singular (cond 10 ... 1e5),
    diagonal and orthogonal."""
    rng = np.random.default_rng(11)
    rotations = [np.linalg.qr(rng.normal(size=(2, 2)))[0] for _ in range(60)]
    near_singular = [
        q1 @ np.diag([1.0, 10.0 ** -k]) @ q2
        for k, q1, q2 in zip(np.tile([1, 2, 3, 4, 5], 6), rotations[::2], rotations[1::2])
    ]
    diagonal = [np.diag(v) for v in ([1.0, 1.0], [3.0, -1e-3], [-2.0, 5.0], [1e-4, 1e4], [0.5, 0.5 + 1e-9])]
    return {
        "random": rng.normal(size=(200, 2, 2)),
        "near-singular": np.array(near_singular),
        "diagonal": np.array(diagonal),
        "orthogonal": np.array(rotations),
    }


def test_closed_form_condition_number():
    for name, mats in two_by_two_cases().items():
        want = np.linalg.cond(mats)
        got = painleve._det_cond(mats)[2]
        assert np.max(np.abs(got / want - 1.0)) < 1e-10, name
        # one matrix at a time through the same formula
        assert all(painleve._det_cond(m)[2] == g for m, g in zip(mats, got)), name


def test_closed_form_inverse_matches_linalg_inv():
    for name, mats in two_by_two_cases().items():
        want = np.linalg.inv(mats)
        got = painleve._inv2(mats, painleve._COND_LIMIT)
        # both inverses are backward stable: each is within a few rounding
        # units times cond(m) of the exact one
        err = np.max(np.abs(got - want), axis=(1, 2))
        assert np.all(err <= 8.0 * np.finfo(float).eps * np.linalg.cond(mats) * np.max(np.abs(want), axis=(1, 2))), name
        # one matrix at a time through the same formula
        assert all(np.array_equal(painleve._inv2(m, painleve._COND_LIMIT), g) for m, g in zip(mats, got)), name


def random_piv_states(variant, rng, count):
    """count random states of the variant, every entry of y drawn (off the
    invariant manifold for variant b too), as one stacked state."""
    cols = 2 if variant == "a" else 3
    y = np.eye(2, cols) + 0.4 * rng.normal(size=(count, 2, cols))
    z, zp, u = (0.5 * rng.normal(size=(count, 2, 2)) for _ in range(3))
    return PIVState(s=rng.uniform(-1.0, 1.0, size=count), y=y, z=z, zp=zp, u=u, variant=variant, n=2)


@pytest.mark.parametrize("variant", ["a", "b"])
def test_rhs_matches_the_reference_formula(variant):
    # the masked commutators, folded scalars and closed-form inverse give
    # what the definition with matrix commutators and np.linalg.inv gives
    stacked = random_piv_states(variant, np.random.default_rng(5), 40)
    singles = Trajectory(stacked).states

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    for st in singles + [stacked]:
        assert close(painleve._yinv(variant, st.y), ref_yinv(variant, st.y))
        assert close(v_term(variant, st.y), ref_v_term(variant, st.y))
        for got, want in zip(rhs(st), ref_rhs(st)):
            assert got.shape == want.shape and close(got, want)


# where each criterion-8 trajectory (variants a and b, n = 1, seeds 0-9,
# to s = 1 at step 1e-3) stops, as recorded with the reference
# right-hand side of conftest (matrix commutators, np.linalg.inv)
POLE_STOPS = {
    ("a", 0): ("y singular", 0.644),
    ("a", 3): ("singularity encountered", 0.625),
    ("a", 4): ("singularity encountered", 0.773),
    ("a", 5): ("singularity encountered", 0.673),
    ("a", 6): ("singularity encountered", 0.843),
    ("a", 7): ("y singular", 0.89),
    ("a", 8): ("y singular", 0.695),
    ("a", 9): ("singularity encountered", 0.795),
    ("b", 0): ("singularity encountered", 0.642),
    ("b", 2): ("singularity encountered", 0.781),
    ("b", 3): ("singularity encountered", 0.569),
    ("b", 5): ("y singular", 0.565),
    ("b", 6): ("singularity encountered", 0.74),
    ("b", 8): ("y singular", 0.694),
    ("b", 9): ("singularity encountered", 0.666),
}


@pytest.mark.parametrize("variant", ["a", "b"])
def test_pole_stops_do_not_move(variant):
    h = 1e-3
    for seed in range(10):
        state = random_initial_state(variant, 1, 0.0, seed=seed)
        if (variant, seed) not in POLE_STOPS:
            integrate(state, 1.0, h)
            continue
        flag, s_stop = POLE_STOPS[variant, seed]
        with pytest.raises(ValueError, match=f"^{flag} at s=") as exc:
            integrate(state, 1.0, h)
        assert abs(float(str(exc.value).rsplit("s=", 1)[1]) - s_stop) <= 1.001 * h, (seed, str(exc.value))


@pytest.mark.parametrize(
    "variant, y",
    [
        ("a", [[1.0, 1.0], [1.0, 1.0]]),
        ("a", [[1.0, 1.0], [1.0, 1.0 + 1e-12]]),
        ("a", [[np.nan, 0.0], [0.0, 1.0]]),
        ("a", [[np.inf, 0.0], [0.0, 1.0]]),
        ("a", [[0.0, 0.0], [0.0, 0.0]]),
        ("b", [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        ("b", [[1.0, 0.0, 0.0], [1.0, 1e-7, 0.0]]),
        ("b", [[1.0, 0.0, np.nan], [0.0, 1.0, 0.0]]),
        ("b", [[np.inf, 1.0, 0.0], [1.0, 1.0, 0.0]]),
    ],
)
def test_yinv_rejects_singular_ill_conditioned_and_non_finite_y(variant, y):
    y = np.array(y)
    with pytest.raises(ValueError, match="^y singular$"):
        painleve._yinv(variant, y)
    # one bad matrix in a stack rejects the stack
    good = np.eye(2) if variant == "a" else np.eye(2, 3)
    with pytest.raises(ValueError, match="^y singular$"):
        painleve._yinv(variant, np.stack([good, y, good]))


def test_yinv_inverts_a_stack():
    y = np.stack([np.eye(2, 3), [[1.0, 2.0, 0.0], [0.5, -1.0, 0.0]]])
    assert np.allclose(y @ painleve._yinv("b", y), np.eye(2))
    sq = y[:, :, :2]
    assert np.allclose(painleve._yinv("a", sq) @ sq, np.eye(2))


@pytest.mark.parametrize("variant", ["a", "b"])
def test_painleve_command_derives_once_per_op(variant, monkeypatch, tmp_path):
    calls = []
    real = painleve.analytic_derivatives

    def counted(state):
        calls.append(np.shape(state.s))
        return real(state)

    monkeypatch.setattr(painleve, "analytic_derivatives", counted)
    out = tmp_path / "traj.csv"
    argv = ["painleve", "--family", variant, "--n", "1", "--seed", "7", "--s-min", "0", "--s-max", "0.2"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 201 and not rows[-1].endswith("singular")
    assert calls == [(201,)]


# ----------------------------------------------------------- symmetric


def sym_random(variant, seed):
    rng = np.random.default_rng(seed)
    cols = 2 if variant == "a" else 3
    return SymState(
        s=0.0,
        q=0.4 * rng.normal(size=(2, cols)),
        qp=0.4 * rng.normal(size=(2, cols)),
        r=0.4 * rng.normal(size=(cols, 2)),
        rp=0.4 * rng.normal(size=(cols, 2)),
        variant=variant,
        n=1,
    )


def test_sym_zero_data_fixed_point():
    state = SymState(s=0.0, q=Z2, qp=Z2, r=Z2, rp=Z2, variant="a", n=1)
    qd, qdd, rd, rdd = sym_rhs(state)
    assert np.max(np.abs(qdd)) == 0.0 and np.max(np.abs(rdd)) == 0.0
    rep = sym_residuals(state)
    assert max(rep["compat"].values()) < 1e-14


@pytest.mark.parametrize("variant", ["a", "b"])
def test_sym_compatibility_along_trajectories(variant):
    traj = integrate_sym(sym_random(variant, seed=6), 0.8, 1e-3)
    for lam in (1.0, -2j, 0.5):
        # every state in one stacked call, equal to the per-state calls
        stacked = sym_compat_residual(traj.stacked, lam)
        assert np.max(np.abs(stacked)) < 1e-12
        for i in (0, len(traj.states) // 2, len(traj.states) - 1):
            assert np.array_equal(stacked[i], sym_compat_residual(traj.states[i], lam))


def test_sym_commuting_reduction_compatibility():
    state = SymState(
        s=0.2,
        q=np.diag([0.5, -0.3]),
        qp=np.diag([0.1, 0.2]),
        r=np.diag([0.4, 0.6]),
        rp=np.diag([-0.2, 0.3]),
        variant="a",
        n=1,
    )
    for lam in (1.0, -1.0, 2j):
        assert np.max(np.abs(sym_compat_residual(state, lam))) < 1e-12


def test_sym_rho_reports_emitted():
    rep = sym_residuals(sym_random("a", seed=8))
    assert set(rep) == {"compat", "rho_R", "rho_L"}
    assert set(rep["rho_R"]) == {1.0, 2.0}
    assert set(rep["rho_L"]) == {1.0, 2.0}
    assert all(np.isfinite(v) for v in rep["rho_R"].values())


# ------------------------------------------------------------- scalar


def test_scalar_piv_derived_residual_along_solution():
    ss, us, ups = integrate_scalar_piv(1.0, 0.0, 0.0, 1.0, 1e-3, n=1.0)
    for i in range(0, len(ss), 200):
        s, u, up = float(ss[i]), float(us[i]), float(ups[i])
        uppp = scalar_piv_third_derivative(u, up, s, 1.0)
        upp = up * up / (2 * u) + 1.5 * u**3 - 4 * s * u * u + 2 * (s * s + 2) * u - 2 / u
        assert abs(scalar_piv_residual(u, up, upp, s, 1.0)) < 1e-10
        assert abs(scalar_derived_residual(u, up, upp, uppp, s, 1.0)) < 1e-7


def test_scalar_piv_constant_solution():
    # n = 0: u'' = 0 requires 1.5 u^2 - 4su + 2(s^2+1) = 0 at fixed s;
    # checked at s = 0 with the imaginary-free branch absent, use the
    # n = 0, s-dependent root at a sample point instead
    s = 2.0
    roots = np.roots([1.5, -4.0 * s, 2.0 * (s * s + 1.0), 0.0])
    real_roots = [r.real for r in roots if abs(r.imag) < 1e-12 and abs(r) > 1e-9]
    assert real_roots
    u = real_roots[0]
    assert abs(scalar_piv_residual(u, 0.0, 0.0, s, 0.0)) < 1e-10


def test_scalar_piv_singular_term():
    with pytest.raises(ValueError, match="PIV singular term"):
        scalar_piv_residual(0.0, 1.0, 1.0, 0.0, 1.0)


def test_diagonal_trajectory_reduces_to_scalar_derived_equation():
    # entrywise agreement of the matrix residual with the scalar
    # third-order equation under the 12s u u' cross-term reading
    traj = integrate(diagonal_state(n=1), 0.6, 1e-3)
    for st in (traj.states[0], traj.states[len(traj.states) // 2], traj.states[-1]):
        d = analytic_derivatives(st)
        mat = ncpiv_residual(st)
        for i in (0, 1):
            scal = scalar_derived_residual(
                st.u[i, i],
                d["up"][i, i],
                d["upp"][i, i],
                d["uppp"][i, i],
                st.s,
                st.n,
                reading="12s uu'",
            )
            assert abs(mat[i, i] - scal) < 1e-8
        assert abs(mat[0, 1]) < 1e-10 and abs(mat[1, 0]) < 1e-10
