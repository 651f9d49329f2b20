"""Tests of the gap determinant routes, log-derivatives, and the scalar
sigma-form residual."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erf

from conftest import upper_tail_gram
from ncpiv import fredholm
from ncpiv.families import WeightFamily, build_family
from ncpiv.fredholm import (
    _scalar_gram,
    _scalar_log_derivs,
    build_gram,
    build_grams,
    contour_det,
    contour_dets,
    gram_det,
    gram_dets,
    gram_stacks,
    log_deriv,
    log_derivs,
    resolvable,
    second_log_deriv,
    sigma_piv_residual,
)


def erf_gap(s):
    """Closed-form n=1 scalar gap probability (1 + erf(s)) / 2."""
    return 0.5 * (1.0 + erf(s))


def test_scalar_n1_closed_form(fam_scalar):
    assert gram_det(fam_scalar, 1, 0.0) == pytest.approx(0.5, abs=1e-12)
    for s in (-1.0, 0.3, 1.7):
        assert gram_det(fam_scalar, 1, s) == pytest.approx(erf_gap(s), abs=1e-12)


def test_gap_tends_to_one(fam_a, fam_b, fam_scalar):
    for family in (fam_a, fam_b, fam_scalar):
        assert gram_det(family, 3, 8.0) == pytest.approx(1.0, abs=1e-12)


def test_gap_monotone_in_s(fam_a):
    grid = np.arange(-1.5, 1.5, 0.05)
    vals = [gram_det(fam_a, 3, float(s)) for s in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)


def test_gram_eigenvalues_in_unit_interval(fam_a, fam_b):
    for family in (fam_a, fam_b):
        for s in (-1.0, 0.0, 1.5):
            g = upper_tail_gram(family, 4, s)
            evals = np.linalg.eigvalsh(0.5 * (g + g.T))
            assert np.min(evals) > -1e-9
            assert np.max(evals) < 1.0 + 1e-9


def test_gram_derivative_is_minus_b(fam_a):
    h = 1e-5
    for s in (-0.5, 0.7):
        sys0 = build_gram(fam_a, 3, s)
        hi = upper_tail_gram(fam_a, 3, s + h)
        lo = upper_tail_gram(fam_a, 3, s - h)
        fd = (hi - lo) / (2.0 * h)
        assert np.max(np.abs(fd + sys0.B)) < 1e-6


@pytest.mark.parametrize("n", [2, 5])
def test_build_gram_runs_one_recurrence_at_s(n, fam_a, monkeypatch):
    # one pass over the lower-tail nodes, one jet (Phi, Phi', Phi'') at s
    from ncpiv import families

    calls = []
    orig = families._monic_values

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(families, "_monic_values", counted)
    build_gram(fam_a, n, 0.4)
    assert len(calls) == 2


SCAN_GRID = np.linspace(-3.0, 3.0, 25)


def test_grid_build_at_one_point_is_build_gram(fam_a, fam_b):
    # build_gram is the one-point grid, and the first point of any grid
    # sees the same panels, so the same bits
    for family in (fam_a, fam_b):
        for s in (-2.5, 0.4):
            one = build_gram(family, 3, s)
            (alone,) = build_grams(family, 3, [s])
            first = next(build_grams(family, 3, np.linspace(s, s + 2.0, 9)))
            for system in (alone, first):
                assert system.s == one.s
                assert np.array_equal(system.C, one.C) and np.array_equal(system.psi, one.psi)


def test_grid_build_shares_a_factor_across_repeated_points(fam_a):
    systems = list(build_grams(fam_a, 2, [-1.0, 0.5, 0.5, 1.0]))
    assert systems[1].C is systems[2].C
    assert not np.array_equal(systems[2].C, systems[3].C)
    for bad in ([], [0.5, -1.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match="grid must be"):
            next(build_grams(fam_a, 2, bad))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_det_gram_matches_scalar_closed_form(fam_scalar, n):
    # measured worst: 4.5e-12 relative (n = 5), against 3.1e-12 per row
    with mp.workdps(50):
        for s, system in zip(SCAN_GRID, build_grams(fam_scalar, n, SCAN_GRID)):
            exact = mp.log(mp.det(_scalar_gram(n, mp.mpf(float(s)))))
            assert abs(math.expm1(log_deriv(fam_scalar, n, s, order=0, system=system) - float(exact))) <= 1e-11


# worst relative error of R and R' over SCAN_GRID with the per-row Gram
# system and two-sided whitening of B, B' and B'' that the grid route
# replaced; the grid route measured 8.5e-15, 5.4e-14, 1.4e-12, 3.2e-12 (R)
# and 4.1e-13, 3.3e-12, 1.4e-10, 5.8e-10 (R')
PER_ROW_ERRORS = {2: (9.5e-15, 8.2e-13), 3: (8.6e-12, 8.5e-10), 4: (3.9e-10, 6.6e-8), 5: (9.8e-8, 2.1e-6)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_log_derivs_match_scalar_closed_form(fam_scalar, n):
    # the whitening never forms C^{-T} B C^{-1}, so R'' too stays far
    # below the 3e-3 (n = 5, s = -3) of the route it replaced
    worst = np.zeros(3)
    with mp.workdps(50):
        for s, system in zip(SCAN_GRID, build_grams(fam_scalar, n, SCAN_GRID)):
            exact = [float(v) for v in _scalar_log_derivs(n, mp.mpf(float(s)))]
            worst = np.maximum(worst, [abs(g - e) / abs(e) for g, e in zip(log_derivs(system), exact)])
    r_bound, rp_bound = PER_ROW_ERRORS[n]
    assert worst[0] <= 2.0 * r_bound
    assert worst[1] <= 2.0 * rp_bound
    assert worst[2] <= 1e-6


def test_grid_log_det_matches_per_row_route(fam_a, fam_b):
    # the grid's panel set differs from each row's own lower-tail rule;
    # measured worst: 1.3e-11 (kind b, n = 5, s = -2.75)
    for family in (fam_a, fam_b):
        for n in (2, 3, 4, 5):
            for s, system in zip(SCAN_GRID, build_grams(family, n, SCAN_GRID)):
                grid_value = log_deriv(family, n, s, order=0, system=system)
                assert abs(grid_value - log_deriv(family, n, s, order=0)) <= 1e-10


def test_log_deriv_reads_the_log_derivs_of_its_system(fam_b):
    system = build_gram(fam_b, 4, -0.7)
    assert [log_deriv(fam_b, 4, -0.7, order=k, system=system) for k in (1, 2, 3)] == list(log_derivs(system))


def _record_phi_nodes(monkeypatch) -> list:
    sizes = []
    orig = fredholm.phi_all

    def recording(family, x, upto):
        sizes.append(np.size(x))
        return orig(family, x, upto)

    monkeypatch.setattr(fredholm, "phi_all", recording)
    return sizes


def test_grid_build_evaluates_phi_in_bounded_chunks(fam_a, monkeypatch):
    sizes = _record_phi_nodes(monkeypatch)
    # the longest grid the command line takes: its first rows need only
    # the first chunk of panels
    systems = build_grams(fam_a, 2, np.linspace(-3.0, 3.0, 100_000))
    first = [next(systems) for _ in range(10)]
    assert len(sizes) == 1 and sizes[0] <= fredholm._CHUNK_NODES
    assert [system.s for system in first] == np.linspace(-3.0, 3.0, 100_000)[:10].tolist()
    # a whole 3000-point grid: 12 panels of 32 nodes below s = -3 and one
    # in each of the 2999 intervals, in 48 chunks
    sizes.clear()
    assert len(list(build_grams(fam_a, 2, np.linspace(-3.0, 3.0, 3000)))) == 3000
    assert len(sizes) == 48 and max(sizes) == fredholm._CHUNK_NODES
    assert sum(sizes) == 32 * (12 + 2999)


def test_long_scan_caps_the_nodes_of_each_phi_evaluation(tmp_path, monkeypatch):
    from ncpiv.cli import main

    sizes = _record_phi_nodes(monkeypatch)
    out = tmp_path / "scan.csv"
    argv = ["fredholm-scan", "--n", "1", "--s-min", "-1", "--s-max", "1", "--s-steps", "2000", "--out", str(out)]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 2001
    assert len(sizes) > 1 and max(sizes) <= fredholm._CHUNK_NODES


def test_log_deriv_scalar_erf_closed_form(fam_scalar):
    for s in (-1.0, 0.0, 1.2):
        r = log_deriv(fam_scalar, 1, s, order=1)
        expected = math.exp(-s * s) / math.sqrt(math.pi) / erf_gap(s)
        assert r == pytest.approx(expected, abs=1e-10)


def test_log_deriv_nonnegative(fam_b):
    for s in np.linspace(-1.0, 2.0, 7):
        assert log_deriv(fam_b, 3, float(s), order=1) >= -1e-12


def test_analytic_rp_matches_finite_differences(fam_a, rng):
    h = 1e-5
    for s in rng.uniform(-1.5, 2.0, size=20):
        s = float(s)
        analytic = log_deriv(fam_a, 3, s, order=2)
        fd = (
            log_deriv(fam_a, 3, s + h, order=1) - log_deriv(fam_a, 3, s - h, order=1)
        ) / (2.0 * h)
        assert abs(analytic - fd) < 1e-6 * (1.0 + abs(analytic))


def test_analytic_rpp_scalar_matches_mpmath(fam_scalar):
    # oracle: a 1e-12 central difference of the closed-form R' at 40
    # digits; the largest error measured on this grid is 2.2e-9 (n=3,
    # s=-2), where the double-precision central difference is 2.1e-6 off
    with mp.workdps(40):
        h = mp.mpf("1e-12")
        for n in (1, 2, 3):
            for s in np.linspace(-2.0, 3.0, 11):
                s = float(s)
                sm = mp.mpf(s)
                hi, lo = _scalar_log_derivs(n, sm + h)[1], _scalar_log_derivs(n, sm - h)[1]
                oracle = float((hi - lo) / (2 * h))
                analytic = log_deriv(fam_scalar, n, s, order=3)
                assert abs(analytic - oracle) <= 1e-7 * abs(oracle)


def test_analytic_rpp_matches_finite_differences(fam_a, fam_b):
    # measured worst: 5.4e-8 (kind a, n=3, s=-1), the error of the
    # central difference itself
    for family in (fam_a, fam_b):
        for n in (2, 3):
            for s in np.linspace(-1.0, 2.0, 13):
                s = float(s)
                system = build_gram(family, n, s)
                analytic = log_deriv(family, n, s, order=3, system=system)
                fd = second_log_deriv(family, n, s)
                assert abs(analytic - fd) < 1e-6 * (1.0 + abs(analytic))


def test_log_deriv_rejects_bad_order(fam_scalar):
    with pytest.raises(ValueError, match="order must be"):
        log_deriv(fam_scalar, 1, 0.0, order=4)


def test_determinant_underflow_reported(fam_scalar):
    with pytest.raises(ValueError, match="determinant vanishes"):
        log_deriv(fam_scalar, 2, -20.0, order=1)


def test_sigma_piv_residual_sample_points(fam_scalar):
    for n, s in ((1, 0.0), (4, 1.5)):
        rpp = second_log_deriv(fam_scalar, n, s)
        assert abs(sigma_piv_residual(fam_scalar, n, s)) < 1e-6 * (1.0 + rpp * rpp)


@pytest.mark.parametrize("n,s", [(1, 0.0), (2, 1.3), (3, -1.5), (4, 2.5), (5, -3.0)])
def test_sigma_piv_residual_vanishes_to_extended_precision(fam_scalar, n, s):
    # with R'' in closed form only the 40-digit rounding remains:
    # measured at most 3.3e-29 (1 + R''^2) over n <= 5, s in [-3, 3]
    rpp = log_deriv(fam_scalar, n, s, order=3)
    assert abs(sigma_piv_residual(fam_scalar, n, s)) <= 1e-20 * (1.0 + rpp * rpp)


def test_scalar_closed_form_rpp_matches_central_difference():
    # measured worst: 1.3e-14 relative, the error of the difference
    with mp.workdps(40):
        h = mp.mpf("1e-12")
        for n in (1, 3, 5):
            for s in (-3.0, -1.0, 0.5, 2.0):
                sm = mp.mpf(s)
                fd = (_scalar_log_derivs(n, sm + h)[1] - _scalar_log_derivs(n, sm - h)[1]) / (2 * h)
                rpp = _scalar_log_derivs(n, sm)[2]
                assert abs(rpp - fd) <= mp.mpf("1e-12") * (1 + abs(rpp))


def test_sigma_piv_requires_scalar(fam_a):
    with pytest.raises(ValueError, match="scalar family required"):
        sigma_piv_residual(fam_a, 1, 0.0)


def test_contour_route_equality_spot_checks(fam_a, fam_scalar):
    for family, n, s in ((fam_a, 2, 0.0), (fam_scalar, 3, 0.7), (fam_a, 4, -1.0)):
        g = gram_det(family, n, s)
        c = contour_det(family, n, s)
        assert abs(g - c) <= 1e-5 * (1.0 + abs(g))


def test_contour_route_log_det_agreement(fam_a, fam_b, fam_scalar):
    # relative (log-det) agreement, s in [-1, 3]: scalar against a
    # 50-digit closed form, kinds a and b against the Gram route;
    # measured worst: 1.2e-10 (scalar), 9.7e-10 (a, b)
    grid = np.linspace(-1.0, 3.0, 9)
    with mp.workdps(50):
        for n in (1, 2, 3):
            for s in grid:
                s = float(s)
                ref = float(mp.log(mp.det(_scalar_gram(n, mp.mpf(s)))))
                assert abs(math.log(contour_det(fam_scalar, n, s)) - ref) <= 1e-8
    for family in (fam_a, fam_b):
        for n in (1, 2, 3):
            for s in grid:
                s = float(s)
                ref = log_deriv(family, n, s, order=0)
                assert abs(math.log(contour_det(family, n, s)) - ref) <= 1e-8


def test_scalar_lower_tail_takes_the_left_line(fam_scalar):
    # for s < 0 the scalar route drops the identity exactly, det(I - X) =
    # det(-Chat (R L)~), so a tiny gap probability is resolved to full
    # relative accuracy where det(I - X) cancelled to 1e-6 (n = 3, s = -3)
    with mp.workdps(50):
        for n in (2, 3):
            for s in (-4.0, -3.0, -2.0):
                ref = float(mp.log(mp.det(_scalar_gram(n, mp.mpf(s)))))
                assert abs(math.log(contour_det(fam_scalar, n, s)) - ref) <= 1e-9


def _one_point(call):
    """The value of a one-point call, or its error message."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def _flag(value) -> str:
    """The kind of a contour-route outcome: ok, or its flag without the number."""
    if not isinstance(value, str):
        return "ok"
    return "est inf" if value.endswith("(est inf)") else value.split(" (")[0]


def test_stacked_path_equals_one_point_calls(monkeypatch):
    # the Gram determinant, R, R', R'' and the contour determinant of each
    # point of a stack equal its one-point calls bit for bit.  The grids
    # straddle s = 0, where the scalar family switches to the left line,
    # and their stacks mix sound rows with every flag: a vanishing Gram
    # determinant, a contour determinant beyond the float range, a
    # singular reduced matrix (s = -40) and a large error estimate
    inv = np.linalg.inv
    singular = []

    def recording_inv(mat):
        try:
            return inv(mat)
        except np.linalg.LinAlgError:
            singular.append(len(mat))
            raise

    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    mixed = set()  # the flags that shared a stack with a sound row
    for weight in (WeightFamily(kind="a", nu=1.0), WeightFamily(kind="b", nu=0.7), WeightFamily(kind="scalar")):
        family = build_family(weight, 123)
        grids = {n: np.linspace(-3.0, 3.0, 13) for n in range(1, 6)}
        grids[3] = np.array([-40.0, -3.0, -0.5, 0.5, 2.0])
        grids[122] = np.array([-3.0, 3.0, 16.0, 20.0])
        for n, grid in grids.items():
            points = build_grams(family, n, grid)
            for stack in gram_stacks(family, n, grid):
                dets = gram_dets(stack)
                sound = resolvable(stack)
                derivs = np.stack(log_derivs(stack[sound]), axis=-1).tolist()
                if sound.all():
                    # the stack itself, laid out as gram_stacks made it
                    assert np.stack(log_derivs(stack), axis=-1).tolist() == derivs
                contour = [e or d for d, e in zip(*contour_dets(family, n, stack.s))]
                row = iter(derivs)
                for i, s in enumerate(stack.s.tolist()):
                    system = next(points)
                    assert dets[i] == gram_det(family, n, s, system=system)
                    got = list(next(row)) if sound[i] else "determinant vanishes"
                    assert got == _one_point(lambda: list(log_derivs(system)))
                    assert contour[i] == _one_point(lambda: contour_det(family, n, s))
                flags = {_flag(c) for c in contour} | ({"determinant vanishes"} if not sound.all() else set())
                if "ok" in flags:
                    mixed |= flags
    assert mixed == {"ok", "determinant vanishes", "contour determinant is not finite", "contour route unreliable", "est inf"}
    # a singular reduced matrix failed the batched inverse of its stack
    assert max(singular) > 1


def test_contour_det_reduced_size(monkeypatch, fam_a, fam_b, fam_scalar):
    # the determinant is taken of a matrix of at most 64 p rows (p = 1, 2,
    # 3 contour-factor columns)
    shapes = []
    slogdet = np.linalg.slogdet

    def recording_slogdet(mat):
        # the shape of each matrix of the stack
        shapes.append(mat.shape[1:])
        return slogdet(mat)

    monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
    for family, p in ((fam_scalar, 1), (fam_a, 2), (fam_b, 3)):
        for s in (0.0, 1.0):
            shapes.clear()
            contour_det(family, 3, s)
            assert len(shapes) == 1
            rows, cols = shapes[0]
            assert rows == cols <= 64 * p


def test_contour_det_residue_size(monkeypatch, fam_a, fam_b, fam_scalar):
    # N (n - min e) rows, e the exponents of the left contour factor:
    # n (scalar, e = 0), 2 (n + 1) (kind a, e >= -1), 2 (n + 2) (kind b,
    # e >= -2)
    shapes = []
    slogdet = np.linalg.slogdet

    def recording_slogdet(mat):
        # the shape of each matrix of the stack
        shapes.append(mat.shape[1:])
        return slogdet(mat)

    monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
    for family, spread in ((fam_scalar, 0), (fam_a, 1), (fam_b, 2)):
        for n in range(1, 6):
            rows = family.dim * (n + spread)
            shapes.clear()
            contour_det(family, n, 0.5)
            assert shapes == [(rows, rows)]


def test_contour_det_far_right_tail(fam_b):
    assert contour_det(fam_b, 2, 8.0) == pytest.approx(1.0, abs=1e-6)


def test_contour_det_deep_negative_s(fam_scalar):
    # tiny gap probabilities: the Nystrom route must still resolve them
    s = -4.0
    assert contour_det(fam_scalar, 1, s) == pytest.approx(erf_gap(s), abs=1e-12)


def test_contour_det_rejects_degree_zero(fam_a):
    with pytest.raises(ValueError, match="kernel degree must be a positive integer"):
        contour_det(fam_a, 0, 0.0)


def test_contour_det_flags_a_determinant_beyond_the_float_range(fam_a, monkeypatch):
    # a gap determinant lies in [0, 1]: a log|det| whose exponential
    # overflows, or a NaN, is flagged before exp is taken; a slightly
    # positive one (det ~ 1 at s near 3) and det = 0 are returned
    orig = np.linalg.slogdet
    for logabs in (np.inf, np.nan, 710.0, 1.2e4):
        monkeypatch.setattr(np.linalg, "slogdet", lambda m, v=logabs: (np.ones(len(m)), np.full(len(m), v)))
        with pytest.raises(ValueError, match="^contour determinant is not finite"):
            contour_det(fam_a, 3, 0.5)
    for logabs, det in ((1e-12, math.exp(1e-12)), (700.0, math.exp(700.0)), (-np.inf, 0.0)):
        monkeypatch.setattr(np.linalg, "slogdet", lambda m, v=logabs: (np.ones(len(m)), np.full(len(m), v)))
        assert contour_det(fam_a, 3, 0.5) == det
    monkeypatch.setattr(np.linalg, "slogdet", orig)
    assert 0.0 < contour_det(fam_a, 3, 3.0) <= 1.0 + 1e-12


@pytest.mark.parametrize("s", [-3.0, -1.0, 0.0, 0.5, 2.0, 3.0, 5.0, 11.75, 14.0])
def test_line_moments_match_a_600_digit_recurrence(s):
    # M_k(s), k = -128..128, and h_p(s), p = 0..128, against the same
    # closed forms and recurrences at 600 digits: each error estimate
    # covers its actual error (measured worst 0.76 of it on 69 points of
    # [-3, 14]), and the estimate stays at rounding level wherever the
    # recurrence runs in its stable direction
    depth = 128
    mom, mom_err = fredholm._line_moments(s, -depth, depth)
    h, h_err = fredholm._hermite_terms(s, depth)
    with mp.workdps(600):
        x = mp.mpf(s)
        m = {0: mp.exp(-x * x) / (2 * mp.sqrt(mp.pi)), -1: mp.erfc(x) / 2}
        for k in range(depth):
            m[k + 1] = x * m[k] - mp.mpf(k) / 2 * m[k - 1]
        for k in range(-1, -depth, -1):
            m[k - 1] = (2 * x * m[k] - 2 * m[k + 1]) / k
        hx = [mp.mpf(1), 2 * x]
        for p in range(2, depth + 1):
            hx.append((2 * x * hx[-1] - 2 * hx[-2]) / p)
        for got, est, exact in ((mom, mom_err, [m[k] for k in range(-depth, depth + 1)]), (h, h_err, hx)):
            actual = np.array([float(abs(mp.mpf(float(v)) - e)) for v, e in zip(got, exact)])
            assert np.all(np.isfinite(got)) and np.all(actual <= est)
        # for s <= 0 the repeated erfc integrals M_-1 .. M_-128 run in their
        # stable direction, and stay at rounding level
        if s <= 0.0:
            scale = np.array([float(abs(m[k])) for k in range(-depth, 0)])
            assert np.all(mom_err[:depth] <= 1e-13 * scale)


def test_gram_route_keeps_the_mass_of_high_degrees():
    # far right of the spectrum the gap probability is 1; a lower-tail
    # panel set that starts too close to 0 cuts off the mass of Phi_k
    # (log det -118.7 at scalar n = 122 with a fixed depth of 12)
    for weight in (WeightFamily(kind="a", nu=1.0), WeightFamily(kind="b", nu=1.0), WeightFamily(kind="scalar")):
        family = build_family(weight, 123)
        for n in (60, 122):
            assert abs(log_deriv(family, n, 30.0, order=0)) <= 1e-12


def test_contour_det_flags_every_value_it_cannot_vouch_for():
    # on kinds a, b and scalar, n up to 30 and s in [-4, 14], a printed
    # contour determinant is within 1e-8 of the Gram route in log det;
    # the rest are flagged (measured: 412 of 1752 rows flagged, the worst
    # printed one 5.6e-10 off)
    _assert_flags_cover_the_errors((1, 2, 3, 4, 5, 10, 20, 30), np.linspace(-4.0, 14.0, 73), printed=1200)


def test_contour_det_flags_a_vanishing_determinant(fam_a, fam_scalar):
    # far in the lower tail the reduced matrix is exactly singular in
    # double arithmetic; its determinant 0 has no relative accuracy
    for family in (fam_a, fam_scalar):
        with pytest.raises(ValueError, match=r"^contour route unreliable \(est inf\)$"):
            contour_det(family, 3, -40.0)


def test_contour_det_flags_a_non_normal_reduced_matrix():
    # near the turning point of the highest degree X has entries of 1e14
    # while det(I - X) ~ 1: the first-order estimate alone let values up
    # to 4.8e-4 off through at n = 60 and 90; its second-order term flags
    # them
    _assert_flags_cover_the_errors((60, 90), np.linspace(10.0, 15.5, 23), printed=30)


def _assert_flags_cover_the_errors(degrees, grid, printed):
    """Every contour determinant printed for kinds a, b and scalar at
    these degrees and grid points is within 1e-8 of the Gram route in
    log det; the rest are flagged; at least ``printed`` are printed."""
    count = 0
    for weight in (WeightFamily(kind="a", nu=1.0), WeightFamily(kind="b", nu=1.0), WeightFamily(kind="scalar")):
        family = build_family(weight, max(degrees) + 1)
        for n in degrees:
            for s, system in zip(grid.tolist(), build_grams(family, n, grid)):
                try:
                    det = contour_det(family, n, s)
                except ValueError as exc:
                    assert str(exc).startswith("contour route unreliable (est ")
                    continue
                count += 1
                assert det > 0.0 and abs(math.log(det) - fredholm._log_det(system)) <= 1e-8
    assert count >= printed
