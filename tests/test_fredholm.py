"""Tests of the gap determinant routes, log-derivatives, and the scalar
sigma-form residual."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erf

from ncpiv.fredholm import (
    _scalar_gram,
    _scalar_log_derivs,
    build_gram,
    contour_det,
    gram_det,
    log_deriv,
    second_log_deriv,
    sigma_piv_residual,
    upper_tail_gram,
)
from ncpiv.quadrature import circle_rule, vline_rule


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


def test_contour_det_reduced_size(monkeypatch, fam_a, fam_b, fam_scalar):
    # with the default rules the determinant is taken of a matrix of at
    # most 64 p rows (p = 1, 2, 3 contour-factor columns), never of the
    # 400 N Nystrom matrix; 64 circle nodes agree with 256
    shapes = []
    slogdet = np.linalg.slogdet

    def recording_slogdet(mat):
        shapes.append(mat.shape)
        return slogdet(mat)

    monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
    for family, p in ((fam_scalar, 1), (fam_a, 2), (fam_b, 3)):
        for s in (0.0, 1.0):
            shapes.clear()
            det = contour_det(family, 3, s)
            assert len(shapes) == 1
            rows, cols = shapes[0]
            assert rows == cols <= 64 * p
            fine = contour_det(family, 3, s, circle=circle_rule(0.25, 256))
            assert abs(math.log(det) - math.log(fine)) <= 1e-10


def test_contour_det_independent_of_circle(fam_a, fam_b, fam_scalar):
    # the loop integral is taken by residues at z = 0, so the circle only
    # certifies the pole structure and cannot move a single bit
    for family in (fam_scalar, fam_a, fam_b):
        for n, s in ((2, -2.0), (4, 0.5)):
            ref = contour_det(family, n, s)
            for circle in (circle_rule(0.1), circle_rule(0.25), circle_rule(0.45, m=16)):
                assert contour_det(family, n, s, circle=circle) == ref


def test_contour_det_residue_size(monkeypatch, fam_a, fam_b, fam_scalar):
    # N (n - min e) rows, e the exponents of the left contour factor:
    # n (scalar, e = 0), 2 (n + 1) (kind a, e >= -1), 2 (n + 2) (kind b,
    # e >= -2)
    shapes = []
    slogdet = np.linalg.slogdet

    def recording_slogdet(mat):
        shapes.append(mat.shape)
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


def test_contour_det_budget(fam_a):
    big_line = vline_rule(0.5, m=1600)
    with pytest.raises(ValueError, match="budget exceeded"):
        contour_det(fam_a, 2, 0.0, circle=circle_rule(0.25), line=big_line)


def test_contour_det_ordering_guard(fam_a):
    with pytest.raises(ValueError, match="contours intersect ordering"):
        contour_det(fam_a, 2, 0.0, circle=circle_rule(3.0), line=vline_rule(2.0))


def test_contour_det_line_must_pass_right_of_origin(fam_scalar):
    # without a circle the residue at z = 0 needs a line with Re > 0
    with pytest.raises(ValueError, match="contours intersect ordering"):
        contour_det(fam_scalar, 2, 0.0, line=vline_rule(-0.5))
    assert contour_det(fam_scalar, 2, 0.0, line=vline_rule(0.2)) == pytest.approx(gram_det(fam_scalar, 2, 0.0), abs=1e-10)
