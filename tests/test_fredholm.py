"""Tests of the gap determinant routes, log-derivatives, and the scalar
sigma-form residual."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erf

from ncpiv.fredholm import (
    _scalar_r_rp,
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
                oracle = float((_scalar_r_rp(n, sm + h)[1] - _scalar_r_rp(n, sm - h)[1]) / (2 * h))
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


def test_sigma_piv_requires_scalar(fam_a):
    with pytest.raises(ValueError, match="scalar family required"):
        sigma_piv_residual(fam_a, 1, 0.0)


def test_contour_route_equality_spot_checks(fam_a, fam_scalar):
    for family, n, s in ((fam_a, 2, 0.0), (fam_scalar, 3, 0.7), (fam_a, 4, -1.0)):
        g = gram_det(family, n, s)
        c = contour_det(family, n, s)
        assert abs(g - c) <= 1e-5 * (1.0 + abs(g))


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
