"""Tests of the Airy evaluator, the Airy kernel, and the edge-scaling
collapse of the matrix kernels onto the scalar Airy kernel."""

import math

import numpy as np
import pytest
from scipy.special import airy as scipy_airy

from ncpiv.airy import WINDOW, airy_ai, airy_kernel, scaling_limit_error
from ncpiv.families import WeightFamily, build_family


def test_airy_at_zero():
    v = airy_ai(0.0)
    assert v.ai == pytest.approx(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), abs=1e-14)
    assert v.aip == pytest.approx(-(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), abs=1e-14)


def test_airy_against_reference_grid():
    xs = np.linspace(WINDOW[0], WINDOW[1], 257)
    for x in xs:
        v = airy_ai(float(x))
        ref_ai, ref_aip, _, _ = scipy_airy(float(x))
        assert abs(v.ai - ref_ai) < 1e-10
        assert abs(v.aip - ref_aip) < 1e-10


def test_airy_positive_decreasing_on_right():
    xs = np.linspace(0.0, 8.0, 33)
    vals = [airy_ai(float(x)).ai for x in xs]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_airy_series_asymptotic_overlap():
    # both branches are accurate where they hand over
    from ncpiv.airy import _asymptotic_pos, _series

    for x in np.linspace(5.0, 7.0, 11):
        ai_s, aip_s = _series(float(x))
        ai_a, aip_a = _asymptotic_pos(float(x))
        assert abs(ai_s - ai_a) < 1e-10
        assert abs(aip_s - aip_a) < 1e-10


def test_airy_window_enforced():
    for x in (-12.5, 20.5):
        with pytest.raises(ValueError, match="argument outside supported window"):
            airy_ai(x)


def test_airy_kernel_symmetry(rng):
    for _ in range(10):
        x, y = rng.uniform(-5.0, 5.0, size=2)
        assert airy_kernel(float(x), float(y)) == pytest.approx(
            airy_kernel(float(y), float(x)), abs=1e-14
        )


def test_airy_kernel_diagonal_continuity():
    for x in (-1.0, 0.0, 1.5):
        assert abs(airy_kernel(x, x + 1e-7) - airy_kernel(x, x)) < 1e-6


def test_airy_kernel_at_origin():
    expected = (3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)) ** 2
    assert airy_kernel(0.0, 0.0) == pytest.approx(expected, abs=1e-13)


GRID = [(x, y) for x in np.linspace(-1.5, 1.5, 3) for y in np.linspace(-1.5, 1.5, 3)]


def test_scaling_limit_scalar_improves_with_n():
    family = build_family(WeightFamily(kind="scalar"), nmax=16)
    e8 = scaling_limit_error(family, 8, GRID)["sup_error"]
    e16 = scaling_limit_error(family, 16, GRID)["sup_error"]
    assert e16 < e8


def test_scaling_limit_matrix_offdiagonal_shrinks():
    family = build_family(WeightFamily(kind="a", nu=1.0), nmax=16)
    r8 = scaling_limit_error(family, 8, GRID)
    r16 = scaling_limit_error(family, 16, GRID)
    assert r16["offdiag_max"] < r8["offdiag_max"]


def test_scaling_limit_nu_zero_matches_scalar():
    matrix = build_family(WeightFamily(kind="a", nu=0.0), nmax=16)
    scalar = build_family(WeightFamily(kind="scalar"), nmax=16)
    rm = scaling_limit_error(matrix, 16, GRID)
    rs = scaling_limit_error(scalar, 16, GRID)
    assert abs(rm["sup_error"] - rs["sup_error"]) < 1e-12
    assert rm["offdiag_max"] < 1e-12


def test_scaling_limit_budget():
    family = build_family(WeightFamily(kind="scalar"), nmax=8)
    with pytest.raises(ValueError, match="degree beyond stability budget"):
        scaling_limit_error(family, 128, GRID)


def test_scaling_limit_rejects_points_outside_box():
    family = build_family(WeightFamily(kind="scalar"), nmax=8)
    for grid in ([(3.0, 0.0)], [(0.0, 0.5), (0.5, -2.5)], [(float("nan"), 0.0)]):
        with pytest.raises(ValueError, match="outside the supported box"):
            scaling_limit_error(family, 8, grid)
