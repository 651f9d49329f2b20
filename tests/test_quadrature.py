"""Tests of the integration rules: Gauss-Hermite, circle and vertical
line trapezoids, and the Gaussian-tail integrator."""

import math

import numpy as np
import pytest

from conftest import integrate, phi
from ncpiv.families import WeightFamily, build_family
from ncpiv.kernels import cd_double_integral
from ncpiv.quadrature import (
    circle_rule,
    compensated_weights,
    default_contours,
    default_core,
    gauss_hermite,
    tail_integral,
    vline_rule,
)

SQRT_PI = math.sqrt(math.pi)


def test_gauss_hermite_total_mass():
    rule = gauss_hermite(50)
    assert integrate(rule, lambda x: np.ones_like(x)) == pytest.approx(SQRT_PI, abs=1e-13)


def test_gauss_hermite_rule_built_once_and_read_only():
    rule = gauss_hermite(60)
    assert rule.nodes is gauss_hermite(60).nodes
    with pytest.raises(ValueError, match="read-only"):
        rule.weights[0] = 0.0
    x, w = np.polynomial.hermite.hermgauss(60)
    assert np.array_equal(rule.nodes, x) and np.array_equal(rule.weights, w)


def test_gauss_hermite_rejects_a_non_finite_rule():
    # numpy's rule has NaN weights from 372 nodes on; 370 is the largest
    # size the command line accepts, and its rule is finite
    assert np.all(np.isfinite(gauss_hermite(370).weights))
    for m in (372, 380):
        with pytest.raises(ValueError, match=f"^the {m}-node Gauss-Hermite rule is not finite$"):
            gauss_hermite(m)


def test_gauss_hermite_second_moment():
    rule = gauss_hermite(50)
    assert integrate(rule, lambda x: x * x) == pytest.approx(SQRT_PI / 2.0, abs=1e-13)


def test_gauss_hermite_hermite_orthogonality():
    # orthonormal Hermite functions from an independent recurrence
    rule = gauss_hermite(100)
    x = rule.nodes.real
    p_prev = np.zeros_like(x)
    p = np.full_like(x, np.pi ** (-0.25))
    polys = [p]
    for k in range(9):
        p, p_prev = x * math.sqrt(2.0 / (k + 1)) * p - math.sqrt(k / (k + 1.0)) * p_prev, p
        polys.append(p)
    val = np.sum(rule.weights.real * polys[7] * polys[9])
    assert abs(val) < 1e-12


def test_compensated_weights_recover_gaussian():
    rule = gauss_hermite(80)
    w = compensated_weights(rule)
    total = np.sum(w * np.exp(-rule.nodes.real**2))
    assert total == pytest.approx(SQRT_PI, abs=1e-12)


def test_circle_winding():
    rule = circle_rule(1.0)
    val = integrate(rule, lambda z: 1.0 / z) / (2j * np.pi)
    assert abs(val - 1.0) < 1e-13


@pytest.mark.parametrize("k", [-3, -2, 0, 1, 4])
def test_circle_laurent_orthogonality(k):
    rule = circle_rule(1.0)
    assert abs(integrate(rule, lambda z: z**k)) < 1e-12


def test_circle_rejects_bad_radius():
    with pytest.raises(ValueError):
        circle_rule(-1.0)


def test_vline_shifted_gaussian():
    # int over 2 + iR of e^{w^2 - 2w} dw = i sqrt(pi) e^{-1} by
    # completing the square along the vertical line
    rule = vline_rule(2.0)
    val = integrate(rule, lambda w: np.exp(w * w - 2.0 * w))
    assert abs(val - 1j * SQRT_PI * math.exp(-1.0)) < 1e-12


def test_contour_ordering_guard():
    # the double-integral kernel needs the loop strictly left of the line
    circle, line = default_contours()
    assert np.max(np.abs(circle.nodes)) < np.min(line.nodes.real)


def test_default_contours_built_once_and_read_only():
    circle, line = default_contours()
    assert default_contours()[0] is circle and default_contours()[1] is line
    for fresh, rule in ((circle_rule(1.0), circle), (vline_rule(2.0), line)):
        assert np.array_equal(rule.nodes, fresh.nodes) and np.array_equal(rule.weights, fresh.weights)
        with pytest.raises(ValueError, match="read-only"):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            rule.weights[0] = 0.0


def test_cauchy_core_is_cached_bit_equal_and_read_only():
    circle, line = default_contours()
    core = default_core()
    assert core.shape == (circle.nodes.size, line.nodes.size)
    fresh = 1.0 / (vline_rule(2.0).nodes[None, :] - circle_rule(1.0).nodes[:, None])
    assert core.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        core[0, 0] = 0.0
    assert default_core() is core


def test_contour_caches_stay_bounded():
    # the kernel at any number of points keeps one pair of rules and one
    # core, and the rule constructors keep nothing
    family = build_family(WeightFamily(kind="a", nu=1.0), nmax=4)
    for x in np.linspace(-1.5, 1.5, 20):
        cd_double_integral(family.weight, 2, float(x), -0.5)
    assert default_contours.cache_info().currsize == 1
    assert default_core.cache_info().currsize == 1
    assert circle_rule(1.0) is not circle_rule(1.0)


def test_tail_integral_half_gaussian():
    val = tail_integral(lambda x: np.exp(-x * x) / SQRT_PI, 0.0)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_tail_integral_empty_tail():
    val = tail_integral(lambda x: np.exp(-x * x) / SQRT_PI, 9.0)
    assert abs(val) < 1e-12


def test_tail_integral_matches_dense_riemann_sum():
    family = build_family(WeightFamily(kind="a", nu=1.0), nmax=3)

    def integrand(xs):
        p = phi(family, 1, np.asarray(xs, dtype=float))
        return np.einsum("...ab,...cb->...ac", p, p)

    s = 0.5
    got = tail_integral(integrand, s)
    xs = np.linspace(s, s + 12.0, 1_000_001)
    oracle = np.trapezoid(integrand(xs), xs, axis=0)
    assert np.max(np.abs(got - oracle)) < 1e-8


def test_tail_integral_rejects_growth():
    with pytest.raises(ValueError, match="divergent tail"):
        tail_integral(lambda x: np.exp(np.minimum(-x, 200.0)), 0.0)


def test_self_convergence_under_node_doubling():
    coarse = integrate(gauss_hermite(100), lambda x: np.cos(3.0 * x))
    fine = integrate(gauss_hermite(200), lambda x: np.cos(3.0 * x))
    assert abs(coarse - fine) < 1e-12
    c_coarse = integrate(circle_rule(1.0, m=128), lambda z: np.exp(z) / z) / (2j * np.pi)
    c_fine = integrate(circle_rule(1.0, m=256), lambda z: np.exp(z) / z) / (2j * np.pi)
    assert abs(c_coarse - c_fine) < 1e-12


def test_circle_radius_invariance():
    # loop integrands here are meromorphic with the only pole at the
    # origin, so the value must not depend on the radius
    def f(z):
        return np.exp(-z * z + 2.0 * z * 0.3) / z**4

    vals = [integrate(circle_rule(r), f) for r in (0.5, 1.0, 2.0)]
    assert abs(vals[0] - vals[1]) < 1e-9
    assert abs(vals[1] - vals[2]) < 1e-9
