"""Tests of the Christoffel-Darboux kernel representations and the
single-contour integral representations of the polynomials."""

import math

import mpmath as mp
import numpy as np
import pytest

from ncpiv.families import WeightFamily, build_family
from ncpiv.kernels import (
    KernelSpec,
    _hermite_coeffs,
    _ratio_power,
    cd_double_integral,
    cd_sum,
    contour_factors,
    generic_kernel_deviation,
    intrep_line,
    intrep_loop,
    polynomial_times_tfactor,
    reproducing_residual,
)
from ncpiv.quadrature import circle_rule, vline_rule


def hermite_kernel(n, x, y):
    """Classical Hermite kernel from an independent orthonormal recurrence."""
    out = 0.0
    px_prev = py_prev = 0.0
    px = py = math.pi ** (-0.25)
    for k in range(n):
        out += px * py
        cx = x * math.sqrt(2.0 / (k + 1)) * px - math.sqrt(k / (k + 1.0)) * px_prev
        cy = y * math.sqrt(2.0 / (k + 1)) * py - math.sqrt(k / (k + 1.0)) * py_prev
        px, px_prev = cx, px
        py, py_prev = cy, py
    return out * math.exp(-(x * x + y * y) / 2.0)


def test_ratio_power_matches_direct():
    z = np.array([0.3 + 0.4j, -1.2 + 0.1j])
    for n in (0, 1, 5, 13):
        assert np.max(np.abs(_ratio_power(z, n) - z**n)) < 1e-12 * np.max(np.abs(z) ** n + 1)


def test_hermite_coeffs_match_mpmath():
    # Taylor coefficients of e^{2xz - z^2} are H_p(x) / p!
    with mp.workdps(30):
        for x in (-3.0, -1.4, 0.0, 0.7, 3.0):
            h = _hermite_coeffs(x, 12)
            assert h.shape == (13,)
            for p in range(13):
                ref = float(mp.hermite(p, x) / mp.factorial(p))
                assert abs(h[p] - ref) <= 1e-13 * max(1.0, abs(ref))


def test_cd_sum_empty(fam_a):
    assert np.all(cd_sum(fam_a, 0, 0.3, -0.1) == 0.0)


def test_cd_sum_scalar_matches_hermite_kernel(fam_scalar):
    for n in (1, 3, 6):
        for x, y in ((0.2, -0.4), (1.1, 0.9)):
            got = cd_sum(fam_scalar, n, x, y)[0, 0]
            assert got == pytest.approx(hermite_kernel(n, x, y), abs=1e-12)


def test_cd_sum_transpose_symmetry(fam_a):
    x, y = 0.2, -0.4
    k_xy = cd_sum(fam_a, 3, x, y)
    k_yx = cd_sum(fam_a, 3, y, x)
    assert np.max(np.abs(k_xy - k_yx.T)) < 1e-14


@pytest.mark.parametrize("kind,nu", [("a", 1.0), ("b", 0.5)])
def test_double_integral_matches_sum(kind, nu):
    family = build_family(WeightFamily(kind=kind, nu=nu), nmax=5)
    form = "doubleintA" if kind == "a" else "doubleintB"
    for n in (1, 3, 4):
        spec = KernelSpec(family.weight, n, form=form)
        for x, y in ((0.2, -0.4), (-1.5, 1.5), (0.0, 0.0)):
            ksum = cd_sum(family, n, x, y)
            kint = cd_double_integral(spec, x, y)
            rel = np.max(np.abs(kint - ksum)) / (1.0 + np.max(np.abs(ksum)))
            assert rel < 1e-6


def test_double_integral_nu_zero_is_scalar_times_identity(fam_scalar):
    family = build_family(WeightFamily(kind="a", nu=0.0), nmax=3)
    spec = KernelSpec(family.weight, 2, form="doubleintA")
    x, y = 0.4, -0.2
    got = cd_double_integral(spec, x, y)
    scalar = cd_sum(fam_scalar, 2, x, y)[0, 0]
    assert np.max(np.abs(got - scalar * np.eye(2))) < 1e-8


def test_double_integral_rejects_degree_zero():
    spec = KernelSpec(WeightFamily(kind="a", nu=1.0), 0, form="doubleintA")
    with pytest.raises(ValueError, match="kernel degree must be a positive integer"):
        cd_double_integral(spec, 0.0, 0.0)


def test_kernel_spec_validates_generic_factors():
    with pytest.raises(ValueError, match="contour factors are not mutually inverse"):
        KernelSpec(
            WeightFamily(kind="a", nu=1.0),
            2,
            form="generic",
            bleft=lambda z: 2.0 * np.eye(2),
            bright=lambda w: np.eye(2),
        )


@pytest.mark.parametrize("kind", ["a", "b"])
def test_contour_factors_on_node_arrays(kind):
    bleft, bright = contour_factors(WeightFamily(kind=kind, nu=0.7), 3)
    nodes = np.concatenate([circle_rule(0.25, m=16).nodes, vline_rule(0.5, m=16).nodes])
    for factor in (bleft, bright):
        stacked = np.stack([factor(z) for z in nodes])
        assert factor(nodes).shape == stacked.shape
        assert np.array_equal(factor(nodes), stacked)


def test_generic_form_with_true_factors(fam_a):
    bleft, bright = contour_factors(fam_a.weight, 3)
    spec = KernelSpec(fam_a.weight, 3, form="generic", bleft=bleft, bright=bright)
    grid = [(0.3, -0.5), (1.0, 1.0)]
    assert generic_kernel_deviation(spec, fam_a, grid) < 1e-8


# verify's kernel-equivalence grid
VERIFY_GRID = [(x, y) for x in (-1.5, 0.0, 1.5) for y in (-1.0, 0.5)]


@pytest.mark.parametrize("kind", ["a", "b"])
@pytest.mark.parametrize("n", [1, 4])
def test_cd_double_integral_on_point_arrays(kind, n):
    family = build_family(WeightFamily(kind=kind, nu=0.7), nmax=5)
    spec = KernelSpec(family.weight, n, form="doubleintA" if kind == "a" else "doubleintB")
    xs, ys = np.array(VERIFY_GRID).T
    got = cd_double_integral(spec, xs, ys)
    assert got.shape == (6, 2, 2)
    for row, x, y in zip(got, xs, ys):
        point = cd_double_integral(spec, x, y)
        assert point.shape == (2, 2)
        assert np.max(np.abs(row - point)) <= 1e-12 * (1.0 + np.max(np.abs(point)))


def test_cd_double_integral_rejects_mismatched_points():
    spec = KernelSpec(WeightFamily(kind="a", nu=1.0), 2, form="doubleintA")
    with pytest.raises(ValueError, match="1-D arrays of equal length"):
        cd_double_integral(spec, np.zeros(3), np.zeros(2))


@pytest.mark.parametrize("kind", ["a", "b", "scalar"])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_cd_sum_on_point_arrays(kind, n):
    family = build_family(WeightFamily(kind=kind, nu=0.7), nmax=5)
    dim = family.dim
    xs, ys = np.array(VERIFY_GRID).T
    got = cd_sum(family, n, xs, ys)
    assert got.shape == (6, dim, dim)
    for row, x, y in zip(got, xs, ys):
        point = cd_sum(family, n, x, y)
        assert point.shape == (dim, dim)
        if kind == "scalar":
            # a 1x1 sum over k is taken in another order on arrays
            assert np.max(np.abs(row - point)) <= 1e-15 * (1.0 + np.max(np.abs(point)))
        else:
            assert np.array_equal(row, point)
    with pytest.raises(ValueError, match="1-D arrays of equal length"):
        cd_sum(family, n, xs, ys[:-1])
    with pytest.raises(ValueError, match="1-D arrays of equal length"):
        cd_sum(family, n, xs, 0.5)


@pytest.mark.parametrize("kind", ["a", "b"])
def test_kernel_deviation_builds_contour_factors_once(kind, monkeypatch):
    from ncpiv import kernels

    calls = {"power_conjugate": 0}
    orig = kernels.power_conjugate

    def counted(*args, **kwargs):
        calls["power_conjugate"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(kernels, "power_conjugate", counted)
    family = build_family(WeightFamily(kind=kind, nu=1.0), nmax=6)
    spec = KernelSpec(family.weight, 4, form="doubleintA" if kind == "a" else "doubleintB")
    assert generic_kernel_deviation(spec, family, VERIFY_GRID) < 1e-8
    assert calls["power_conjugate"] <= 2


def test_generic_form_with_scalar_only_factors(fam_b):
    # user factors that reject node arrays keep the per-node path
    bleft, bright = contour_factors(fam_b.weight, 3)
    spec = KernelSpec(
        fam_b.weight,
        3,
        form="generic",
        bleft=lambda z: bleft(complex(z)),
        bright=lambda w: bright(complex(w)),
    )
    with pytest.raises(TypeError):
        spec.bleft(np.array([0.5, 0.6]))
    builtin = KernelSpec(fam_b.weight, 3, form="doubleintB")
    dev = generic_kernel_deviation(spec, fam_b, VERIFY_GRID)
    assert dev < 1e-8
    assert abs(dev - generic_kernel_deviation(builtin, fam_b, VERIFY_GRID)) < 1e-12


@pytest.mark.parametrize("kind,nu", [("a", 1.0), ("b", 0.7)])
def test_integral_representations(kind, nu):
    family = build_family(WeightFamily(kind=kind, nu=nu), nmax=7)
    for n in (0, 2, 4):
        for x in (-1.0, 0.0, 0.5, 1.5):
            direct = polynomial_times_tfactor(family, n, x)
            assert np.max(np.abs(intrep_loop(family, n, x) - direct)) < 1e-8
            assert np.max(np.abs(intrep_line(family, n, x) - direct)) < 1e-8


def test_intrep_loop_p0_is_identity(fam_a):
    assert np.max(np.abs(intrep_loop(fam_a, 0, 0.0) - np.eye(2))) < 1e-10


def test_reproducing_residual_rank_one(fam_scalar):
    assert np.max(np.abs(reproducing_residual(fam_scalar, 1, 0.3, 0.3))) < 1e-10


def test_reproducing_residual_matrix(fam_a):
    assert np.max(np.abs(reproducing_residual(fam_a, 4, 0.1, 0.9))) < 1e-8


def test_diagonal_kernel_positive_semidefinite(fam_a):
    k = cd_sum(fam_a, fam_a.nmax, 0.7, 0.7)
    evals = np.linalg.eigvalsh(0.5 * (k + k.T))
    assert np.min(evals) > -1e-12
