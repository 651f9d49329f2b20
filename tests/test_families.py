"""Tests of the matrix orthogonal polynomial families: weights,
orthogonality, closed-form norms, the eigen-equation, and the
closed-form contour constants."""

import math

import numpy as np
import pytest

from conftest import phi, weight_eval
from ncpiv.families import (
    WeightFamily,
    build_family,
    family_constants,
    ode_residual,
    phi_all,
    phi_deriv,
    phi_deriv2_all,
)
from ncpiv.quadrature import compensated_weights, gauss_hermite

SQRT_PI = math.sqrt(math.pi)


def gram_matrix(family, upto, m=200):
    """<Phi_j, Phi_k> over all pairs j, k < upto, by quadrature."""
    quad = gauss_hermite(m)
    w = compensated_weights(quad)
    p = phi_all(family, quad.nodes.real, upto)
    return np.einsum("i,jiab,kicb->jkac", w, p, p, optimize=True)


def test_weight_family_validation():
    with pytest.raises(ValueError, match="unknown family kind"):
        WeightFamily(kind="c")
    scal = WeightFamily(kind="scalar", nu=3.0, dim=5)
    assert scal.dim == 1 and scal.nu == 0.0


def test_weight_eval_at_zero_is_identity():
    fam = WeightFamily(kind="a", nu=1.0)
    assert np.allclose(weight_eval(fam, 0.0), np.eye(2))


def test_weight_eval_example_a():
    fam = WeightFamily(kind="a", nu=1.0)
    expected = math.exp(-1.0) * np.array([[2.0, 1.0], [1.0, 1.0]])
    assert np.allclose(weight_eval(fam, 1.0), expected)


def test_weight_eval_scalar():
    fam = WeightFamily(kind="scalar")
    assert weight_eval(fam, 1.0)[0, 0] == pytest.approx(math.exp(-1.0))


def test_nu_zero_collapses_to_scalar_hermite(fam_scalar):
    for kind in ("a", "b"):
        family = build_family(WeightFamily(kind=kind, nu=0.0), nmax=6)
        for n in range(6):
            for x in (-1.3, 0.0, 0.8):
                m = phi(family, n, np.asarray(x))
                scalar = phi(fam_scalar, n, np.asarray(x))[0, 0]
                assert np.max(np.abs(m - scalar * np.eye(2))) < 1e-12


def test_p0_and_its_norm():
    family = build_family(WeightFamily(kind="a", nu=1.0), nmax=2)
    assert np.allclose(family.monic_coeffs[0][0], np.eye(2))
    assert np.allclose(family.normalizers[0], np.eye(2))  # e^{-A^2/4} = I
    expected = SQRT_PI * np.diag([1.5, 1.0])
    assert np.max(np.abs(family.norms[0] - expected)) < 1e-10


@pytest.mark.parametrize("kind", ["a", "b"])
@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0])
def test_closed_form_norms(kind, nu):
    family = build_family(WeightFamily(kind=kind, nu=nu), nmax=11)
    for n in range(11):
        closed = family_constants(family.weight, n)["norm"]
        rel = np.max(np.abs(family.norms[n] - closed)) / np.max(np.abs(closed))
        assert rel < 1e-8


def test_orthonormality(fam_a, fam_b, fam_scalar):
    for family in (fam_a, fam_b, fam_scalar):
        g = gram_matrix(family, 9)
        target = np.einsum("jk,ac->jkac", np.eye(9), np.eye(family.dim))
        assert np.max(np.abs(g - target)) < 1e-9


def test_monic_orthogonality_residual(fam_a, fam_b):
    assert fam_a.ortho_residual < 1e-9
    assert fam_b.ortho_residual < 1e-9


def test_insufficient_quadrature_detected():
    with pytest.raises(ValueError, match="insufficient quadrature"):
        build_family(WeightFamily(kind="a", nu=1.0), nmax=10, quad=gauss_hermite(4))


@pytest.mark.parametrize(
    "kind, m, nmax",
    [(kind, 1, nmax) for kind in ("a", "b", "scalar") for nmax in (1, 2)]
    + [("scalar", 2, 2), ("scalar", 2, 3), ("b", 3, 10)],
)
def test_singular_norm_matrix_is_insufficient_quadrature(kind, m, nmax):
    # on m nodes, matrix polynomials of degree < m span every function on
    # the rule, so the degree-m Stieltjes step leaves nothing standing
    with pytest.raises(
        ValueError, match=rf"insufficient quadrature: .*degree-{m}\b.* {m}-node rule"
    ):
        build_family(WeightFamily(kind=kind, nu=1.0), nmax=nmax, quad=gauss_hermite(m))


@pytest.mark.parametrize("kind, m, nmax", [("a", 4, 3), ("b", 6, 4)])
def test_rule_too_small_for_top_norm_is_insufficient_quadrature(kind, m, nmax):
    # every Stieltjes step stays regular here, but the rule is not exact
    # for the degree-nmax norm: it came out 66% (a) and 55% (b) off
    with pytest.raises(
        ValueError, match=rf"insufficient quadrature: .*degree-{nmax}\b.* has {m}$"
    ):
        build_family(WeightFamily(kind=kind, nu=1.0), nmax=nmax, quad=gauss_hermite(m))


@pytest.mark.parametrize("kind", ["a", "b"])
def test_singularity_check_passes_sound_builds(kind):
    # nu=10, nmax=64 gave the smallest pencil eigenvalue of the sound builds measured
    family = build_family(WeightFamily(kind=kind, nu=10.0), nmax=64)
    assert family.ortho_residual < 1e-9


@pytest.mark.parametrize("kind", ["a", "b"])
def test_ode_residual(kind, rng):
    family = build_family(WeightFamily(kind=kind, nu=1.0), nmax=9)
    xs = rng.uniform(-2.5, 2.5, size=20)
    for n in range(9):
        for x in xs:
            assert np.max(np.abs(ode_residual(family, n, float(x)))) < 1e-8


@pytest.mark.parametrize("kind", ["a", "b", "scalar"])
def test_ode_residual_on_x_arrays(kind, rng):
    family = build_family(WeightFamily(kind=kind, nu=1.0), nmax=6)
    xs = rng.uniform(-2.0, 2.0, size=5)
    for n in (0, 1, 4, 6):
        got = ode_residual(family, n, xs)
        assert got.shape == (5, family.dim, family.dim)
        assert np.array_equal(got, np.stack([ode_residual(family, n, float(x)) for x in xs]))


def test_ode_residual_n0_exact(fam_a):
    assert np.max(np.abs(ode_residual(fam_a, 0, 0.7))) < 1e-14


def test_phi_deriv_matches_finite_differences(fam_a):
    h = 1e-6
    for n in (1, 4):
        for x in (-0.8, 0.6):
            fd = (phi(fam_a, n, np.asarray(x + h)) - phi(fam_a, n, np.asarray(x - h))) / (2 * h)
            an = phi_deriv(fam_a, n, np.asarray(x))
            assert np.max(np.abs(fd - an)) < 1e-8


@pytest.mark.parametrize("kind", ["a", "b", "scalar"])
def test_phi_deriv2_matches_finite_differences(kind):
    family = build_family(WeightFamily(kind=kind, nu=1.0), nmax=6)
    h = 1e-6
    for n in (0, 1, 4):
        for x in (-0.8, 0.6, 1.3):
            fd = (phi_deriv(family, n, np.asarray(x + h)) - phi_deriv(family, n, np.asarray(x - h))) / (2 * h)
            an = phi_deriv2_all(family, np.asarray(x), n + 1)[n]
            assert np.max(np.abs(fd - an)) < 1e-8


def test_phi_out_of_range(fam_a):
    with pytest.raises(ValueError, match="degree out of range"):
        phi(fam_a, fam_a.nmax + 1, np.asarray(0.0))


def test_constants_c0_example_a():
    c0 = family_constants(WeightFamily(kind="a", nu=1.0), 0)["C"]
    expected = np.array([[1.0, 0.5], [-1.0, 1.0]]) / (2j * np.pi)
    assert np.max(np.abs(c0 - expected)) < 1e-14


@pytest.mark.parametrize("n", range(6))
def test_det_b_equals_gamma_squared(n):
    nu = 0.8
    b = family_constants(WeightFamily(kind="a", nu=nu), n)["B"]
    assert np.linalg.det(b) == pytest.approx(1.0 + n * nu * nu / 2.0, rel=1e-13)


@pytest.mark.parametrize("n", range(6))
def test_b_bhat_right_inverse_family_b(n):
    consts = family_constants(WeightFamily(kind="b", nu=0.7), n)
    prod = consts["B"] @ consts["Bhat"]
    assert np.max(np.abs(prod - np.eye(2))) < 1e-14


def test_scalar_has_no_matrix_constants():
    with pytest.raises(ValueError, match="no matrix constants"):
        family_constants(WeightFamily(kind="scalar"), 2)
