"""Shared fixtures, the small oracles the tests build on, and the
acceptance-summary reporter."""

import math

import numpy as np
import pytest

from ncpiv.families import WeightFamily, build_family, phi_all, tfactor
from ncpiv.matcore import commutator
from ncpiv.quadrature import compensated_weights, gauss_hermite, tail_integral

# acceptance tests register one verdict line per criterion here; the
# terminal-summary hook prints them after the run so every criterion
# gets an explicit pass/fail line in the output
ACCEPTANCE_LINES: dict[int, str] = {}


def integrate(rule, f):
    """Sum of weights * f(node); f is evaluated on the node array."""
    return np.tensordot(rule.weights, np.asarray(f(rule.nodes)), axes=(0, 0))


def elementary(n, i, j):
    """n x n matrix with a single 1 at (i, j), zero-based indices."""
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def weight_eval(fam, x):
    """The weight matrix e^{-x^2} T(x) T(x)^T (symmetric positive definite)."""
    x = np.asarray(x, dtype=float)
    t = tfactor(fam, x)
    return np.exp(-x * x)[..., None, None] * np.einsum("...ab,...cb->...ac", t, t)


def phi(family, n, x):
    """Orthonormal function Phi_n at x."""
    if n > family.nmax:
        raise ValueError("degree out of range")
    return phi_all(family, x, n + 1)[n]


def upper_tail_gram(family, n, s):
    """Upper-tail Gram G(s) with blocks int_s^inf Phi_j Phi_k^T, as an
    (nN, nN) matrix: the whole-line Gram (Gauss-Hermite) minus the
    lower tail, by adaptive panels."""
    dim = family.dim

    def integrand(xs):
        p = phi_all(family, np.asarray(xs, dtype=float), n)  # (n, m, N, N)
        return np.einsum("jiab,kicb->ijakc", p, p, optimize=True)

    g = tail_integral(integrand, s, full_rule=gauss_hermite(max(200, 3 * (n + 1))))  # (n, N, n, N)
    return g.reshape(n * dim, n * dim)


def reproducing_residual(family, n, y, z):
    """Projection identity: integral over x of K_n(x,y) K_n(z,x) minus
    K_n(z,y), on a Gauss-Hermite rule; vanishes because the kernel is the
    orthogonal projector onto the first n orthonormal functions."""
    quad = gauss_hermite(max(200, 3 * (n + 1)))
    wts = compensated_weights(quad)
    px = phi_all(family, quad.nodes.real, n)  # (n, m, N, N)
    py = phi_all(family, np.asarray(float(y)), n)
    pz = phi_all(family, np.asarray(float(z)), n)
    kxy = np.einsum("kba,kibc->iac", py, px)  # K(x_i, y)
    kzx = np.einsum("kiba,kbc->iac", px, pz)  # K(z, x_i)
    integ = np.einsum("i,iab,ibc->ac", wts, kxy, kzx)
    kzy = np.einsum("kba,kbc->ac", py, pz)
    return integ - kzy


def pairwise_ortho_residual(values, wt):
    """Orthogonality residual by its definition, one pair at a time: the
    largest max|<F_a, F_b>| over pairs a != b, each scaled by
    sqrt(||H_a|| ||H_b||) with H_k = <F_k, F_k> (Frobenius norms), where
    <F, G> = sum_i F_i wt_i G_i^T for node values (K, m, N, N) and the
    weighted weight matrices wt (m, N, N)."""
    k = len(values)

    def inner(f, g):
        return np.einsum("iab,ibc,idc->ad", f, wt, g)

    scale = [float(np.linalg.norm(inner(values[a], values[a]))) for a in range(k)]
    resid = 0.0
    for a in range(k):
        for b in range(k):
            if a != b:
                block = float(np.max(np.abs(inner(values[a], values[b]))))
                resid = max(resid, block / (math.sqrt(scale[a] * scale[b]) + 1e-300))
    return resid


def ref_yinv(variant, y):
    """Inverse (variant a) or right inverse y^T (y y^T)^{-1} (variant b) of
    y, or of each y of a stack, by np.linalg.inv."""
    if variant == "a":
        return np.linalg.inv(y)
    yt = np.swapaxes(y, -1, -2)
    return yt @ np.linalg.inv(y @ yt)


def ref_v_term(variant, y):
    """2 [J2, y] y^{-1} for square y, 4 J2 - 2 y J3 y^dagger for
    rectangular y, with the commutator taken by matrix products."""
    j2 = np.diag([1.0, 0.0])
    yi = ref_yinv(variant, y)
    if variant == "a":
        return 2.0 * commutator(j2, y) @ yi
    return 4.0 * j2 - 2.0 * y @ np.diag([2.0, 1.0, 0.0]) @ yi


def ref_rhs(state):
    """(y', z', z'', u') of the coupled Painleve IV system as written in
    its definition: y' = (u - 2s) y, u' = -u^2 + 2su + 4z - 2nI + V,
    z'' = 2u'z + 2uz' - 2sz' + 2[z, Jtop], Jtop = J2 (a) or 2 J2 (b)."""
    s = state.s if np.ndim(state.s) == 0 else np.asarray(state.s)[..., None, None]
    y, z, zp, u, i2 = state.y, state.z, state.zp, state.u, np.eye(2)
    jtop = np.diag([1.0, 0.0]) * (1.0 if state.variant == "a" else 2.0)
    up = -u @ u + 2.0 * s * u + 4.0 * z - 2.0 * state.n * i2 + ref_v_term(state.variant, y)
    yd = (u - 2.0 * s * i2) @ y
    zpd = 2.0 * up @ z + 2.0 * u @ zp - 2.0 * s * zp + 2.0 * commutator(z, jtop)
    return yd, zp, zpd, up


@pytest.fixture(scope="session")
def fam_a():
    return build_family(WeightFamily(kind="a", nu=1.0), nmax=12)


@pytest.fixture(scope="session")
def fam_b():
    return build_family(WeightFamily(kind="b", nu=1.0), nmax=12)


@pytest.fixture(scope="session")
def fam_scalar():
    return build_family(WeightFamily(kind="scalar"), nmax=12)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for idx in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[idx])
