"""Christoffel-Darboux kernel evaluation in every available form:
orthonormal partial sum, family-specific double contour integrals, the
generic two-factor contour form, and the single contour representations
of the polynomials themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .families import (
    MOPFamily,
    WeightFamily,
    family_constants,
    phi_all,
    tfactor,
    _monic_values,
)
from .matcore import power_conjugate
from .quadrature import (
    QuadRule,
    check_contour_ordering,
    circle_rule,
    compensated_weights,
    gauss_hermite,
    vline_rule,
)

__all__ = [
    "KernelSpec",
    "cd_sum",
    "cd_double_integral",
    "intrep_loop",
    "intrep_line",
    "reproducing_residual",
    "generic_kernel_deviation",
]


def _ratio_power(ratio: np.ndarray, n: int) -> np.ndarray:
    """ratio**n by repeated squaring; no logs, so no branch ambiguity."""
    out = np.ones_like(ratio)
    base = ratio
    k = n
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _hermite_coeffs(x: float, deg: int) -> np.ndarray:
    """Taylor coefficients h_0..h_deg of e^{2xz - z^2} in z, that is
    H_p(x)/p!, by h_p = (2x h_{p-1} - 2 h_{p-2}) / p."""
    h = np.zeros(deg + 1)
    h[0] = 1.0
    if deg >= 1:
        h[1] = 2.0 * x
    for p in range(2, deg + 1):
        h[p] = (2.0 * x * h[p - 1] - 2.0 * h[p - 2]) / p
    return h


def _laurent_data(fam: WeightFamily, n: int):
    """Laurent data (B, Bhat, dl, dr) of the two contour factors:
    bleft(z)[a, q] = B_aq z^{dl_a - dr_q} and
    bright(w)[q, b] = Bhat_qb w^{dr_q - dl_b}.  The scalar family has
    the trivial factors B = Bhat = [[1]] with exponents 0."""
    if fam.kind == "scalar":
        one, zero = np.ones((1, 1)), np.zeros(1, dtype=int)
        return one, one, zero, zero
    consts = family_constants(fam, n)
    if fam.kind == "a":
        return consts["B"], consts["Bhat"], fam.jexp, fam.jexp
    return consts["B"], consts["Bhat"], 2 * fam.jexp, np.arange(2, -1, -1)


def contour_factors(fam: WeightFamily, n: int):
    """The two matrix-valued contour factors of the double-integral
    kernel: left factor of z (N x p) and right factor of w (p x N).
    Both take a scalar or a whole node array (k,), giving (k, N, p)
    and (k, p, N) stacks."""
    bn, bhat, dl, dr = _laurent_data(fam, n)

    def bleft(z):
        return power_conjugate(dl, bn, z, dr)

    def bright(w):
        return power_conjugate(dr, bhat, w, dl)

    return bleft, bright


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate.

    form "sum" needs a built family; the double-integral forms need the
    2x2 closed-form constants; form "generic" takes two user-supplied
    matrix functions with bleft(z) @ bright(z) = I.
    """

    family: WeightFamily
    n: int
    form: str = "sum"
    bleft: Callable | None = None
    bright: Callable | None = None

    def __post_init__(self):
        if self.form not in ("sum", "doubleintA", "doubleintB", "generic"):
            raise ValueError(f"unknown kernel form {self.form!r}")
        if self.form == "generic":
            if self.bleft is None or self.bright is None:
                raise ValueError("generic form needs both contour factors")
            rng = np.random.default_rng(20260823)
            for _ in range(10):
                z = rng.normal() + 1j * rng.normal()
                if abs(z) < 0.1:
                    z = z + 0.5
                prod = np.asarray(self.bleft(z)) @ np.asarray(self.bright(z))
                if np.max(np.abs(prod - np.eye(prod.shape[0]))) > 1e-10:
                    raise ValueError("contour factors are not mutually inverse")

    def factors(self):
        if self.form == "generic":
            return self.bleft, self.bright
        return contour_factors(self.family, self.n)


def _point_pairs(x, y):
    """x and y as float arrays, checked to be two scalars or two 1-D
    arrays of equal length; also whether they were scalars."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    scalar = xs.ndim == 0 and ys.ndim == 0
    if not scalar and (xs.ndim != 1 or xs.shape != ys.shape):
        raise ValueError("x and y must be scalars or 1-D arrays of equal length")
    return xs, ys, scalar


def cd_sum(family: MOPFamily, n: int, x: float | np.ndarray, y: float | np.ndarray) -> np.ndarray:
    """Partial-sum kernel sum_{k<n} Phi_k^T(y) Phi_k(x).

    x and y are scalars, giving one (N, N) kernel value, or two 1-D
    arrays of equal length k, giving the (k, N, N) values at the point
    pairs (x_i, y_i).
    """
    if n > family.nmax + 1:
        raise ValueError("degree out of range")
    xs, ys, _ = _point_pairs(x, y)
    if n == 0:
        return np.zeros(xs.shape + (family.dim, family.dim))
    px = phi_all(family, xs, n)
    py = phi_all(family, ys, n)
    return np.einsum("k...ba,k...bc->...ac", py, px)


def cd_double_integral(
    spec: KernelSpec,
    x: float | np.ndarray,
    y: float | np.ndarray,
    circle: QuadRule | None = None,
    line: QuadRule | None = None,
) -> np.ndarray:
    """Double contour integral form of the kernel.

    Prefactor 2/(2 pi i)^2 e^{(x^2-y^2)/2} times the integral of
    bleft(z) bright(w) (w/z)^n e^{w^2-2xw-z^2+2zy}/(w-z) over the circle
    (z) and the vertical line (w).

    x and y are scalars, giving one (N, N) kernel value, or two 1-D
    arrays of equal length k, giving the (k, N, N) values at the point
    pairs (x_i, y_i).  The contour factors and the (x, y)-free core are
    built once per call, so a whole grid costs two contractions.
    """
    n = spec.n
    if n < 1:
        raise ValueError("kernel degree must be a positive integer")
    xs, ys, scalar = _point_pairs(x, y)
    xs, ys = np.atleast_1d(xs), np.atleast_1d(ys)
    if circle is None:
        circle = circle_rule(1.0)
    if line is None:
        line = vline_rule(2.0)
    check_contour_ordering(circle, line)
    bleft, bright = spec.factors()

    z, wz = circle.nodes, circle.weights
    w, ww = line.nodes, line.weights
    if spec.form == "generic":
        # user factors may accept scalars only
        bl = np.stack([np.asarray(bleft(zi), dtype=complex) for zi in z])
        br = np.stack([np.asarray(bright(wi), dtype=complex) for wi in w])
    else:
        bl = np.asarray(bleft(z), dtype=complex)  # (mz,N,p)
        br = np.asarray(bright(w), dtype=complex)  # (mw,p,N)
    mz, dim, p = bl.shape
    mw = w.shape[0]
    k = xs.shape[0]

    # (w/z)^n = w^n z^{-n} splits into the node factors, so the core
    # shared by every point is the Cauchy matrix 1/(w - z)
    core = 1.0 / (w[None, :] - z[:, None])  # (mz,mw)
    fz = wz * _ratio_power(1.0 / z, n) * np.exp(-z * z + 2.0 * z * ys[:, None])  # (k,mz)
    fw = ww * _ratio_power(w, n) * np.exp(w * w - 2.0 * xs[:, None] * w)  # (k,mw)
    left = (fz[:, None, None, :] * bl.transpose(1, 2, 0)).reshape(k * dim * p, mz) @ core
    left = left.reshape(k, dim, p, mw) * fw[:, None, None, :]
    acc = left.reshape(k * dim, p * mw) @ br.transpose(1, 0, 2).reshape(p * mw, dim)
    pref = 2.0 / (2j * np.pi) ** 2 * np.exp((xs * xs - ys * ys) / 2.0)
    out = pref[:, None, None] * acc.reshape(k, dim, dim)
    return out[0] if scalar else out


def intrep_loop(family: MOPFamily, n: int, x: float) -> np.ndarray:
    """P_n(x) T(x) via the loop integral with the closed-form constant:
    contour integral of z^{-J} C_n z^{J} e^{-z^2+2zx} dz / z^{n+1}
    (2J for the quadratic family), taken by residues at z = 0 as
    2 pi i C_ab h_{n + J_a - J_b} with the coefficients h of
    e^{2xz - z^2} (zero for a negative index)."""
    fam = family.weight
    consts = family_constants(fam, n)
    scale = 1 if fam.kind == "a" else 2
    j = scale * fam.jexp
    idx = n + j[:, None] - j[None, :]
    h = _hermite_coeffs(x, int(idx.max()))
    return 2j * np.pi * consts["C"] * np.where(idx >= 0, h[idx.clip(0)], 0.0)


def intrep_line(
    family: MOPFamily, n: int, x: float, line: QuadRule | None = None
) -> np.ndarray:
    """P_n(x) T(x) via the vertical-line integral with the closed-form
    constant: e^{x^2} integral of w^{J} D_n w^{-J} e^{w^2-2xw} w^n dw."""
    fam = family.weight
    consts = family_constants(fam, n)
    scale = 1 if fam.kind == "a" else 2
    j = scale * fam.jexp
    if line is None:
        line = vline_rule(2.0)
    w, ww = line.nodes, line.weights
    conj = power_conjugate(j, consts["D"], w)
    fw = ww * np.exp(w * w - 2.0 * x * w) * _ratio_power(w, n)
    return np.exp(x * x) * np.einsum("w,wab->ab", fw, conj)


def polynomial_times_tfactor(family: MOPFamily, n: int, x: float) -> np.ndarray:
    """Direct evaluation of P_n(x) T(x), the quantity both integral
    representations reproduce."""
    p = _monic_values(family, np.asarray(float(x)), n + 1)[0][n]
    t = tfactor(family.weight, np.asarray(float(x)))
    return family.normalizers[n] @ p @ t


def reproducing_residual(
    family: MOPFamily,
    n: int,
    y: float,
    z: float,
    quad: QuadRule | None = None,
) -> np.ndarray:
    """Projection identity: integral over x of K_n(x,y) K_n(z,x) minus
    K_n(z,y); vanishes because the kernel is the orthogonal projector
    onto the first n orthonormal functions."""
    if quad is None:
        quad = gauss_hermite(max(200, 3 * (n + 1)))
    wts = compensated_weights(quad)
    xs = quad.nodes.real
    if n == 0:
        return np.zeros((family.dim, family.dim))
    px = phi_all(family, xs, n)  # (n, m, N, N)
    py = phi_all(family, np.asarray(float(y)), n)
    pz = phi_all(family, np.asarray(float(z)), n)
    kxy = np.einsum("kba,kibc->iac", py, px)  # K(x_i, y)
    kzx = np.einsum("kiba,kbc->iac", px, pz)  # K(z, x_i)
    integ = np.einsum("i,iab,ibc->ac", wts, kxy, kzx)
    kzy = np.einsum("kba,kbc->ac", py, pz)
    return integ - kzy


def generic_kernel_deviation(
    spec: KernelSpec,
    family: MOPFamily,
    grid,
    circle: QuadRule | None = None,
    line: QuadRule | None = None,
) -> float:
    """Max deviation of the double-integral kernel with the supplied
    contour factors from the partial-sum kernel over a grid of (x, y)
    points; harness for candidate factor constructions.  The whole grid
    goes through one call of each kernel form."""
    pts = np.asarray(grid, dtype=float).reshape(-1, 2)
    kint = cd_double_integral(spec, pts[:, 0], pts[:, 1], circle=circle, line=line)
    ksum = cd_sum(family, spec.n, pts[:, 0], pts[:, 1])
    return float(np.max(np.abs(kint - ksum)))
