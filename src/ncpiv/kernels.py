"""Christoffel-Darboux kernel evaluation in both forms, orthonormal
partial sum and double contour integral, and the single contour
representations of the polynomials themselves.
"""

from __future__ import annotations

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
from .quadrature import default_contours, default_core

__all__ = [
    "cd_sum",
    "cd_double_integral",
    "intrep_loop",
    "intrep_line",
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


def _hermite_coeffs(x, deg: int) -> np.ndarray:
    """Taylor coefficients h_0..h_deg of e^{2xz - z^2} in z, that is
    H_p(x)/p!, by h_p = (2x h_{p-1} - 2 h_{p-2}) / p.  A scalar x gives
    (deg + 1,), an array x the coefficients (deg + 1, *x.shape)."""
    x = np.asarray(x, dtype=float)
    h = np.zeros((deg + 1,) + x.shape)
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


def cd_double_integral(weight: WeightFamily, n: int, x: float | np.ndarray, y: float | np.ndarray) -> np.ndarray:
    """Double contour integral form of the kernel.

    Prefactor 2/(2 pi i)^2 e^{(x^2-y^2)/2} times the integral of
    bleft(z) bright(w) (w/z)^n e^{w^2-2xw-z^2+2zy}/(w-z) over the circle
    (z) and the vertical line (w) of quadrature.default_contours().

    x and y are scalars, giving one (N, N) kernel value, or two 1-D
    arrays of equal length k, giving the (k, N, N) values at the point
    pairs (x_i, y_i).  The contour factors are built once per call and
    the (x, y)-free core once per process (quadrature.default_core), so
    a whole grid costs two contractions.
    """
    if n < 1:
        raise ValueError("kernel degree must be a positive integer")
    xs, ys, scalar = _point_pairs(x, y)
    xs, ys = np.atleast_1d(xs), np.atleast_1d(ys)
    bleft, bright = contour_factors(weight, n)
    circle, line = default_contours()
    z, wz = circle.nodes, circle.weights
    w, ww = line.nodes, line.weights
    bl = np.asarray(bleft(z), dtype=complex)  # (mz,N,p)
    br = np.asarray(bright(w), dtype=complex)  # (mw,p,N)
    mz, dim, p = bl.shape
    mw = w.shape[0]
    k = xs.shape[0]

    # (w/z)^n = w^n z^{-n} splits into the node factors, so the core
    # shared by every point, degree and family is the Cauchy matrix
    # 1/(w - z) of the two rules
    core = default_core()  # (mz,mw)
    fz = wz * _ratio_power(1.0 / z, n) * np.exp(-z * z + 2.0 * z * ys[:, None])  # (k,mz)
    fw = ww * _ratio_power(w, n) * np.exp(w * w - 2.0 * xs[:, None] * w)  # (k,mw)
    left = (fz[:, None, None, :] * bl.transpose(1, 2, 0)).reshape(k * dim * p, mz) @ core
    left = left.reshape(k, dim, p, mw) * fw[:, None, None, :]
    acc = left.reshape(k * dim, p * mw) @ br.transpose(1, 0, 2).reshape(p * mw, dim)
    pref = 2.0 / (2j * np.pi) ** 2 * np.exp((xs * xs - ys * ys) / 2.0)
    out = pref[:, None, None] * acc.reshape(k, dim, dim)
    return out[0] if scalar else out


def _points(x):
    """x as a 1-D float array of evaluation points, and whether it was a
    scalar (then the k = 1 case, to be returned without its axis)."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("x must be a scalar or a 1-D array")
    return np.atleast_1d(xs), xs.ndim == 0


def _degrees(n):
    """n as a 1-D integer array of degrees, and whether it was one
    degree (then the d = 1 case, to be returned without its axis)."""
    ns = np.asarray(n)
    if ns.ndim > 1 or ns.dtype.kind not in "iu":
        raise ValueError("n must be an integer or a 1-D array of integers")
    return np.atleast_1d(ns), ns.ndim == 0


def _squeeze(out: np.ndarray, one_degree: bool, one_point: bool) -> np.ndarray:
    """A (d, k, N, N) stack without the axes of a single degree or point."""
    if one_point:
        out = out[:, 0]
    return out[0] if one_degree else out


# The three integral-representation evaluators below share their shapes:
# n is one degree or a 1-D array of d degrees, x one point or a 1-D array
# of k points, and the result is (d, k, N, N) without the axis of a
# single degree or point.  All degrees come from one pass: one
# recurrence, one coefficient table, one exponential on the line.


def intrep_loop(family: MOPFamily, n: int | np.ndarray, x: float | np.ndarray) -> np.ndarray:
    """P_n(x) T(x) via the loop integral with the closed-form constant:
    contour integral of z^{-J} C_n z^{J} e^{-z^2+2zx} dz / z^{n+1}
    (2J for the quadratic family), taken by residues at z = 0 as
    2 pi i C_ab h_{n + J_a - J_b} with the coefficients h of
    e^{2xz - z^2} (zero for a negative index)."""
    xs, one_point = _points(x)
    ns, one_degree = _degrees(n)
    fam = family.weight
    consts = np.stack([family_constants(fam, k)["C"] for k in ns.tolist()])  # (d, N, N)
    scale = 1 if fam.kind == "a" else 2
    j = scale * fam.jexp
    idx = ns[:, None, None] + j[:, None] - j[None, :]  # (d, N, N)
    h = _hermite_coeffs(xs, int(idx.max()))  # (deg + 1, k)
    vals = np.moveaxis(h[idx.clip(0)], -1, 1)  # (d, k, N, N)
    out = 2j * np.pi * consts[:, None] * np.where(idx[:, None] >= 0, vals, 0.0)
    return _squeeze(out, one_degree, one_point)


def intrep_line(family: MOPFamily, n: int | np.ndarray, x: float | np.ndarray) -> np.ndarray:
    """P_n(x) T(x) via the vertical-line integral with the closed-form
    constant: e^{x^2} integral of w^{J} D_n w^{-J} e^{w^2-2xw} w^n dw,
    on default_contours()'s line."""
    xs, one_point = _points(x)
    ns, one_degree = _degrees(n)
    fam = family.weight
    consts = np.stack([family_constants(fam, k)["D"] for k in ns.tolist()])  # (d, N, N)
    scale = 1 if fam.kind == "a" else 2
    j = scale * fam.jexp
    line = default_contours()[1]
    w, ww = line.nodes, line.weights
    conj = power_conjugate(j, consts[:, None], w)  # (d, mw, N, N)
    powers = np.stack([_ratio_power(w, k) for k in ns.tolist()])  # (d, mw)
    fw = (ww * np.exp(w * w - 2.0 * xs[:, None] * w)) * powers[:, None, :]  # (d, k, mw)
    # one sum over the nodes per point and degree: the quadrature sum
    # cancels heavily, and this keeps each sum's order that of a call
    # for one point and one degree
    out = np.exp(xs * xs)[:, None, None] * np.einsum("dkw,dwab->dkab", fw, conj)
    return _squeeze(out, one_degree, one_point)


def polynomial_times_tfactor(family: MOPFamily, n: int | np.ndarray, x: float | np.ndarray) -> np.ndarray:
    """Direct evaluation of P_n(x) T(x), the quantity both integral
    representations reproduce."""
    xs, one_point = _points(x)
    ns, one_degree = _degrees(n)
    p = np.stack(_monic_values(family, xs, int(ns.max()) + 1)[0])[ns]  # (d, k, N, N)
    out = family.normalizers[ns][:, None] @ p @ tfactor(family.weight, xs)
    return _squeeze(out, one_degree, one_point)


def generic_kernel_deviation(family: MOPFamily, n: int, grid) -> float:
    """Max deviation of the double-integral kernel from the partial-sum
    kernel of degree n over a grid of (x, y) points.  The whole grid
    goes through one call of each kernel form."""
    pts = np.asarray(grid, dtype=float).reshape(-1, 2)
    kint = cd_double_integral(family.weight, n, pts[:, 0], pts[:, 1])
    ksum = cd_sum(family, n, pts[:, 0], pts[:, 1])
    return float(np.max(np.abs(kint - ksum)))
