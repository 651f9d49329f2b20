"""Airy function Ai by Maclaurin series and asymptotic expansions, the
Airy kernel, and the edge-scaling experiment that collapses the matrix
Christoffel-Darboux kernels onto the scalar Airy kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import MOPFamily
from .kernels import cd_sum

__all__ = [
    "AiryValue",
    "airy_ai",
    "airy_kernel",
    "scaling_limit_error",
]

WINDOW = (-12.0, 20.0)
_SERIES_NEG = -7.5
_SERIES_POS = 6.0
_DIAG_SWITCH = 1e-6
_ORTHO_LIMIT = 1e-8

# Ai(0) and -Ai'(0)
_C1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_C2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)


@dataclass(frozen=True)
class AiryValue:
    x: float
    ai: float
    aip: float


def _series(x: float) -> tuple[float, float]:
    """Maclaurin evaluation of (Ai, Ai'): Ai = c1 f - c2 g with
    f = sum 3^k (1/3)_k x^{3k}/(3k)!, g = sum 3^k (2/3)_k x^{3k+1}/(3k+1)!."""
    x3 = x * x * x
    f, fp = 1.0, 0.0  # f and f'
    g, gp = x, 1.0
    tf, tg = 1.0, x
    for k in range(1, 200):
        tf *= x3 / ((3 * k) * (3 * k - 1))
        tg *= x3 / ((3 * k + 1) * (3 * k))
        f += tf
        g += tg
        if x != 0.0:
            fp += 3 * k * tf / x
            gp += (3 * k + 1) * tg / x
        if abs(tf) + abs(tg) < 1e-18 * (abs(f) + abs(g) + 1.0):
            break
    ai = _C1 * f - _C2 * g
    aip = _C1 * fp - _C2 * gp
    return ai, aip


def _asymptotic_coeffs(max_terms: int = 60):
    u = [1.0]
    v = [1.0]
    for k in range(1, max_terms):
        uk = u[-1] * (3 * k - 0.5) * (3 * k - 1.5) * (3 * k - 2.5) / (54.0 * k * (k - 0.5))
        u.append(uk)
        v.append(-(6 * k + 1) / (6 * k - 1) * uk)
    return np.array(u), np.array(v)


_UK, _VK = _asymptotic_coeffs()


def _asymptotic_sums(zeta: float):
    """Optimally truncated sums S_u^± = sum (-/+1)^k u_k zeta^{-k} and the
    even/odd splits used on the oscillatory side."""
    terms_u = _UK * zeta ** (-np.arange(_UK.size))
    terms_v = _VK * zeta ** (-np.arange(_VK.size))
    # truncate where the terms stop decreasing
    cut = 1
    while cut < terms_u.size and abs(terms_u[cut]) < abs(terms_u[cut - 1]):
        cut += 1
    return terms_u[:cut], terms_v[:cut]


def _asymptotic_pos(x: float) -> tuple[float, float]:
    zeta = (2.0 / 3.0) * x**1.5
    tu, tv = _asymptotic_sums(zeta)
    signs = (-1.0) ** np.arange(tu.size)
    su = float(np.sum(signs * tu))
    sv = float(np.sum(signs * tv))
    pref = math.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    ai = pref * su / x**0.25
    aip = -pref * x**0.25 * sv
    return ai, aip


def _asymptotic_neg(x: float) -> tuple[float, float]:
    t = -x
    zeta = (2.0 / 3.0) * t**1.5
    tu, tv = _asymptotic_sums(zeta)
    k = np.arange(tu.size)
    signs = (-1.0) ** (k // 2)
    even_u = float(np.sum(signs[::2] * tu[::2]))
    odd_u = float(np.sum(signs[1::2] * tu[1::2]))
    even_v = float(np.sum(signs[::2] * tv[::2]))
    odd_v = float(np.sum(signs[1::2] * tv[1::2]))
    c, s = math.cos(zeta - math.pi / 4.0), math.sin(zeta - math.pi / 4.0)
    ai = (c * even_u + s * odd_u) / (math.sqrt(math.pi) * t**0.25)
    aip = t**0.25 * (s * even_v - c * odd_v) / math.sqrt(math.pi)
    return ai, aip


def airy_ai(x: float) -> AiryValue:
    """Ai(x) and Ai'(x), absolute error below 1e-10 on [-12, 20].

    Maclaurin series on [-7.5, 6], asymptotic expansions beyond.
    """
    x = float(x)
    if not WINDOW[0] <= x <= WINDOW[1]:
        raise ValueError("argument outside supported window")
    if _SERIES_NEG <= x <= _SERIES_POS:
        ai, aip = _series(x)
    elif x > _SERIES_POS:
        ai, aip = _asymptotic_pos(x)
    else:
        ai, aip = _asymptotic_neg(x)
    return AiryValue(x=x, ai=ai, aip=aip)


def airy_kernel(x: float, y: float) -> float:
    """Airy kernel (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y), with the
    diagonal limit Ai'(x)^2 - x Ai(x)^2 near the diagonal."""
    ax, ay = airy_ai(x), airy_ai(y)
    if abs(x - y) < _DIAG_SWITCH:
        m = 0.5 * (x + y)
        am = airy_ai(m)
        return am.aip**2 - m * am.ai**2
    return (ax.ai * ay.aip - ax.aip * ay.ai) / (x - y)


def scaling_limit_error(family: MOPFamily, n: int, box_grid) -> dict:
    """Edge-rescaled kernel versus the Airy kernel times the identity.

    Evaluates (1/(sqrt2 n^{1/6})) K_n at arguments sqrt(2n) + x/(sqrt2
    n^{1/6}) over the (x, y) grid and reports the max-norm deviation
    from K_Ai(x, y) I_N (sup_error) and the largest off-diagonal entry
    (offdiag_max).
    """
    if n > 64:
        raise ValueError("degree beyond stability budget")
    if n > family.nmax:
        raise ValueError("degree out of range")
    if family.ortho_residual > _ORTHO_LIMIT:
        raise ValueError("orthogonality residual too large for the scaling experiment")
    pts = np.asarray(box_grid, dtype=float).reshape(-1, 2)
    if not np.all((-2.0 <= pts) & (pts <= 2.0)):
        raise ValueError("grid point outside the supported box")
    scale = math.sqrt(2.0) * n ** (1.0 / 6.0)
    shift = math.sqrt(2.0 * n)
    k = cd_sum(family, n, shift + pts[:, 0] / scale, shift + pts[:, 1] / scale) / scale
    target = np.array([airy_kernel(x, y) for x, y in pts])[:, None, None] * np.eye(family.dim)
    offdiag = k[:, ~np.eye(family.dim, dtype=bool)]
    return {
        "sup_error": float(np.max(np.abs(k - target), initial=0.0)),
        "offdiag_max": float(np.max(np.abs(offdiag), initial=0.0)),
    }
