"""Gap determinants det(Id - chi_s K_n) of the Christoffel-Darboux
kernel by two independent routes (finite-rank Gram reduction and contour
Nystrom), analytic log-derivatives, and the scalar sigma-PIV residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .families import MOPFamily, phi_all, phi_deriv, phi_deriv2_all
from .kernels import _ratio_power, contour_factors
from scipy.linalg import qr, solve_triangular

from .quadrature import (
    QuadRule,
    check_contour_ordering,
    circle_rule,
    gauss_hermite,
    lower_tail_rule,
    tail_integral,
    vline_rule,
)

__all__ = [
    "GramSystem",
    "build_gram",
    "upper_tail_gram",
    "gram_det",
    "log_deriv",
    "sigma_piv_residual",
    "contour_det",
]

_DET_FLOOR = 1e-300
_NYSTROM_BUDGET = 3000
_IMAG_TOL = 1e-9
_FD_STEP = 1e-4


@dataclass(frozen=True)
class GramSystem:
    """Finite-rank data at a cut point s.  C is an upper-triangular
    square root (H = C^T C) of the lower-tail Gram H with blocks
    int_{-inf}^s Phi_j Phi_k^T, from a QR factorization of the weighted
    sample matrix; B = H' has blocks Phi_j(s) Phi_k^T(s), and Bp, Bpp
    are its first and second s-derivatives.

    H is computed directly by panels rather than as I - G from the
    upper-tail Gram G: for strongly negative s the entries of I - G are
    tiny and would be known only to absolute (not relative) precision,
    which ruins the resolvent.  Working through C halves the effective
    condition number of every resolvent solve."""

    s: float
    n: int
    B: np.ndarray
    Bp: np.ndarray
    Bpp: np.ndarray
    C: np.ndarray


def build_gram(family: MOPFamily, n: int, s: float) -> GramSystem:
    if n > family.nmax:
        raise ValueError("degree out of range")
    dim = family.dim

    # lower-tail Gram through its rectangular square root: rows indexed
    # by (panel node, matrix column), so H = F^T F exactly
    rule = lower_tail_rule(s)
    p = phi_all(family, rule.nodes, n)  # (n, m, N, N)
    f = (p * np.sqrt(rule.weights)[None, :, None, None]).transpose(1, 3, 0, 2)
    f = f.reshape(rule.nodes.size * dim, n * dim)
    c = np.linalg.qr(f, mode="r")

    ps = phi_all(family, np.asarray(float(s)), n)  # (n, N, N)
    dps = np.stack([phi_deriv(family, k, np.asarray(float(s))) for k in range(n)])
    ddps = phi_deriv2_all(family, np.asarray(float(s)), n)
    b = np.einsum("jab,kcb->jakc", ps, ps).reshape(n * dim, n * dim)
    bp = (
        np.einsum("jab,kcb->jakc", dps, ps) + np.einsum("jab,kcb->jakc", ps, dps)
    ).reshape(n * dim, n * dim)
    bpp = (
        np.einsum("jab,kcb->jakc", ddps, ps)
        + 2.0 * np.einsum("jab,kcb->jakc", dps, dps)
        + np.einsum("jab,kcb->jakc", ps, ddps)
    ).reshape(n * dim, n * dim)
    return GramSystem(s=s, n=n, B=b, Bp=bp, Bpp=bpp, C=c)


def upper_tail_gram(family: MOPFamily, n: int, s: float, full_rule: QuadRule | None = None) -> np.ndarray:
    """Upper-tail Gram G(s) with blocks int_s^inf Phi_j Phi_k^T, as an
    (nN, nN) matrix: the whole-line Gram (Gauss-Hermite) minus the
    lower tail.  Not used by the determinant or the log-derivatives."""
    if n > family.nmax:
        raise ValueError("degree out of range")
    dim = family.dim

    def integrand(xs):
        p = phi_all(family, np.asarray(xs, dtype=float), n)  # (n, m, N, N)
        return np.einsum("jiab,kicb->ijakc", p, p, optimize=True)

    if full_rule is None:
        full_rule = gauss_hermite(max(200, 3 * (n + 1)))
    g = tail_integral(integrand, s, full_rule=full_rule)  # (n, N, n, N)
    return g.reshape(n * dim, n * dim)


def gram_det(family: MOPFamily, n: int, s: float, system: GramSystem | None = None) -> float:
    """det(I_{nN} - G(s)): the gap probability that no particle of the
    n-point ensemble lies in (s, inf).

    Evaluated as det(H) of the lower-tail Gram, which keeps full
    relative precision even when the gap probability is tiny."""
    if system is None:
        system = build_gram(family, n, s)
    logabs = _log_det(system)
    return 0.0 if logabs == -np.inf else float(np.exp(logabs))


def _log_det(system: GramSystem) -> float:
    """log det H from the triangular factor; -inf for a singular factor."""
    d = np.abs(np.diag(system.C))
    if np.any(d == 0.0):
        return -np.inf
    return float(2.0 * np.sum(np.log(d)))


def _whiten(system: GramSystem, mat: np.ndarray) -> np.ndarray:
    """C^{-T} mat C^{-1}: the matrix seen through the inverse Gram,
    computed by two triangular solves so that the error scales with
    cond(C) = sqrt(cond(H)) rather than cond(H)."""
    t = solve_triangular(system.C, mat, trans="T", lower=False)
    return solve_triangular(system.C, t.T, trans="T", lower=False).T


def log_deriv(
    family: MOPFamily, n: int, s: float, order: int = 1, system: GramSystem | None = None
) -> float:
    """log det (order 0), R(s) = d/ds log det (order 1), R'(s)
    (order 2) or R''(s) (order 3), all from the resolvent of the Gram
    system."""
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be 0, 1, 2 or 3")
    if system is None:
        system = build_gram(family, n, s)
    logabs = _log_det(system)
    if logabs <= np.log(_DET_FLOOR):
        raise ValueError("determinant vanishes")
    if order == 0:
        return logabs
    cb = _whiten(system, system.B)
    if order == 1:
        return float(np.trace(cb))
    if order == 2:
        # d/ds tr(H^{-1} B) = -tr((H^{-1}B)^2) + tr(H^{-1}B'), and
        # tr((H^{-1}B)^2) = ||C^{-T} B C^{-1}||_F^2 by symmetry of B
        return float(-np.sum(cb * cb.T) + np.trace(_whiten(system, system.Bp)))
    # with M = H^{-1}B, N = H^{-1}B' and M' = N - M^2:
    # R'' = 2 tr(M^3) - 3 tr(M N) + tr(H^{-1}B''), each trace taken on
    # the whitened C^{-T} X C^{-1}, which is similar to H^{-1} X
    cn = _whiten(system, system.Bp)
    return float(
        2.0 * np.sum((cb @ cb) * cb.T) - 3.0 * np.sum(cb * cn.T) + np.trace(_whiten(system, system.Bpp))
    )


def second_log_deriv(family: MOPFamily, n: int, s: float, step: float = _FD_STEP) -> float:
    """R''(s) by one central difference of the analytic R'(s); an
    independent check of log_deriv(..., order=3)."""
    hi = log_deriv(family, n, s + step, order=2)
    lo = log_deriv(family, n, s - step, order=2)
    return (hi - lo) / (2.0 * step)


@lru_cache(maxsize=None)
def _hermite_monomials(n: int) -> tuple:
    """Monomial coefficients (ascending) of the first n orthonormal
    Hermite polynomials, as mpmath floats."""
    polys = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(2)]]
    while len(polys) < n:
        j = len(polys) - 1
        nxt = [mp.mpf(0)] * (j + 2)
        for i, c in enumerate(polys[j]):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(polys[j - 1]):
            nxt[i] -= 2 * j * c
        polys.append(nxt)
    out = []
    for j in range(n):
        norm = 1 / mp.sqrt(mp.mpf(2) ** j * mp.factorial(j) * mp.sqrt(mp.pi))
        out.append(tuple(c * norm for c in polys[j]))
    return tuple(out)


def _gauss_moments(s, mmax: int) -> list:
    """J_m = integral of x^m e^{-x^2} over (-inf, s], m = 0..mmax, by
    the downward-in-degree recurrence J_m = -s^{m-1}e^{-s^2}/2
    + (m-1) J_{m-2} / 2."""
    e = mp.e ** (-s * s)
    moments = [mp.sqrt(mp.pi) * (1 + mp.erf(s)) / 2]
    if mmax >= 1:
        moments.append(-e / 2)
    for m in range(2, mmax + 1):
        moments.append(-(s ** (m - 1)) * e / 2 + (m - 1) * moments[m - 2] / 2)
    return moments


def _poly_deriv(coeffs: tuple) -> tuple:
    """Derivative of a polynomial given by ascending coefficients."""
    return tuple((i + 1) * c for i, c in enumerate(coeffs[1:])) or (mp.mpf(0),)


def _scalar_gram(n: int, s):
    """The lower-tail Gram H of the scalar family in closed form (erf
    plus e^{-s^2} times a polynomial), at the working mpmath precision."""
    polys = _hermite_monomials(n)
    moments = _gauss_moments(s, 2 * (n - 1))
    gram = mp.matrix(n)
    for j in range(n):
        for k in range(j, n):
            conv = [mp.mpf(0)] * (len(polys[j]) + len(polys[k]) - 1)
            for a, ca in enumerate(polys[j]):
                for b, cb in enumerate(polys[k]):
                    conv[a + b] += ca * cb
            v = mp.fsum(c * moments[m] for m, c in enumerate(conv))
            gram[j, k] = gram[k, j] = v
    return gram


def _scalar_log_derivs(n: int, s):
    """R(s), R'(s) and R''(s) for the scalar family at extended precision.

    The lower-tail Gram H is evaluated in closed form (_scalar_gram);
    the cut matrix B = H' = psi psi^T is rank one, so with
    x = H^{-1} psi and y = H^{-1} psi'

        R = psi^T x,  R' = 2 psi'^T x - R^2,
        R'' = 2 psi''^T x + 2 psi'^T y - 3 R R' - R^3,

    from one LU factorization of H.  Extended precision is essential:
    cond(H) grows past 1e12 for n = 5 near s = -3, which double
    arithmetic cannot absorb at the target residual tolerance."""
    polys = _hermite_monomials(n)
    gram = _scalar_gram(n, s)
    env = mp.e ** (-s * s / 2)
    psi, psip, psipp = mp.matrix(n, 1), mp.matrix(n, 1), mp.matrix(n, 1)
    for j, p in enumerate(polys):
        # psi_j = p_j e^{-s^2/2}: psi' = (p' - s p) e^{-s^2/2} and
        # psi'' = (p'' - 2 s p' + (s^2 - 1) p) e^{-s^2/2}
        dp = _poly_deriv(p)
        v, dv, ddv = (mp.polyval(list(reversed(c)), s) for c in (p, dp, _poly_deriv(dp)))
        psi[j] = v * env
        psip[j] = (dv - s * v) * env
        psipp[j] = (ddv - 2 * s * dv + (s * s - 1) * v) * env
    with mp.extraprec(10):
        lu, piv = mp.mp.LU_decomp(gram)
        x = mp.mp.U_solve(lu, mp.mp.L_solve(lu, psi, piv))
        y = mp.mp.U_solve(lu, mp.mp.L_solve(lu, psip, piv))
    r = mp.fdot(psi, x)
    rp = -r * r + 2 * mp.fdot(psip, x)
    rpp = 2 * mp.fdot(psipp, x) + 2 * mp.fdot(psip, y) - 3 * r * rp - r**3
    return r, rp, rpp


_MP_DPS = 40


def sigma_piv_residual(family: MOPFamily, n: int, s: float) -> float:
    """Left-hand side of the sigma-form Painleve IV relation
    (R'')^2 + 4 (R')^2 (R' + 2n) - 4 (s R' - R)^2 for the scalar
    (Gaussian Hermite) family, with R, R', R'' in closed form at 40
    digits (one Gram system, no finite difference)."""
    if family.dim != 1:
        raise ValueError("scalar family required")
    if n > family.nmax:
        raise ValueError("degree out of range")
    with mp.workdps(_MP_DPS):
        sm = mp.mpf(s)
        r, rp, rpp = _scalar_log_derivs(n, sm)
        resid = rpp**2 + 4 * rp**2 * (rp + 2 * n) - 4 * (sm * rp - r) ** 2
        return float(resid)


def contour_det(
    family: MOPFamily,
    n: int,
    s: float,
    circle: QuadRule | None = None,
    line: QuadRule | None = None,
) -> float:
    """Gap determinant via the composed contour kernel: Nystrom
    discretization on the vertical line of

        K(lam, w) = oint dz/(2 pi i)^2 e^{w^2 - z^2 + 2 s (z - lam)}
                    (w/z)^n Bfac(z) Bhat(w) / ((lam - z)(w - z)),

    returning det(Id - [K(lam_i, lam_j) w_j]).  Equals the Gram-route
    determinant.  The kernel factors through the circle nodes, so the
    determinant is taken of a reduced matrix with N times as many rows
    as the circle has nodes (128 for the 2 x 2 families and 64 for the
    scalar one on the default 64-node circle), never of the full
    Nystrom matrix.
    """
    if n < 1:
        raise ValueError("kernel degree must be a positive integer")
    if circle is None:
        # tight contours keep the Nystrom entries O(1) -- the entry scale
        # grows like e^{2|s|(r + ell)}, which would swamp small gap
        # probabilities at negative s with cancellation noise.  The
        # trapezoid error decays like (radius / line abscissa)^m, here
        # (0.25 / 0.5)^64 ~ 5e-20; 48 nodes already lose scan rows
        circle = circle_rule(0.25, m=64)
    if line is None:
        # truncation long enough that the balanced row/column factors
        # e^{lam^2/2 - s lam} have decayed at the endpoints
        ell = 0.5
        line = vline_rule(ell, T=np.sqrt(ell * ell + 4.0 * abs(s) * ell + 80.0))
    check_contour_ordering(circle, line)
    dim = family.dim
    mline = line.nodes.size
    if mline * dim > _NYSTROM_BUDGET:
        raise ValueError("budget exceeded")

    z, wz = circle.nodes, circle.weights
    lam, wl = line.nodes, line.weights
    if family.weight.kind == "scalar":
        # the contour factors degenerate to the identity
        bl = np.ones((z.size, 1, 1), dtype=complex)
        br = np.ones((mline, 1, 1), dtype=complex)
    else:
        bleft, bright = contour_factors(family.weight, n)
        bl = bleft(z)  # (mz, N, p)
        br = bright(lam)  # (ml, p, N)

    cz = wz * np.exp(-z * z + 2.0 * s * z) / _ratio_power(z, n) / (2j * np.pi) ** 2
    # split the outer exponentials symmetrically between the row and
    # column factors (a diagonal similarity), keeping entries balanced
    u = np.exp(-s * lam + 0.5 * lam * lam)  # left-variable factor
    v = wl * np.exp(0.5 * lam * lam - s * lam) * _ratio_power(lam, n)
    a = 1.0 / (lam[:, None] - z[None, :])  # (ml, mz)

    # The Nystrom matrix [K(lam_i, lam_j) w_j] factors through the circle
    # nodes as U V, with U[(a,i),(k,q)] = u_i a_ik cz_k bl_k[a,q] and
    # V[(k,q),(b,j)] = a_jk v_j br_j[q,b] (matrix component before line
    # node, a permutation similarity).  Each row block of U is the same
    # M = diag(u) [a_ik] times a diagonal in k, so the thin QR M = Q R
    # gives U = (I_N kron Q) S, and by Sylvester's identity
    # det(I - U V) = det(I - S V (I_N kron Q)), of size N min(ml, mz).
    # S V = R Y with Y[k,(a,b,j)] = cz_k a_jk v_j (bl_k br_j)[a,b] is
    # summed over the circle nodes before the projection onto Q: taken
    # the other way round, S (V Q), or as the plain det(I - V U), the
    # circle sum, which cancels terms of size |z|^{-n}, costs relative
    # accuracy at small determinants.
    q, r = qr(u[:, None] * a, mode="economic", check_finite=False)
    rank = r.shape[0]
    p = bl.shape[2]
    blbr = bl.reshape(z.size * dim, p) @ br.transpose(1, 2, 0).reshape(p, dim * mline)
    y = blbr.reshape(z.size, dim * dim, mline) * ((cz[:, None] * a.T) * v)[:, None, :]
    sv = r @ y.reshape(z.size, dim * dim * mline)  # (l, a, b, j)
    red = (sv.reshape(rank * dim * dim, mline) @ q).reshape(rank, dim, dim, rank)
    red = red.transpose(1, 0, 2, 3).reshape(dim * rank, dim * rank)
    sign, logabs = np.linalg.slogdet(np.eye(dim * rank) - red)
    det = sign * np.exp(logabs)
    if abs(det.imag) > _IMAG_TOL * (1.0 + abs(det.real)):
        raise ValueError("determinant has non-negligible imaginary part")
    return float(det.real)
