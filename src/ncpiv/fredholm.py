"""Gap determinants det(Id - chi_s K_n) of the Christoffel-Darboux
kernel by two independent routes (finite-rank Gram reduction and contour
Nystrom), analytic log-derivatives, and the scalar sigma-PIV residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .families import MOPFamily, _phi_jet, phi_all
from .kernels import _hermite_coeffs, _laurent_data
from .quadrature import (
    QuadRule,
    check_contour_ordering,
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

    ps, dps, ddps = _phi_jet(family, float(s), n, 2)  # each (n, N, N)
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
    # imported on first use: loading scipy.linalg adds about 28 MB and a
    # quarter second to the start of every command, and only this needs it
    from scipy.linalg import solve_triangular

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
    determinant.  The loop integral is taken by residues, so the
    determinant is taken of a reduced matrix of N (n - min e) rows
    (n for the scalar family, 2 (n + 1) for kind a, 2 (n + 2) for
    kind b), never of the full Nystrom matrix.  A given circle only
    certifies that z = 0 is the one pole inside the loop.
    """
    if n < 1:
        raise ValueError("kernel degree must be a positive integer")
    if line is None:
        # truncation long enough that e^{lam^2 - 2 s lam} has decayed at
        # the endpoints
        ell = 0.5
        line = vline_rule(ell, T=np.sqrt(ell * ell + 4.0 * abs(s) * ell + 80.0))
    if circle is not None:
        check_contour_ordering(circle, line)
    elif np.min(line.nodes.real) <= 0.0:
        raise ValueError("contours intersect ordering")
    dim = family.dim
    lam, wl = line.nodes, line.weights
    if lam.size * dim > _NYSTROM_BUDGET:
        raise ValueError("budget exceeded")

    # Both contour factors are Laurent monomials, Bfac(z)[a, q] =
    # B_aq z^{e_aq} and Bhat(w)[q, b] = Bhat_qb w^{-e_bq}.  The line
    # nodes lie outside the loop, so with 1/(lam - z) = sum_alpha
    # z^alpha lam^{-alpha-1} the loop integral is the residue at z = 0,
    # a finite sum over the coefficients h_p of e^{2sz - z^2}, and the
    # Nystrom matrix factors as L Chat R with
    #     Chat[(a,alpha),(q,beta)] = B_aq h[n - 1 - e_aq - alpha - beta],
    #     (R L)[(q,beta),(a,alpha)] = Bhat_qa mom[n - 2 - e_aq - alpha - beta],
    # where mom[k] = sum_j lam_j^k w_j e^{lam_j^2 - 2 s lam_j} / (2 pi i)
    # are moments on the line; det(I - L Chat R) = det(I - Chat (R L)).
    bn, bhat, dl, dr = _laurent_data(family.weight, n)
    e = dl[:, None] - dr[None, :]  # (N, p)
    size = n - int(e.min())
    h = _hermite_coeffs(s, size - 1)
    ab = np.add.outer(np.arange(size), np.arange(size))
    hidx = n - 1 - e[:, None, :, None] - ab[None, :, None, :]  # (a, alpha, q, beta)
    chat = bn[:, None, :, None] * np.where(hidx >= 0, h[hidx.clip(0)], 0.0)
    midx = n - 2 - e.T[:, None, :, None] - ab[None, :, None, :]  # (q, beta, a, alpha)
    kmin = int(midx.min())
    t = wl * np.exp(lam * lam - 2.0 * s * lam) / (2j * np.pi)
    mom = lam[None, :] ** np.arange(kmin, int(midx.max()) + 1)[:, None] @ t
    rl = bhat[:, None, :, None] * mom[midx - kmin]
    rows = dim * size
    red = chat.reshape(rows, -1) @ rl.reshape(-1, rows)
    sign, logabs = np.linalg.slogdet(np.eye(rows) - red)
    det = sign * np.exp(logabs)
    if abs(det.imag) > _IMAG_TOL * (1.0 + abs(det.real)):
        raise ValueError("determinant has non-negligible imaginary part")
    return float(det.real)
