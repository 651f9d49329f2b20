"""Gap determinants det(Id - chi_s K_n) of the Christoffel-Darboux
kernel by two independent routes (finite-rank Gram reduction and contour
Nystrom), analytic log-derivatives, and the scalar sigma-PIV residual.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .families import MOPFamily, _phi_jet, phi_all
from .kernels import _laurent_data
from .quadrature import PANEL_ORDER, TAIL_DEPTH, panel_rule

__all__ = [
    "GramSystem",
    "VANISHES",
    "gram_stacks",
    "build_grams",
    "build_gram",
    "gram_dets",
    "gram_det",
    "resolvable",
    "log_deriv",
    "log_derivs",
    "sigma_piv_residual",
    "contour_dets",
    "contour_det",
]

# log det H below which the determinant vanishes (det H < 1e-300)
_LOG_DET_FLOOR = np.log(1e-300)
VANISHES = "determinant vanishes"
# unit roundoff of double arithmetic
_U = 2.0**-53
# largest running-error estimate of log det at which the contour route
# prints its determinant
_EST_TOL = 1e-8
# largest log|det| whose exponential is a finite double
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))
_FD_STEP = 1e-4
# most lower-tail nodes that one evaluation of Phi may take: a long scan
# grid is covered chunk by chunk, never all at once
_CHUNK_NODES = 2048
# most entries of Chat, summed over its points, that one stack of contour
# determinants may hold: at a high degree the points go a few at a time
_STACK_ENTRIES = 2**16


@dataclass(frozen=True)
class GramSystem:
    """Finite-rank data at a cut point s.  C is an upper-triangular
    square root (H = C^T C) of the lower-tail Gram H with blocks
    int_{-inf}^s Phi_j Phi_k^T, from a QR factorization of the weighted
    sample matrix.  psi stacks the (nN, N) column Psi of
    Phi_0(s) .. Phi_{n-1}(s) and its first two s-derivatives; the cut
    matrix B = H' is Psi Psi^T.

    H is computed directly by panels rather than as I - G from the
    upper-tail Gram G: for strongly negative s the entries of I - G are
    tiny and would be known only to absolute (not relative) precision,
    which ruins the resolvent.  Working through C halves the effective
    condition number of every resolvent solve.

    A stack of systems at S cut points carries a leading point axis on
    s, psi and C; indexing it with an array of points or a mask gives
    the stack of those points."""

    s: float | np.ndarray  # one cut point, or (S,) for a stack
    n: int
    psi: np.ndarray  # (..., 3, nN, N): Psi, Psi', Psi''
    C: np.ndarray  # (..., nN, nN)

    @property
    def B(self) -> np.ndarray:
        return self.psi[..., 0, :, :] @ np.swapaxes(self.psi[..., 0, :, :], -1, -2)

    def __getitem__(self, index) -> GramSystem:
        return GramSystem(s=self.s[index], n=self.n, psi=self.psi[index], C=self.C[index])


def gram_stacks(family: MOPFamily, n: int, grid) -> Iterator[GramSystem]:
    """The Gram systems at every point of a nondecreasing grid, in grid
    order, from one pass over one panel set: one stack per chunk of
    panels, holding the points that close in it.

    Gauss-Legendre panels of width at most 1 cover
    [min(s_0, 0) - depth, s_last] with a panel edge at every grid point.
    The depth reaches past the turning point sqrt(2n + 1) of the highest
    Phi_k, beyond which Phi_k decays like a Gaussian: a fixed TAIL_DEPTH
    cuts off their mass from n ~ 50 on.
    H(s_k) = H(s_{k-1}) + int_{s_{k-1}}^{s_k} Phi Phi^T, so the factor is
    updated interval by interval as C_k = qr([C_{k-1}; F_k]),
    F_k the weighted samples of the panels in (s_{k-1}, s_k]: a
    backward-stable update, which keeps the relative accuracy of the
    one-shot factorization.  Phi is evaluated on at most _CHUNK_NODES
    nodes at a time, and the stacks are produced lazily, so a long grid
    is never held whole."""
    if n > family.nmax:
        raise ValueError("degree out of range")
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) < 0.0):
        raise ValueError("grid must be a nonempty, finite, nondecreasing sequence")
    cols = n * family.dim
    depth = max(TAIL_DEPTH, math.sqrt(2 * n + 1) + 5.0)
    edges = np.concatenate(([min(grid[0], 0.0) - depth], grid))
    widths = np.diff(edges)
    counts = np.where(widths > 0.0, np.maximum(1.0, np.ceil(widths)), 0.0).astype(np.int64)
    ends = np.cumsum(counts)  # panels of intervals 0..k end before ends[k]
    per_chunk = _CHUNK_NODES // PANEL_ORDER
    c = np.zeros((0, cols))
    k = 0  # next grid point to complete
    for start in range(0, int(ends[-1]), per_chunk):
        stop = min(start + per_chunk, int(ends[-1]))
        # panel g belongs to interval owner[g] and is its frac[g]-th panel
        g = np.arange(start, stop)
        owner = np.searchsorted(ends, g, side="right")
        frac = g - (ends[owner] - counts[owner])
        step = widths[owner] / counts[owner]
        lo = edges[owner] + frac * step
        hi = np.where(frac + 1 == counts[owner], edges[owner + 1], lo + step)
        rule = panel_rule(lo, hi)
        p = phi_all(family, rule.nodes, n)  # (n, m, N, N)
        # rows indexed by (panel node, matrix column), so H = F^T F
        # exactly; one block of rows per panel
        f = (p * np.sqrt(rule.weights)[None, :, None, None]).transpose(1, 3, 0, 2)
        f = f.reshape(stop - start, PANEL_ORDER * family.dim, cols)
        # the grid points that close in this chunk, first to last
        first, pos = k, start
        factors = np.empty((int(np.searchsorted(ends, stop, side="right")) - first, cols, cols))
        while k < grid.size and ends[k] <= stop:
            # grid point k: fold in the rest of its interval
            if ends[k] > pos:
                c = _qr_update(c, f[pos - start : ends[k] - start])
                pos = int(ends[k])
            factors[k - first] = c
            k += 1
        if pos < stop:  # an interval that closes in a later chunk
            c = _qr_update(c, f[pos - start :])
        yield from _cut_systems(family, n, grid[first:k], factors)
        del factors  # before the next chunk's factors exist


def _qr_update(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The triangular factor of [C; F] for panel row blocks f:
    C^T C + F^T F = R^T R."""
    return np.linalg.qr(np.concatenate((c, f.reshape(-1, c.shape[1]))), mode="r")


def _cut_systems(family: MOPFamily, n: int, points: np.ndarray, factors: np.ndarray) -> Iterator[GramSystem]:
    """Stacks of Gram systems at the cut points from their factors, with
    Psi, Psi' and Psi'' from one jet of Phi at all points of a stack."""
    cols = n * family.dim
    for lo in range(0, points.size, _CHUNK_NODES):
        part = points[lo : lo + _CHUNK_NODES]
        # (point, order, (j, a), b)
        jet = np.stack(_phi_jet(family, part, n, 2), axis=1).swapaxes(0, 2).reshape(part.size, 3, cols, family.dim)
        yield GramSystem(s=part, n=n, psi=jet, C=factors[lo : lo + _CHUNK_NODES])


def build_grams(family: MOPFamily, n: int, grid) -> Iterator[GramSystem]:
    """The Gram systems of gram_stacks one point at a time; coinciding
    grid points share one factor."""
    last = None
    for stack in gram_stacks(family, n, grid):
        for i, s in enumerate(stack.s.tolist()):
            c = last.C if last is not None and s == last.s else stack.C[i]
            last = GramSystem(s=s, n=n, psi=stack.psi[i], C=c)
            yield last


def build_gram(family: MOPFamily, n: int, s: float) -> GramSystem:
    """The Gram system at one cut point s: the one-point grid."""
    return next(build_grams(family, n, [s]))


def gram_dets(system: GramSystem) -> list[float]:
    """det(I_{nN} - G(s)) at each point of a system or a stack: the gap
    probability that no particle of the n-point ensemble lies in
    (s, inf).

    Evaluated as det(H) of the lower-tail Gram, which keeps full
    relative precision even when the gap probability is tiny."""
    return [0.0 if v == -np.inf else float(np.exp(v)) for v in np.atleast_1d(_log_det(system)).tolist()]


def gram_det(family: MOPFamily, n: int, s: float, system: GramSystem | None = None) -> float:
    """gram_dets at one cut point s."""
    if system is None:
        system = build_gram(family, n, s)
    return gram_dets(system)[0]


def _log_det(system: GramSystem) -> float | np.ndarray:
    """log det H from the triangular factor, per point of a stack; -inf
    for a singular factor."""
    d = np.abs(np.diagonal(system.C, axis1=-2, axis2=-1))
    singular = np.any(d == 0.0, axis=-1)
    logabs = np.where(singular, -np.inf, 2.0 * np.sum(np.log(np.where(singular[..., None], 1.0, d)), axis=-1))
    return float(logabs) if logabs.ndim == 0 else logabs


def resolvable(system: GramSystem) -> bool | np.ndarray:
    """Whether det H reaches 1e-300, per point of a stack: below it the
    determinant vanishes, and log_derivs raises."""
    return np.logical_not(_log_det(system) <= _LOG_DET_FLOOR)


def _resolvable_log_det(system: GramSystem) -> float | np.ndarray:
    """log det H; ValueError("determinant vanishes") where it is below
    1e-300 at any point."""
    logabs = _log_det(system)
    if np.any(logabs <= _LOG_DET_FLOOR):
        raise ValueError(VANISHES)
    return logabs


def _forward_solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """C^{-T} rhs for upper-triangular C, or a stack of them, by forward
    substitution on C^T."""
    # C order whatever the layout of rhs: the products below take BLAS
    # on rows of unit stride
    out = np.empty(rhs.shape)
    for i in range(c.shape[-1]):
        out[..., i, :] = (rhs[..., i, :] - (c[..., None, :i, i] @ out[..., :i, :])[..., 0, :]) / c[..., i, i, None]
    return out


def log_derivs(system: GramSystem) -> tuple:
    """R(s) = d/ds log det, R'(s) and R''(s) from one whitening of the
    Gram system: floats, or (S,) arrays for a stack;
    ValueError("determinant vanishes") where det H is below 1e-300 at any
    point (select the resolvable points of a stack first).

    The whitening is one triangular solve Y = C^{-T} [Psi | Psi' | Psi''],
    and every trace is one of the small Gram G = Y^T Y, blocks
    G_ij = Y_i^T Y_j.  With M = H^{-1}B, N = H^{-1}B' and M' = N - M^2:
    R = tr M = tr G_00, R' = tr N - tr M^2 = 2 tr G_01 - ||G_00||_F^2, and
    R'' = 2 tr M^3 - 3 tr MN + tr H^{-1}B''
        = 2 tr G_00^3 - 6 tr G_00 G_01 + 2 tr G_02 + 2 tr G_11.
    Never forming C^{-T} B C^{-1} keeps the error growth at cond(C)
    rather than cond(C)^2: at kind a, n = 5, s = -3 (cond(C) 1.8e7), R''
    is 8.6e-7 off a 40-digit evaluation of the same rule, against 7.6e-2
    through the whitened C^{-T} B'' C^{-1}."""
    _resolvable_log_det(system)
    dim = system.psi.shape[-1]
    # [Psi | Psi' | Psi''], (..., nN, 3N)
    y = _forward_solve(system.C, np.concatenate(np.moveaxis(system.psi, -3, 0), axis=-1))
    g = (np.swapaxes(y, -1, -2) @ y).reshape(y.shape[:-2] + (3, dim, 3, dim))
    g00, g01, g02, g11 = g[..., 0, :, 0, :], g[..., 0, :, 1, :], g[..., 0, :, 2, :], g[..., 1, :, 1, :]

    def trace(m):
        return np.trace(m, axis1=-2, axis2=-1)

    def total(m):
        return np.sum(m, axis=(-2, -1))

    r = trace(g00)
    rp = 2.0 * trace(g01) - total(g00 * g00)
    rpp = 2.0 * trace(g00 @ g00 @ g00) - 6.0 * total(g00 * np.swapaxes(g01, -1, -2)) + 2.0 * trace(g02) + 2.0 * trace(g11)
    if np.ndim(r) == 0:
        return float(r), float(rp), float(rpp)
    return r, rp, rpp


def log_deriv(
    family: MOPFamily, n: int, s: float, order: int = 1, system: GramSystem | None = None
) -> float:
    """log det (order 0), R(s) = d/ds log det (order 1), R'(s)
    (order 2) or R''(s) (order 3), all from the resolvent of the Gram
    system (see log_derivs)."""
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be 0, 1, 2 or 3")
    if system is None:
        system = build_gram(family, n, s)
    if order == 0:
        return _resolvable_log_det(system)
    return log_derivs(system)[order - 1]


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


def _three_term(y0: float, e0: float, y1: float, e1: float, coeffs) -> tuple[list, list]:
    """y_0, y_1, ... of the recurrence y_{j+1} = a_j y_j + b_j y_{j-1},
    one (a_j, b_j) per step, with a running error estimate on each: the
    errors e0, e1 of the start values carried forward, plus one unit
    roundoff of each step's two terms, to first order as in Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3."""
    ys, es = [y0, y1], [e0, e1]
    for a, b in coeffs:
        p, q = a * ys[-1], b * ys[-2]
        ys.append(p + q)
        es.append(abs(a) * es[-1] + abs(b) * es[-2] + _U * (abs(p) + abs(q)))
    return ys, es


def _line_moments(s: float, kmin: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """The line moments M_k(s) = (2 pi i)^{-1} int lam^k e^{lam^2 - 2 s lam}
    dlam, taken upward along any vertical line right of lam = 0, for
    k = kmin..kmax (kmin <= -1), with a running error estimate on each.

    M_0 = e^{-s^2} / (2 sqrt(pi)) and M_{-1} = erfc(s) / 2, and
    integration by parts gives k M_{k-1} - 2 s M_k + 2 M_{k+1} = 0, run
    up from M_0 and down from M_{-1}.  The down direction computes
    M_{-k-1} = 2^{k-1} i^k erfc(s), the repeated erfc integrals, forward
    in k: for s > 0 that is their unstable direction (Gautschi, SIAM Rev.
    1967), and the error estimate grows with the depth there."""
    m0 = math.exp(-s * s) / (2.0 * math.sqrt(math.pi))
    m1 = 0.5 * math.erfc(s)
    # one rounding plus that of s^2 in the exponent of e^{-s^2}, which
    # erfc(s) carries as a factor for s > 0
    e0, e1 = (s * s + 1.0) * _U * m0, (max(s, 0.0) * s + 1.0) * _U * m1
    up, up_err = _three_term(m1, e1, m0, e0, ((s, -0.5 * k) for k in range(max(kmax, 0))))
    down, down_err = _three_term(m0, e0, m1, e1, ((2.0 * s / k, -2.0 / k) for k in range(-1, kmin, -1)))
    # down holds M_0, M_-1, ..., M_kmin and up M_-1, M_0, ..., M_max(kmax, 0)
    count = kmax - kmin + 1
    mom = (down[:0:-1] + up[1:])[:count]
    err = (down_err[:0:-1] + up_err[1:])[:count]
    return np.array(mom), np.array(err)


def _hermite_terms(s: float, deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients h_0..h_deg of e^{2sz - z^2} in z, H_p(s)/p!,
    by h_p = (2s h_{p-1} - 2 h_{p-2}) / p, with a running error estimate on
    each: near the zeros of H_p the recurrence cancels."""
    h, err = _three_term(1.0, 0.0, 2.0 * s, 0.0, ((2.0 * s / p, -2.0 / p) for p in range(2, deg + 1)))
    return np.array(h[: deg + 1]), np.array(err[: deg + 1])


def contour_det(family: MOPFamily, n: int, s: float) -> float:
    """Gap determinant via the composed contour kernel

        K(lam, w) = oint dz/(2 pi i)^2 e^{w^2 - z^2 + 2 s (z - lam)}
                    (w/z)^n Bfac(z) Bhat(w) / ((lam - z)(w - z)),

    lam and w on a vertical line right of the loop around z = 0:
    det(Id - K) on the line, which equals the Gram-route determinant.
    Both integrals are taken in closed form, so the determinant is that
    of a real reduced matrix of N (n - min e) rows (n for the scalar
    family, 2 (n + 1) for kind a, 2 (n + 2) for kind b).

    ValueError("contour route unreliable (est ...)") where the running
    error estimate of log det exceeds 1e-8: in the lower tail the
    reduced determinant is ill-conditioned with respect to its O(1)
    data (compare Bornemann, Math. Comp. 79, 2010), and for s > 0 at
    large n the moments lose accuracy (_line_moments).  This is
    contour_dets at one point.
    """
    (det,), (error,) = contour_dets(family, n, [s])
    if error:
        raise ValueError(error)
    return det


def contour_dets(family: MOPFamily, n: int, s) -> tuple[list[float], list[str]]:
    """contour_det at every point of the 1-D array s, each step taken for
    a whole stack of points in one call: the determinants (NaN where
    flagged) and the error of each point ("" where none).  A point's
    flag never touches the others."""
    if n < 1:
        raise ValueError("kernel degree must be a positive integer")
    s = np.asarray(s, dtype=float)
    dim = family.dim

    # Both contour factors are Laurent monomials, Bfac(z)[a, q] =
    # B_aq z^{e_aq} and Bhat(w)[q, b] = Bhat_qb w^{-e_bq}.  The line lies
    # outside the loop, so with 1/(lam - z) = sum_alpha z^alpha
    # lam^{-alpha-1} the loop integral is the residue at z = 0, a finite
    # sum over the coefficients h_p of e^{2sz - z^2}, and the Nystrom
    # operator factors as L Chat R with
    #     Chat[(a,alpha),(q,beta)] = B_aq h[n - 1 - e_aq - alpha - beta],
    #     (R L)[(q,beta),(a,alpha)] = Bhat_qa M[n - 2 - e_aq - alpha - beta],
    # M_k the line moments; det(I - L Chat R) = det(I - Chat (R L)).
    # For the scalar family Chat (R L) = I + Chat (R L)~ exactly, where
    # (R L)~ takes the moments M~_k(s) = (-1)^k M_k(-s) of a line left
    # of 0 (M_k less its residue at 0, which makes the inverse Hankel
    # matrix of Chat): det(I - X) = det(-Chat (R L)~).  For s < 0 these
    # moments are small where M_k is near its residue, so the identity
    # never cancels against X.
    bn, bhat, dl, dr = _laurent_data(family.weight, n)
    e = dl[:, None] - dr[None, :]  # (N, p)
    size = n - int(e.min())
    ab = np.add.outer(np.arange(size), np.arange(size))
    hidx = n - 1 - e[:, None, :, None] - ab[None, :, None, :]  # (a, alpha, q, beta)
    bfac = np.where(hidx >= 0, bn[:, None, :, None], 0.0)
    hidx = hidx.clip(0)
    midx = n - 2 - e.T[:, None, :, None] - ab[None, :, None, :]  # (q, beta, a, alpha)
    kmin = int(midx.min())
    midx = midx - kmin
    kmax = int(midx.max()) + kmin
    rows = dim * size
    bhfac = np.broadcast_to(bhat[:, None, :, None], midx.shape).reshape(-1, rows)
    dets, errors = [math.nan] * s.size, [""] * s.size
    # each stack holds at most _STACK_ENTRIES entries of Chat
    step = max(1, _STACK_ENTRIES // bfac.size)
    for lo in range(0, s.size, step):
        part = s[lo : lo + step].tolist()
        left = [dim == 1 and x < 0.0 for x in part]
        h, herr = (np.array(v) for v in zip(*(_hermite_terms(x, size - 1) for x in part)))
        mom, err = [], []
        for x, flip in zip(part, left):
            m, me = _line_moments(-x if flip else x, kmin, kmax)
            mom.append(m * (-1.0) ** np.arange(kmin, kmin + m.size) if flip else m)
            err.append(me)
        mom, err, left = np.array(mom), np.array(err), np.array(left)
        chat = (bfac * h[:, hidx]).reshape(len(part), rows, -1)
        rl = bhfac * mom[:, midx].reshape(len(part), -1, rows)
        prod = chat @ rl
        mat = np.where(left[:, None, None], -prod, np.eye(rows) - prod)
        sign, logabs = np.linalg.slogdet(mat)
        # a gap determinant lies in [0, 1]; one whose exponential overflows
        # (or a NaN) is lost to cancellation, not a number to print
        finite = logabs < _LOG_FLOAT_MAX
        for i in np.flatnonzero(~finite).tolist():
            errors[lo + i] = f"contour determinant is not finite (log|det| = {logabs[i]:.3g})"
        keep = np.flatnonzero(finite)
        inv, found = _inverses(mat[keep])
        # det(mat) cancelled or underflowed to exactly 0: no relative accuracy
        for i in keep[~found].tolist():
            errors[lo + i] = "contour route unreliable (est inf)"
        keep, inv = keep[found], inv[found]
        if keep.size == 0:
            continue
        est = _log_det_error(bfac, hidx, bhfac, midx, chat[keep], rl[keep], inv, err[keep], herr[keep])
        for i, est_i, sign_i, logabs_i in zip(keep.tolist(), est, sign[keep], logabs[keep]):
            if not est_i <= _EST_TOL:
                errors[lo + i] = f"contour route unreliable (est {est_i:.1e})"
            else:
                dets[lo + i] = float(sign_i * np.exp(logabs_i))
    return dets, errors


def _inverses(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of each matrix of a stack, and whether it exists: a
    singular matrix fails alone, not the whole stack."""
    try:
        return np.linalg.inv(mats), np.ones(len(mats), dtype=bool)
    except np.linalg.LinAlgError:
        inv, found = np.zeros_like(mats), np.zeros(len(mats), dtype=bool)
        for i, mat in enumerate(mats):
            try:
                inv[i] = np.linalg.inv(mat)
            except np.linalg.LinAlgError:
                continue
            found[i] = True
        return inv, found


def _log_det_error(bfac, hidx, bhfac, midx, chat, rl, inv, err, herr) -> np.ndarray:
    """The running error estimate of log det(A), A = I - Chat (R L) or
    -Chat (R L)~, per point of a stack, from A's inverse and the errors
    err of the moments and herr of the h_p.

    An error dA of A moves log det A by log det(I + E), with
    E = A^{-1} dA, so by tr E to first order.  Each h_p and M_k enters
    many entries of Chat and RL with one shared error, so its share of
    tr E is its error times the summed sensitivity of those entries;
    the rounding of the product adds u |Chat| |RL| entrywise.  A highly
    non-normal A can hide a large E behind a small trace: with |E| <= M
    entrywise and mu = ||M||_inf < 1, the terms of order 2 and up are
    at most rows mu^2 / (2 (1 - mu))."""
    count, rows = inv.shape[:2]
    absinv, abschat, absrl = np.abs(inv), np.abs(chat), np.abs(rl)
    d_mom = _binned(midx, bhfac * np.swapaxes(inv @ chat, -1, -2), err.shape[-1])
    d_h = _binned(hidx, bfac.reshape(rows, -1) * np.swapaxes(rl @ inv, -1, -2), herr.shape[-1])
    est = _U * np.sum(np.swapaxes(absinv, -1, -2) * (abschat @ absrl), axis=(-2, -1))
    est = est + _dot(np.abs(d_mom), err) + _dot(np.abs(d_h), herr)
    drl = np.abs(bhfac) * err[:, midx].reshape(count, -1, rows)
    dchat = (np.abs(bfac) * herr[:, hidx]).reshape(count, rows, -1)
    mu = np.max(np.sum(absinv @ (abschat @ (_U * absrl + drl) + dchat @ absrl), axis=-1), axis=-1)
    below = np.where(mu < 1.0, mu, 0.0)
    return np.where(mu < 1.0, est + rows * below * below / (2.0 * (1.0 - below)), math.inf)


def _binned(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Per point of a stack, the weights summed by their index into size
    bins, each bin in the order of its entries."""
    count = len(weights)
    flat = (index.ravel() + size * np.arange(count)[:, None]).ravel()
    return np.bincount(flat, weights=weights.ravel(), minlength=count * size).reshape(count, size)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row pair of two stacks of vectors."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]
