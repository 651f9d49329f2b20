"""Hermite-type matrix orthogonal polynomial families.

Two 2x2 families are supported, plus the scalar Hermite case embedded as
a 1x1 "family":

* kind "a": weight e^{-x^2} e^{Ax} e^{A^T x} with A the nilpotent shift;
* kind "b": weight e^{-x^2} e^{Bx^2} e^{B^T x^2} with B = A(I+A)^{-1};
* kind "scalar": weight e^{-x^2}.

Families are built with the Stieltjes procedure: the three-term
recurrence coefficients of the monic polynomials are computed from
quadrature inner products, which stays stable far beyond the point where
moment determinants break down.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .matcore import exponent_diag, nilpotent_exp, nilpotent_shift
from .quadrature import QuadRule, gauss_hermite

__all__ = [
    "WeightFamily",
    "MOPFamily",
    "tfactor",
    "build_family",
    "phi_all",
    "phi_deriv",
    "ode_terms",
    "ode_residual",
    "family_constants",
]

_ORTHO_HARD_LIMIT = 1e-6
# Smallest admissible eigenvalue of the pencil (<P_{k+1}, P_{k+1}>,
# <x P_k, x P_k>): the share of x P_k that a Stieltjes step leaves
# standing.  Sound builds (kinds a and b, nu <= 10, nmax 64, default
# rule) keep above 1e-2; a step on a rule with too few nodes annihilates
# a direction and leaves round-off, below 1e-28.
_PENCIL_HARD_LIMIT = 1e-8


@dataclass(frozen=True)
class WeightFamily:
    """Which weight we orthogonalize against: kind in {a, b, scalar}."""

    kind: str
    nu: float = 0.0
    dim: int = 2

    def __post_init__(self):
        if self.kind not in ("a", "b", "scalar"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "scalar":
            object.__setattr__(self, "dim", 1)
            object.__setattr__(self, "nu", 0.0)

    @property
    def shift(self) -> np.ndarray:
        """The nilpotent parameter matrix (A for kind a, B for kind b)."""
        n = self.dim
        a = nilpotent_shift(n, self.nu)
        if self.kind == "b":
            # B = A (I + A)^{-1}; for dim 2 this is just A again.
            return a @ np.linalg.inv(np.eye(n) + a)
        return a

    @property
    def jexp(self) -> np.ndarray:
        """Diagonal of J (exponents dim-1, ..., 0)."""
        return exponent_diag(self.dim)


def _unipotent_power(a: np.ndarray, t) -> np.ndarray:
    """(I + a)^t for nilpotent a, via the terminating log/exp series; an
    array of exponents t of shape (k,) gives the stack (k, n, n)."""
    n = a.shape[0]
    logm = np.zeros_like(a, dtype=float)
    term = np.eye(n)
    for k in range(1, n):
        term = term @ a
        logm = logm + ((-1) ** (k + 1) / k) * term
    return nilpotent_exp(logm, t)


def tfactor(fam: WeightFamily, x) -> np.ndarray:
    """The polynomial factor T(x) of the weight: e^{Ax} or e^{Bx^2}.

    Accepts scalar or array x; returns (..., N, N).
    """
    x = np.asarray(x, dtype=float)
    n = fam.dim
    if fam.kind == "scalar":
        return np.ones(x.shape + (1, 1))
    arg = x if fam.kind == "a" else x * x
    shift = fam.shift
    out = np.broadcast_to(np.eye(n), x.shape + (n, n)).copy()
    term = np.broadcast_to(np.eye(n), x.shape + (n, n)).copy()
    for k in range(1, n):
        term = (term @ shift) * (arg[..., None, None] / k)
        out = out + term
    return out


def _tfactor_jet(fam: WeightFamily, x, order: int) -> list:
    """T(x) and its x-derivatives up to ``order`` (at most 2), from one
    build of T: [T, T', T''][: order + 1], each (..., N, N)."""
    x = np.asarray(x, dtype=float)
    t = tfactor(fam, x)
    if order == 0:
        return [t]
    shift = fam.shift
    st = shift @ t
    sst = (shift @ shift) @ t
    if fam.kind == "b":
        # T = e^{B x^2}  ->  T' = 2x B T, T'' = 2 B T + 4 x^2 B^2 T
        x2 = (x * x)[..., None, None]
        return [t, 2.0 * x[..., None, None] * st, 2.0 * st + 4.0 * x2 * sst][: order + 1]
    # T = e^{A x} (A = 0 for the scalar family)  ->  T' = A T, T'' = A^2 T
    return [t, st, sst][: order + 1]


def _normalizers(fam: WeightFamily, nmax: int) -> np.ndarray:
    """Left factors L_0..L_nmax turning the monic polynomials into the
    normalized ones: (nmax + 1, N, N).  Kind a has one factor for every
    degree."""
    if fam.kind == "scalar":
        return np.ones((nmax + 1, 1, 1))
    a = nilpotent_shift(fam.dim, fam.nu)
    if fam.kind == "a":
        return np.broadcast_to(nilpotent_exp(a @ a, -0.25), (nmax + 1, fam.dim, fam.dim))
    return _unipotent_power(a, -(2 * np.arange(nmax + 1) + 1) / 2.0)


@dataclass
class MOPFamily:
    """A built family: recurrence, normalizers, norms, each a stack
    indexed by degree.

    Immutable after construction; evaluation helpers are pure.
    """

    weight: WeightFamily
    nmax: int
    quad: QuadRule
    alphas: np.ndarray = field(repr=False)  # recurrence A_n (monic, left coeffs)
    betas: np.ndarray = field(repr=False)  # recurrence B_n
    normalizers: np.ndarray = field(repr=False)  # L_n with P_n = L_n Phat_n
    norms: np.ndarray = field(repr=False)  # ||P_n||^2_W
    inv_sqrt_norms: np.ndarray = field(repr=False)
    ortho_residual: float = 0.0

    @property
    def dim(self) -> int:
        return self.weight.dim


def _sym_inv_sqrt(h: np.ndarray) -> np.ndarray:
    """H^{-1/2} for a stack of symmetric positive definite matrices."""
    hs = 0.5 * (h + np.swapaxes(h, -1, -2))
    evals, evecs = np.linalg.eigh(hs)
    if np.min(evals) <= 0:
        raise ValueError("norm matrix not positive definite")
    return (evecs / np.sqrt(evals)[..., None, :]) @ np.swapaxes(evecs, -1, -2)


def _pencil_min(num: np.ndarray, den: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric pencil (num, den); 0 where
    den is not numerically positive definite."""
    try:
        c = np.linalg.cholesky(den)
    except np.linalg.LinAlgError:
        return 0.0
    ci = np.linalg.inv(c)
    return float(np.linalg.eigvalsh(ci @ num @ ci.T)[0])


def _ortho_residual(gram: np.ndarray, norms: np.ndarray) -> float:
    """Largest off-diagonal block max|<Phat_a, Phat_b>| of the Gram
    (K, N, K, N), each scaled by sqrt(||H_a|| ||H_b||) (Frobenius norms
    of the diagonal blocks H_k, given as the stack (K, N, N)).  Each H_k
    is divided by its largest entry before its norm is taken, and the
    roots are taken before their product: the monic norms grow like
    n!/2^n, and their squares overflow from degree 115 on."""
    block = np.abs(gram).max(axis=(1, 3))
    top = np.abs(norms).max(axis=(1, 2))
    root = np.sqrt(top * np.linalg.norm(norms / top[:, None, None], axis=(1, 2)))
    ratio = block / (np.outer(root, root) + 1e-300)
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max())


def build_family(fam: WeightFamily, nmax: int, quad: QuadRule | None = None) -> MOPFamily:
    """Build monic polynomials P-hat_0..P-hat_nmax by the Stieltjes
    procedure and attach the closed-form normalization of each family.

    The procedure runs on the weighted node matrix: block k holds
    sqrt(w_i) P-hat_k(x_i) T(x_i) over the nodes of ``quad`` (a rule with
    non-negative weights; Gauss-Hermite by default), laid out
    (N, m N).  The recurrence multiplies P-hat from the left, so it acts
    on these blocks unchanged, and every inner product
    <F, G>_W = sum_i w_i F_i T_i T_i^T G_i^T is one GEMM of two blocks;
    the orthogonality check is one GEMM over all of them.

    Raises ValueError("insufficient quadrature") if a step of the
    procedure leaves a norm matrix that is numerically singular on the
    rule, if the rule is not exact for the top-degree norm (fewer than
    nmax + 1 + deg(W)/2 nodes; both messages name the degree and the
    node count), or if the resulting monic family fails orthogonality
    at the 1e-6 level.
    """
    if quad is None:
        quad = gauss_hermite(max(200, 3 * nmax))
    n = fam.dim
    x = quad.nodes.real
    m = x.size
    rows = np.empty((nmax + 1, n, m * n))
    scaled_t = np.sqrt(quad.weights.real)[:, None, None] * tfactor(fam, x)
    rows[0] = scaled_t.transpose(1, 0, 2).reshape(n, m * n)
    xcol = np.repeat(x, n)  # the node of each column
    norms_m = np.empty((nmax + 1, n, n))
    norms_m[0] = rows[0] @ rows[0].T
    alphas = np.empty((nmax, n, n))
    betas = np.zeros((nmax, n, n))

    for k in range(nmax):
        hinv = np.linalg.inv(norms_m[k])
        xpk = xcol * rows[k]
        alpha = (xpk @ rows[k].T) @ hinv
        pnew = xpk - alpha @ rows[k]
        # x P_k = P_{k+1} + alpha P_k + beta P_{k-1}, orthogonal on the rule
        xnorm = alpha @ norms_m[k] @ alpha.T
        if k > 0:
            beta = norms_m[k] @ hinv_prev
            pnew -= beta @ rows[k - 1]
            xnorm += beta @ norms_m[k - 1] @ beta.T
            betas[k] = beta
        hnew = pnew @ pnew.T
        if not _pencil_min(hnew, hnew + xnorm) >= _PENCIL_HARD_LIMIT:  # NaN fails too
            raise ValueError(
                f"insufficient quadrature: the degree-{k + 1} norm matrix is "
                f"numerically singular on the {m}-node rule"
            )
        rows[k + 1] = pnew
        norms_m[k + 1] = hnew
        alphas[k] = alpha
        hinv_prev = hinv

    # the top norm <Phat_nmax, Phat_nmax>_W integrates a polynomial of
    # degree 2 nmax + deg W, exact on m Gauss nodes only up to 2m - 1
    deg_w = 0 if fam.kind == "scalar" else 2 * (n - 1) * (1 if fam.kind == "a" else 2)
    if m < nmax + 1 + deg_w // 2:
        raise ValueError(
            f"insufficient quadrature: the degree-{nmax} norm needs at least "
            f"{nmax + 1 + deg_w // 2} nodes, the rule has {m}"
        )

    # orthogonality diagnostic on the monic family
    flat = rows.reshape((nmax + 1) * n, m * n)
    gram = (flat @ flat.T).reshape(nmax + 1, n, nmax + 1, n)
    resid = _ortho_residual(gram, norms_m)
    if not resid <= _ORTHO_HARD_LIMIT:
        raise ValueError("insufficient quadrature")

    normalizers = _normalizers(fam, nmax)
    norms = normalizers @ norms_m @ np.swapaxes(normalizers, -1, -2)

    return MOPFamily(
        weight=fam,
        nmax=nmax,
        quad=quad,
        alphas=alphas,
        betas=betas,
        normalizers=normalizers,
        norms=norms,
        inv_sqrt_norms=_sym_inv_sqrt(norms),
        ortho_residual=resid,
    )


def _monic_values(family: MOPFamily, x, upto: int, derivs: int = 0) -> list:
    """Monic polynomials P_0..P_{upto-1} at x and their x-derivatives up
    to order ``derivs``, by the differentiated forward recurrence
    P^(j)_{k+1} = x P^(j)_k + j P^(j-1)_k - A_k P^(j)_k - B_k P^(j)_{k-1}.
    Returns jet[j][k], each (..., N, N); only the orders asked for are
    computed.
    """
    x = np.asarray(x, dtype=float)
    n = family.dim
    xm = x[..., None, None]
    jet = [[np.broadcast_to(np.eye(n), x.shape + (n, n)).copy()]]
    jet += [[np.zeros(x.shape + (n, n))] for _ in range(derivs)]
    for k in range(upto - 1):
        al, be = family.alphas[k], family.betas[k]
        for j, p in enumerate(jet):
            nxt = xm * p[k]
            if j:
                nxt = j * jet[j - 1][k] + nxt
            nxt = nxt - al @ p[k]
            if k > 0:
                nxt = nxt - be @ p[k - 1]
            p.append(nxt)
    return jet


def _phi_jet(family: MOPFamily, x, upto: int, order: int) -> list:
    """Orthonormal functions Phi_0..Phi_{upto-1} at x and their
    x-derivatives up to ``order`` (at most 2), from one recurrence pass:
    [Phi, Phi', Phi''][: order + 1], each stack (upto, ..., N, N).  With
    Phi = e^{-x^2/2} L P T, Phi' = e^{-x^2/2} L (-x P T + (P T)') and
    Phi'' = e^{-x^2/2} L ((x^2 - 1) P T - 2x (P T)' + (P T)'')."""
    if upto > family.nmax + 1:
        raise ValueError("degree out of range")
    x = np.asarray(x, dtype=float)
    # stacks (upto, ..., N, N): every degree in one matmul per product
    p = [np.stack(pj) for pj in _monic_values(family, x, upto, derivs=order)]
    t = _tfactor_jet(family.weight, x, order)
    xm = x[..., None, None]
    env = np.exp(-0.5 * x * x)[..., None, None]
    lead = family.inv_sqrt_norms[:upto] @ family.normalizers[:upto]
    lead = lead.reshape((upto,) + (1,) * x.ndim + lead.shape[1:])
    q = p[0] @ t[0]
    out = [env * (lead @ q)]
    if order >= 1:
        dq = p[1] @ t[0] + p[0] @ t[1]
        out.append(env * (lead @ (dq - xm * q)))
    if order >= 2:
        ddq = p[2] @ t[0] + 2.0 * (p[1] @ t[1]) + p[0] @ t[2]
        out.append(env * (lead @ ((xm * xm - 1.0) * q - 2.0 * xm * dq + ddq)))
    return out


def phi_all(family: MOPFamily, x, upto: int) -> np.ndarray:
    """Orthonormal functions Phi_0..Phi_{upto-1} at x: (upto, ..., N, N)."""
    return _phi_jet(family, x, upto, 0)[0]


def phi_deriv(family: MOPFamily, n: int, x) -> np.ndarray:
    """Analytic x-derivative of Phi_n."""
    return _phi_jet(family, x, n + 1, 1)[1][n]


def _ode_coefficients(fam: WeightFamily, n):
    """(F2, F1(x) pieces, F0, Gamma_n) of the second-order eigenequation;
    an array n of degrees, shaped to broadcast against (N, N), gives a
    stack of Gamma_n."""
    dim = fam.dim
    eye = np.eye(dim)
    j = np.diag(exponent_diag(dim).astype(float))
    if fam.kind == "scalar":
        return eye, (np.zeros((1, 1)), -2.0 * eye), np.zeros((1, 1)), -2.0 * n * eye
    a = nilpotent_shift(dim, fam.nu)
    if fam.kind == "a":
        f1_const, f1_lin = 2.0 * a, -2.0 * eye
        f0 = a @ a - 2.0 * j
        gam = -2.0 * n * eye - 2.0 * j
    else:
        b = fam.shift
        f1_const, f1_lin = np.zeros((dim, dim)), 2.0 * (2.0 * b - eye)
        f0 = 2.0 * (b - 2.0 * j)
        gam = -2.0 * n * eye - 4.0 * j
    return eye, (f1_const, f1_lin), f0, gam


def ode_terms(family: MOPFamily, n, x) -> np.ndarray:
    """The terms (P'' F2, P' F1, P F0, Gamma_n P) of the eigen-equation of
    the normalized polynomial P of degree n, stacked on a leading axis of
    length 4.  A scalar x gives (4, N, N), an array x (4, ..., N, N).
    n may also be a 1-D array of d degrees, with x of shape (d, ...):
    degree n[i] is taken at the points x[i], and all of them come from
    one recurrence pass over the whole x array."""
    x = np.asarray(x, dtype=float)
    ns = np.asarray(n)
    if ns.ndim and (ns.ndim > 1 or x.shape[:1] != ns.shape):
        raise ValueError("an array of degrees needs one row of x per degree")
    # the degree stack is (degree, *x.shape): degree n[i] at its row x[i]
    pick = (ns, np.arange(ns.size)) if ns.ndim else ns
    p, dp, ddp = (np.stack(pj)[pick] for pj in _monic_values(family, x, int(ns.max()) + 1, derivs=2))
    # per-degree matrices broadcast against the points of their row
    per_degree = ns.shape + (1,) * (x.ndim - ns.ndim)
    ln = family.normalizers[ns].reshape(per_degree + (family.dim, family.dim))
    pn, dpn, ddpn = ln @ p, ln @ dp, ln @ ddp
    f2, (f1c, f1l), f0, gam = _ode_coefficients(family.weight, ns.reshape(per_degree + (1, 1)))
    f1 = f1c + x[..., None, None] * f1l
    return np.stack([ddpn @ f2, dpn @ f1, pn @ f0, gam @ pn])


def ode_residual(family: MOPFamily, n: int, x, terms: np.ndarray | None = None) -> np.ndarray:
    """Residual P'' F2 + P' F1 + P F0 - Gamma_n P of the normalized
    polynomial; vanishes identically for both matrix families.  A scalar
    x gives one (N, N) residual, an array x the (..., N, N) residuals at
    its points.  terms, when given, is ode_terms(family, n, x), computed
    once for the residual and the size of its terms."""
    t = ode_terms(family, n, x) if terms is None else terms
    return t[0] + t[1] + t[2] - t[3]


@lru_cache(maxsize=256)
def family_constants(fam: WeightFamily, n: int) -> Mapping[str, np.ndarray]:
    """Closed-form contour-representation constants of the two 2x2
    families: C_n, D_n for the loop/line integral representations, the
    kernel factor B_n (and its right inverse), and the norm matrix.
    Computed once per (family, n) and handed out read-only: a verify op
    asks for them about 17 times, and the contour determinant once per
    row."""
    if fam.kind == "scalar":
        raise ValueError("no matrix constants")
    if fam.dim != 2:
        raise ValueError("closed-form constants available for dim 2 only")
    nu = fam.nu
    fac = math.factorial(n) * math.sqrt(math.pi) / 2.0**n
    pref_c = math.factorial(n) / (2.0 ** (n + 1) * math.pi * 1j)
    pref_d = 1.0 / (1j * math.sqrt(math.pi))
    if fam.kind == "a":
        g2 = lambda k: 1.0 + k * nu * nu / 2.0
        cn = pref_c * np.array([[1.0, nu * (n + 1) / 2.0], [-nu / g2(n), 1.0 / g2(n)]])
        dn = pref_d * np.array([[1.0, nu], [-n * nu / (2.0 * g2(n)), 1.0 / g2(n)]])
        bn = np.array([[1.0, -nu], [n * nu / 2.0, 1.0]])
        bhat = np.linalg.inv(bn)
        norm = fac * np.diag([g2(n + 1), 1.0 / g2(n)])
    else:
        d2 = lambda k: 1.0 + k * (k - 1) * nu * nu / 4.0
        cn = pref_c * np.array(
            [[1.0, nu * (n + 1) * (n + 2) / 4.0], [-nu / d2(n), 1.0 / d2(n)]]
        )
        dn = pref_d * np.array(
            [[1.0, nu], [-n * (n - 1) * nu / (4.0 * d2(n)), 1.0 / d2(n)]]
        )
        bn = np.array(
            [
                [1.0 / d2(n + 1), n * nu * nu / (2.0 * d2(n + 1) * d2(n)), -nu],
                [nu * n * (n + 1) / (4.0 * d2(n + 1)), -n * nu / (2.0 * d2(n + 1) * d2(n)), 1.0],
            ]
        )
        bhat = np.array(
            [
                [1.0, nu],
                [1.0, nu],
                [-nu * n * (n - 1) / (4.0 * d2(n)), 1.0 / d2(n)],
            ]
        )
        norm = fac * np.diag([d2(n + 2), 1.0 / d2(n)])
    consts = {"C": cn, "D": dn, "B": bn, "Bhat": bhat, "norm": norm}
    for value in consts.values():
        value.flags.writeable = False
    return MappingProxyType(consts)
