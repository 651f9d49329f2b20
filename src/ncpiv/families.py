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
from dataclasses import dataclass, field

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
    "phi_deriv2_all",
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


def _unipotent_power(a: np.ndarray, t: float) -> np.ndarray:
    """(I + a)^t for nilpotent a, via the terminating log/exp series."""
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
    st = np.einsum("ab,...bc->...ac", shift, t)
    sst = np.einsum("ab,...bc->...ac", shift @ shift, t)
    if fam.kind == "b":
        # T = e^{B x^2}  ->  T' = 2x B T, T'' = 2 B T + 4 x^2 B^2 T
        x2 = (x * x)[..., None, None]
        return [t, 2.0 * x[..., None, None] * st, 2.0 * st + 4.0 * x2 * sst][: order + 1]
    # T = e^{A x} (A = 0 for the scalar family)  ->  T' = A T, T'' = A^2 T
    return [t, st, sst][: order + 1]


def _normalizer(fam: WeightFamily, n: int) -> np.ndarray:
    """Left factor turning the monic polynomial into the normalized one."""
    if fam.kind == "scalar":
        return np.eye(1)
    a = nilpotent_shift(fam.dim, fam.nu)
    if fam.kind == "a":
        return nilpotent_exp(a @ a, -0.25)
    return _unipotent_power(a, -(2 * n + 1) / 2.0)


@dataclass
class MOPFamily:
    """A built family: recurrence, monic coefficients, norms.

    Immutable after construction; evaluation helpers are pure.
    """

    weight: WeightFamily
    nmax: int
    quad: QuadRule
    alphas: list = field(repr=False)  # recurrence A_n (monic, left coeffs)
    betas: list = field(repr=False)  # recurrence B_n
    monic_coeffs: list = field(repr=False)  # degree-ascending Mat lists
    monic_norms: list = field(repr=False)  # <Phat_n, Phat_n>_W
    normalizers: list = field(repr=False)  # L_n with P_n = L_n Phat_n
    norms: list = field(repr=False)  # ||P_n||^2_W
    inv_sqrt_norms: list = field(repr=False)
    ortho_residual: float = 0.0

    @property
    def dim(self) -> int:
        return self.weight.dim


def _inner_products(w, wt, fvals, gvals):
    """<F, G>_W = sum_i w_i F_i Wt_i G_i^T for node-value arrays."""
    return np.einsum("i,iab,ibc,idc->ad", w, fvals, wt, gvals, optimize=True)


def _sym_inv_sqrt(h: np.ndarray) -> np.ndarray:
    hs = 0.5 * (h + h.T)
    evals, evecs = np.linalg.eigh(hs)
    if np.min(evals) <= 0:
        raise ValueError("norm matrix not positive definite")
    return (evecs / np.sqrt(evals)) @ evecs.T


def _pencil_min(num: np.ndarray, den: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric pencil (num, den); 0 where
    den is not numerically positive definite."""
    try:
        c = np.linalg.cholesky(den)
    except np.linalg.LinAlgError:
        return 0.0
    ci = np.linalg.inv(c)
    return float(np.linalg.eigvalsh(ci @ num @ ci.T)[0])


def build_family(fam: WeightFamily, nmax: int, quad: QuadRule | None = None) -> MOPFamily:
    """Build monic polynomials P-hat_0..P-hat_nmax by the Stieltjes
    procedure and attach the closed-form normalization of each family.

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
    w = quad.weights.real
    m = x.size
    tv = tfactor(fam, x)
    wt = np.einsum("iab,icb->iac", tv, tv)  # T T^T, Gaussian absorbed in w

    eye = np.eye(n)
    vals = [np.broadcast_to(eye, (m, n, n)).copy()]
    coeffs = [[eye.copy()]]
    norms_m = [_inner_products(w, wt, vals[0], vals[0])]
    alphas, betas = [], []

    for k in range(nmax):
        pk = vals[k]
        xpk = x[:, None, None] * pk
        hk_inv = np.linalg.inv(norms_m[k])
        alpha = _inner_products(w, wt, xpk, pk) @ hk_inv
        if k == 0:
            beta = np.zeros((n, n))
            pnew = xpk - np.einsum("ab,ibc->iac", alpha, pk)
        else:
            beta = norms_m[k] @ np.linalg.inv(norms_m[k - 1])
            pnew = (
                xpk
                - np.einsum("ab,ibc->iac", alpha, pk)
                - np.einsum("ab,ibc->iac", beta, vals[k - 1])
            )
        hnew = _inner_products(w, wt, pnew, pnew)
        # x P_k = P_{k+1} + alpha P_k + beta P_{k-1}, orthogonal on the rule
        xnorm = hnew + alpha @ norms_m[k] @ alpha.T
        if k > 0:
            xnorm = xnorm + beta @ norms_m[k - 1] @ beta.T
        if _pencil_min(hnew, xnorm) < _PENCIL_HARD_LIMIT:
            raise ValueError(
                f"insufficient quadrature: the degree-{k + 1} norm matrix is "
                f"numerically singular on the {m}-node rule"
            )
        vals.append(pnew)
        norms_m.append(hnew)
        alphas.append(alpha)
        betas.append(beta)

        cprev = coeffs[k]
        cnew = [np.zeros((n, n))] + [c.copy() for c in cprev]
        for j, c in enumerate(cprev):
            cnew[j] = cnew[j] - alpha @ c
        if k > 0:
            for j, c in enumerate(coeffs[k - 1]):
                cnew[j] = cnew[j] - beta @ c
        coeffs.append(cnew)

    # the top norm <Phat_nmax, Phat_nmax>_W integrates a polynomial of
    # degree 2 nmax + deg W, exact on m Gauss nodes only up to 2m - 1
    deg_w = 0 if fam.kind == "scalar" else 2 * (n - 1) * (1 if fam.kind == "a" else 2)
    if m < nmax + 1 + deg_w // 2:
        raise ValueError(
            f"insufficient quadrature: the degree-{nmax} norm needs at least "
            f"{nmax + 1 + deg_w // 2} nodes, the rule has {m}"
        )

    # orthogonality diagnostic on the monic family
    stack = np.stack(vals)  # (nmax+1, m, n, n)
    gram = np.einsum("i,niab,ibc,midc->nmad", w, stack, wt, stack, optimize=True)
    scale = np.array([np.linalg.norm(norms_m[k]) for k in range(nmax + 1)])
    resid = 0.0
    for a in range(nmax + 1):
        for b in range(nmax + 1):
            if a == b:
                continue
            resid = max(
                resid,
                float(np.max(np.abs(gram[a, b])))
                / (math.sqrt(scale[a] * scale[b]) + 1e-300),
            )
    if resid > _ORTHO_HARD_LIMIT:
        raise ValueError("insufficient quadrature")

    normalizers = [_normalizer(fam, k) for k in range(nmax + 1)]
    norms = [normalizers[k] @ norms_m[k] @ normalizers[k].T for k in range(nmax + 1)]
    inv_sqrt = [_sym_inv_sqrt(h) for h in norms]

    return MOPFamily(
        weight=fam,
        nmax=nmax,
        quad=quad,
        alphas=alphas,
        betas=betas,
        monic_coeffs=coeffs,
        monic_norms=norms_m,
        normalizers=normalizers,
        norms=norms,
        inv_sqrt_norms=inv_sqrt,
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
            nxt = nxt - np.einsum("ab,...bc->...ac", al, p[k])
            if k > 0:
                nxt = nxt - np.einsum("ab,...bc->...ac", be, p[k - 1])
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
    p = _monic_values(family, x, upto, derivs=order)
    t = _tfactor_jet(family.weight, x, order)
    xm = x[..., None, None]
    env = np.exp(-0.5 * x * x)[..., None, None]
    out = [[] for _ in range(order + 1)]
    for k in range(upto):
        lead = family.inv_sqrt_norms[k] @ family.normalizers[k]
        pk = [pj[k] for pj in p]
        out[0].append(env * np.einsum("ab,...bc,...cd->...ad", lead, pk[0], t[0]))
        if order >= 1:
            inner = (
                -xm * np.einsum("...ab,...bc->...ac", pk[0], t[0])
                + np.einsum("...ab,...bc->...ac", pk[1], t[0])
                + np.einsum("...ab,...bc->...ac", pk[0], t[1])
            )
            out[1].append(env * np.einsum("ab,...bc->...ac", lead, inner))
        if order >= 2:
            q = pk[0] @ t[0]
            dq = pk[1] @ t[0] + pk[0] @ t[1]
            ddq = pk[2] @ t[0] + 2.0 * (pk[1] @ t[1]) + pk[0] @ t[2]
            out[2].append(env * (lead @ ((xm * xm - 1.0) * q - 2.0 * xm * dq + ddq)))
    return [np.stack(stack) for stack in out]


def phi_all(family: MOPFamily, x, upto: int) -> np.ndarray:
    """Orthonormal functions Phi_0..Phi_{upto-1} at x: (upto, ..., N, N)."""
    return _phi_jet(family, x, upto, 0)[0]


def phi_deriv(family: MOPFamily, n: int, x) -> np.ndarray:
    """Analytic x-derivative of Phi_n."""
    return _phi_jet(family, x, n + 1, 1)[1][n]


def phi_deriv2_all(family: MOPFamily, x, upto: int) -> np.ndarray:
    """Analytic second x-derivatives of Phi_0..Phi_{upto-1} at x:
    (upto, ..., N, N)."""
    return _phi_jet(family, x, upto, 2)[2]


def _ode_coefficients(fam: WeightFamily, n: int):
    """(F2, F1(x) pieces, F0, Gamma_n) of the second-order eigenequation."""
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


def ode_residual(family: MOPFamily, n: int, x) -> np.ndarray:
    """Residual P'' F2 + P' F1 + P F0 - Gamma_n P of the normalized
    polynomial; vanishes identically for both matrix families.  A scalar
    x gives one (N, N) residual, an array x the (..., N, N) residuals at
    its points."""
    x = np.asarray(x, dtype=float)
    p, dp, ddp = _monic_values(family, x, n + 1, derivs=2)
    ln = family.normalizers[n]
    pn, dpn, ddpn = ln @ p[n], ln @ dp[n], ln @ ddp[n]
    f2, (f1c, f1l), f0, gam = _ode_coefficients(family.weight, n)
    f1 = f1c + x[..., None, None] * f1l
    return ddpn @ f2 + dpn @ f1 + pn @ f0 - gam @ pn


def family_constants(fam: WeightFamily, n: int) -> dict:
    """Closed-form contour-representation constants of the two 2x2
    families: C_n, D_n for the loop/line integral representations, the
    kernel factor B_n (and its right inverse), and the norm matrix."""
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
    return {"C": cn, "D": dn, "B": bn, "Bhat": bhat, "norm": norm}
