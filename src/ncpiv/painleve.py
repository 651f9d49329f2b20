"""Coupled matrix ODE systems for the non-commutative Painleve IV flow:
the (y, z, z', u) system and its Lax pair in both variants, the symmetric
(q, r) formulation, analytic higher-derivative recursions, and the scalar
Painleve IV reductions.

The evaluators of the coupled system take a single state or a stacked
one, whose fields carry a leading axis (a whole trajectory, as in
Trajectory.stacked) and whose s has that leading shape; one formula
serves both, with matrix products over the last two axes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .matcore import _COND_LIMIT as _GRAM_COND_LIMIT
from .matcore import anticommutator, commutator

__all__ = [
    "PIVState",
    "SymState",
    "Trajectory",
    "v_term",
    "rhs",
    "integrate",
    "analytic_derivatives",
    "ncpiv_residual",
    "lax_matrices",
    "lax_compat_residual",
    "sym_rhs",
    "integrate_sym",
    "sym_lax_matrices",
    "sym_compat_residual",
    "sym_residuals",
    "scalar_piv_residual",
    "scalar_derived_residual",
    "integrate_scalar_piv",
]

_BLOWUP = 1e8
_MAX_STEPS = 10**6
_COND_LIMIT = 1e10

J2 = np.diag([1.0, 0.0])
J3 = np.diag([2.0, 1.0, 0.0])
_I2 = np.eye(2)
_I3 = np.eye(3)
# exponent matrix entering the top-left residue block: J2 for the square
# variant, 2 J2 for the rectangular one
_JTOP = {"a": J2, "b": 2.0 * J2}
# J2 and Jtop are diagonal, so the commutators with them are entrywise
# products: 2 [J2, m] = _J2_COMM * m and 2 [m, Jtop] = _JTOP_COMM[variant] * m
_J2_COMM = np.array([[0.0, 2.0], [-2.0, 0.0]])
_JTOP_COMM = {"a": -_J2_COMM, "b": -2.0 * _J2_COMM}
# V = 4 J2 + (y * _V_COLS) y^dagger for rectangular y (-2 y J3 = y * _V_COLS)
_4J2 = 4.0 * J2
_V_COLS = -2.0 * np.diag(J3)


@dataclass(frozen=True)
class PIVState:
    """State of the coupled first-order system.

    y is 2x2 (variant "a") or 2x3 (variant "b"); z, zp (= z'), u are
    2x2.  The closure y' = (u - 2s) y makes the system first order.
    A stacked state carries a leading axis on every field, s included.
    """

    s: float
    y: np.ndarray
    z: np.ndarray
    zp: np.ndarray
    u: np.ndarray
    variant: str
    n: int

    def __post_init__(self):
        if self.variant not in ("a", "b"):
            raise ValueError("variant must be 'a' or 'b'")
        cols = 2 if self.variant == "a" else 3
        if np.shape(self.y)[-2:] != (2, cols):
            raise ValueError("y has the wrong shape for the variant")
        for name in ("z", "zp", "u"):
            if np.shape(getattr(self, name))[-2:] != (2, 2):
                raise ValueError(f"{name} must be 2x2")


@dataclass(frozen=True)
class SymState:
    """State of the symmetric second-order system in (q, r)."""

    s: float
    q: np.ndarray
    qp: np.ndarray
    r: np.ndarray
    rp: np.ndarray
    variant: str
    n: int

    def __post_init__(self):
        if self.variant not in ("a", "b"):
            raise ValueError("variant must be 'a' or 'b'")
        cols = 2 if self.variant == "a" else 3
        if np.shape(self.q)[-2:] != (2, cols) or np.shape(self.r)[-2:] != (cols, 2):
            raise ValueError("q/r have the wrong shape for the variant")


@dataclass(frozen=True)
class Trajectory:
    """The states of a flow, initial one included: `stacked` is one state
    whose fields are views into the (T, k) array of packed state vectors,
    with s of shape (T,); `states` lists them one by one."""

    stacked: PIVState | SymState
    global_error_estimate: float | None = None

    @functools.cached_property
    def states(self) -> list:
        st = self.stacked
        arrays = [f.name for f in fields(st) if f.name not in ("s", "variant", "n")]
        return [
            replace(st, s=float(s), **{f: getattr(st, f)[i] for f in arrays})
            for i, s in enumerate(st.s)
        ]


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a (stack of) matrices."""
    return m.swapaxes(-1, -2)


def _col(s):
    """s broadcast against (stacks of) matrices: a number as it is, an
    array of abscissae with two trailing unit axes."""
    return s if isinstance(s, (int, float)) else np.asarray(s)[..., None, None]


def _det_cond(m: np.ndarray):
    """Entries (a, b, c, d), determinant and 2-norm condition number of
    m = [[a, b], [c, d]], or of each matrix of a stack, in closed form:
    cond = (F^2 + sqrt(F^4 - 4 det^2)) / (2 |det|), F the Frobenius norm.
    With p2 = (a+d)^2 + (b-c)^2 and q2 = (a-d)^2 + (b+c)^2, F^2 = (p2 + q2)/2
    and F^4 - 4 det^2 = p2 q2, which keeps the root free of cancellation
    for a near-orthogonal m.  cond is not finite (inf or NaN) where det = 0
    or an entry is not finite.

    A single matrix runs in Python floats from m.tolist(), whose arithmetic
    costs a fraction of numpy's on scalars; a stack runs the same operations
    on arrays, so a matrix gives bitwise the same numbers alone and stacked."""
    if m.ndim == 2:
        (a, b), (c, d) = m.tolist()
        det, num = _det_num(a, b, c, d, math.sqrt)
        # a Python float raises on a zero divisor where an array gives inf
        return (a, b, c, d), det, num / (2.0 * abs(det)) if det != 0 else math.inf
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    with np.errstate(all="ignore"):
        det, num = _det_num(a, b, c, d, np.sqrt)
        return (a, b, c, d), det, num / (2.0 * abs(det))


def _det_num(a, b, c, d, sqrt):
    """det and the numerator F^2 + sqrt(F^4 - 4 det^2) of _det_cond."""
    p2 = (a + d) * (a + d) + (b - c) * (b - c)
    q2 = (a - d) * (a - d) + (b + c) * (b + c)
    return a * d - b * c, 0.5 * (p2 + q2) + sqrt(p2 * q2)


def _inv2(m: np.ndarray, limit: float) -> np.ndarray:
    """Inverse adj(m) / det(m) of a 2x2 matrix m, or of each matrix of a
    stack, bitwise the same alone and stacked.  Raises "y singular" when
    the condition number of any m is above limit or not finite."""
    (a, b, c, d), det, cond = _det_cond(m)
    if m.ndim == 2:
        if not cond <= limit:
            raise ValueError("y singular")
        return np.array([[d / det, -b / det], [-c / det, a / det]])
    if not (cond <= limit).all():
        raise ValueError("y singular")
    return np.stack([d, -b, -c, a], axis=-1).reshape(m.shape) / det[..., None, None]


def _yinv(variant: str, y: np.ndarray) -> np.ndarray:
    """Inverse (variant a) or right inverse y^T (y y^T)^{-1} (variant b)
    of y, or of each y of a stack.  Raises "y singular" when any y (for
    variant b its Gram y y^T) is not finite or has a condition number
    above the limit."""
    if variant == "a":
        return _inv2(y, _COND_LIMIT)
    return _t(y) @ _inv2(y @ _t(y), _GRAM_COND_LIMIT)


def v_term(variant: str, y: np.ndarray) -> np.ndarray:
    """The variant-dependent source term: 2 [J2, y] y^{-1} for square y,
    4 J2 - 2 y J3 y^dagger for rectangular y."""
    yi = _yinv(variant, y)
    if variant == "a":
        return (_J2_COMM * y) @ yi
    return _4J2 + (y * _V_COLS) @ yi


def rhs(state: PIVState):
    """Derivatives (y', z', zp', u') of the coupled system:
    y' = (u - 2s) y,  u' = -u^2 + 2su + 4z - 2nI + V,
    z'' = 2u'z + 2uz' - 2sz' + 2[z, Jtop].

    The commutator term in z'' (absent in the commuting case) is forced
    by the Lax compatibility condition; without it the (2,1) block of
    dA/ds - dU/dlam - [U, A] is exactly 2 y^{-1} [Jtop, z] / lam.
    """
    s2, y, z, zp, u = 2.0 * _col(state.s), state.y, state.z, state.zp, state.u
    up = v_term(state.variant, y) - u @ u + s2 * u + 4.0 * z - (2.0 * state.n) * _I2
    yd = u @ y - s2 * y
    zpd = 2.0 * (up @ z + u @ zp) - s2 * zp + _JTOP_COMM[state.variant] * z
    return yd, zp, zpd, up


_PIV_FIELDS = ("y", "z", "zp", "u")
_SYM_FIELDS = ("q", "qp", "r", "rp")


def _layout(proto, fields: tuple) -> tuple:
    """Where each field of states like proto sits in a packed vector, as
    (name, column slice, transposed) per field; worked out once per flow.
    The vector is a row-major 2 x w matrix whose consecutive column blocks
    are the fields, so one reshape and a slice per field unpack it; a
    field with more than two rows (r, r' of the rectangular symmetric
    system) has two columns and sits there transposed."""
    layout, lo = [], 0
    for f in fields:
        rows, cols = getattr(proto, f).shape
        width = rows if rows != 2 else cols
        layout.append((f, slice(lo, lo + width), rows != 2))
        lo += width
    return tuple(layout)


def _pack(parts, layout: tuple) -> np.ndarray:
    """The packed vector of parts: one matrix per field of layout, in its
    order (the fields of a state, or their derivatives)."""
    return np.concatenate([_t(p) if flip else p for p, (_, _, flip) in zip(parts, layout)], axis=-1).ravel()


def _unpack(vec: np.ndarray, proto, layout: tuple, s):
    """The state like proto at s packed in vec's last axis; a leading axis
    of vec (and s) becomes a leading axis of every field.  Built without
    __post_init__, which would run on every RK stage: the fields take the
    shapes of proto, validated once."""
    m = vec.reshape(vec.shape[:-1] + (2, -1))
    state = object.__new__(type(proto))
    vars(state).update(
        {f: _t(m[..., cols]) if flip else m[..., cols] for f, cols, flip in layout},
        s=s,
        variant=proto.variant,
        n=proto.n,
    )
    return state


def _check_single(state, fields: tuple) -> None:
    """A flow packs one state into one vector; a stacked one would not fit."""
    if np.ndim(state.s) != 0 or any(np.ndim(getattr(state, f)) != 2 for f in fields):
        raise ValueError("a flow starts from a single state, not a stacked one")


def _rk4(flow, vec0: np.ndarray, s0: float, s_end: float, h: float):
    """Classical fixed-step RK4 for vec' = flow(vec, s) from s0 to s_end;
    returns the abscissae and the state vectors, the initial ones included,
    as arrays of shapes (T,) and (T,) + vec0.shape.  A ValueError inside a
    stage and a blow-up (non-finite state or norm above _BLOWUP) both name
    the s at the end of the failing step."""
    if h <= 0:
        raise ValueError("step must be positive")
    if abs(s_end - s0) / h > _MAX_STEPS:
        raise ValueError("too many steps")
    dt = h if s_end >= s0 else -h
    s, vec = s0, vec0
    ss, vecs = [s], [vec]
    for _ in range(int(round(abs(s_end - s0) / h))):
        try:
            k1 = flow(vec, s)
            k2 = flow(vec + 0.5 * dt * k1, s + 0.5 * dt)
            k3 = flow(vec + 0.5 * dt * k2, s + 0.5 * dt)
            k4 = flow(vec + dt * k3, s + dt)
        except ValueError as exc:
            raise ValueError(f"{exc} at s={s + dt:.6g}") from exc
        vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += dt
        # false for a NaN or inf entry as for a norm above _BLOWUP
        if not vec @ vec <= _BLOWUP * _BLOWUP:
            raise ValueError(f"singularity encountered at s={s:.6g}")
        ss.append(s)
        vecs.append(vec)
    return np.array(ss), np.array(vecs)


def integrate(
    state0: PIVState, s_end: float, h: float, error_estimate: bool = False
) -> Trajectory:
    """Classical fixed-step fourth-order integration from state0.s to
    s_end; optionally reports a step-halving estimate of the endpoint
    global error."""
    _check_single(state0, _PIV_FIELDS)
    layout = _layout(state0, _PIV_FIELDS)

    def flow(vec, s):
        return _pack(rhs(_unpack(vec, state0, layout, s)), layout)

    vec0 = _pack([getattr(state0, f) for f in _PIV_FIELDS], layout)
    ss, vecs = _rk4(flow, vec0, state0.s, s_end, h)
    err = None
    if error_estimate:
        fine = _rk4(flow, vec0, state0.s, s_end, h / 2.0)[1]
        err = float(np.linalg.norm(vecs[-1] - fine[-1]))
    return Trajectory(_unpack(vecs, state0, layout, ss), global_error_estimate=err)


def _v_derivatives(state: PIVState, yd, ydd):
    """V, V', V'' at the state given y', y''."""
    y = state.y
    if state.variant == "a":
        yi = _yinv("a", y)
        v = (_J2_COMM * y) @ yi
        vp = (_J2_COMM * yd) @ yi - v @ yd @ yi
        vpp = (
            (_J2_COMM * ydd) @ yi
            - (_J2_COMM * yd) @ yi @ yd @ yi
            - vp @ yd @ yi
            - v @ ydd @ yi
            + v @ yd @ yi @ yd @ yi
        )
        return v, vp, vpp
    # rectangular: V = 4 J2 - 2 S P with S = y J3 y^T, P = (y y^T)^{-1}
    yt, ydt, yddt = _t(y), _t(yd), _t(ydd)
    p = _inv2(y @ yt, _GRAM_COND_LIMIT)
    sym = y @ J3 @ yt
    m = yd @ yt + y @ ydt
    pp = -p @ m @ p
    symp = yd @ J3 @ yt + y @ J3 @ ydt
    mp = ydd @ yt + 2.0 * yd @ ydt + y @ yddt
    ppp = -pp @ m @ p - p @ mp @ p - p @ m @ pp
    sympp = ydd @ J3 @ yt + 2.0 * yd @ J3 @ ydt + y @ J3 @ yddt
    v = 4.0 * J2 - 2.0 * sym @ p
    vp = -2.0 * (symp @ p + sym @ pp)
    vpp = -2.0 * (sympp @ p + 2.0 * symp @ pp + sym @ ppp)
    return v, vp, vpp


def analytic_derivatives(state: PIVState) -> dict:
    """Closed-form s-derivatives at a state: y', y'', z', z'', u', u'',
    u''', V, V', V''; everything needed by the residual evaluators."""
    s, y, z, zp, u = _col(state.s), state.y, state.z, state.zp, state.u
    yd, zd, zpd, up = rhs(state)
    ydd = (up - 2.0 * _I2) @ y + (u - 2.0 * s * _I2) @ yd
    v, vp, vpp = _v_derivatives(state, yd, ydd)
    upp = -(up @ u + u @ up) + 2.0 * u + 2.0 * s * up + 4.0 * zp + vp
    # zp' = z'' from the flow; its derivative gives z'''
    zppp = (
        2.0 * upp @ z
        + 4.0 * up @ zp
        + 2.0 * u @ zpd
        - 2.0 * zp
        - 2.0 * s * zpd
        + _JTOP_COMM[state.variant] * zp
    )
    uppp = -(upp @ u + 2.0 * up @ up + u @ upp) + 4.0 * up + 2.0 * s * upp + 4.0 * zpd + vpp
    return {
        "yp": yd,
        "ypp": ydd,
        "zp": zp,
        "zpp": zpd,
        "zppp": zppp,
        "up": up,
        "upp": upp,
        "uppp": uppp,
        "v": v,
        "vp": vp,
        "vpp": vpp,
    }


def ncpiv_residual(state: PIVState, vblock_sign: float = -1.0, derivs: dict | None = None) -> np.ndarray:
    """Third-order matrix Painleve IV residual along the flow:

        u''' + [u'', u] - 4(n+1+s^2) u' - 2({u', u^2} + u u' u)
        + 6s {u', u} + 4u(u - sI) + sign * ((V' - 2uV)' + 2sV')
        - 2 [u' + u^2 - 2su - V, Jtop].

    The final commutator (the eliminated 8[z, Jtop]) accompanies the
    commutator correction in z''; it vanishes in the commuting case.
    The sign of the V-block that actually vanishes along trajectories is
    the default -1 (see tests for the cross-check against +1).  derivs,
    when given, is analytic_derivatives(state), computed once for several
    residuals.
    """
    d = analytic_derivatives(state) if derivs is None else derivs
    s, u, n = _col(state.s), state.u, state.n
    up, upp, uppp = d["up"], d["upp"], d["uppp"]
    v, vp, vpp = d["v"], d["vp"], d["vpp"]
    core = (
        uppp
        + commutator(upp, u)
        - 4.0 * (n + 1.0 + s * s) * up
        - 2.0 * (anticommutator(up, u @ u) + u @ up @ u)
        + 6.0 * s * anticommutator(up, u)
        + 4.0 * u @ (u - s * _I2)
    )
    vblock = vpp - 2.0 * (up @ v + u @ vp) + 2.0 * s * vp
    elim = _JTOP_COMM[state.variant] * (up + u @ u - 2.0 * s * u - v)
    return core + vblock_sign * vblock - elim


def _block_matrix(lead: tuple, p: int, lam) -> np.ndarray:
    """Zero (2+p)x(2+p) matrices with leading shape lead, of the dtype of
    the spectral parameter."""
    return np.zeros(lead + (2 + p, 2 + p), dtype=np.result_type(float, type(lam)))


def lax_matrices(state: PIVState):
    """The pair (A(lam), U(lam)) whose compatibility encodes the flow.
    Returned as callables of the spectral parameter."""
    s, y, z, zp, u, n = _col(state.s), state.y, state.z, state.zp, state.u, state.n
    yi = _yinv(state.variant, y)
    jbot, ip = (J2, _I2) if state.variant == "a" else (J3, _I3)
    p, lead = len(ip), y.shape[:-2]

    am1_11 = (n / 2.0) * _I2 - z - _JTOP[state.variant]
    am1_12 = -0.5 * u @ y
    am1_21 = yi @ zp - yi @ u @ z
    am1_22 = yi @ z @ y - (n / 2.0) * ip - jbot
    u21 = -2.0 * yi @ z

    def amat(lam):
        if lam == 0:
            raise ValueError("pole of A")
        m = _block_matrix(lead, p, lam)
        m[..., :2, :2] = (lam - s) * _I2 + am1_11 / lam
        m[..., :2, 2:] = y + am1_12 / lam
        m[..., 2:, :2] = 2.0 * yi @ z + am1_21 / lam
        m[..., 2:, 2:] = -(lam - s) * ip + am1_22 / lam
        return m

    def umat(lam):
        m = _block_matrix(lead, p, lam)
        m[..., :2, :2] = -lam * _I2
        m[..., :2, 2:] = -y
        m[..., 2:, :2] = u21
        m[..., 2:, 2:] = lam * ip
        return m

    return amat, umat


def lax_compat_residual(state: PIVState, lam: complex, derivs: dict | None = None) -> np.ndarray:
    """d/ds A(lam) - d/dlam U(lam) - [U(lam), A(lam)]; vanishes along
    trajectories of the flow.  derivs, when given, is
    analytic_derivatives(state)."""
    if lam == 0:
        raise ValueError("pole of A")
    y, z, zp, u = state.y, state.z, state.zp, state.u
    d = analytic_derivatives(state) if derivs is None else derivs
    yd, zd, zpd, up = d["yp"], d["zp"], d["zpp"], d["up"]
    yi = _yinv(state.variant, y)
    if state.variant == "a":
        yid = -yi @ yd @ yi
        ip = _I2
    else:
        pmat = _inv2(y @ _t(y), _GRAM_COND_LIMIT)
        pd = -pmat @ (yd @ _t(y) + y @ _t(yd)) @ pmat
        yid = _t(yd) @ pmat + _t(y) @ pd
        ip = _I3

    ds = _block_matrix(y.shape[:-2], len(ip), lam)
    ds[..., :2, :2] = -_I2 - zd / lam
    ds[..., :2, 2:] = yd - (up @ y + u @ yd) / (2.0 * lam)
    ds[..., 2:, :2] = 2.0 * (yid @ z + yi @ zd) + (
        yid @ zp + yi @ zpd - yid @ u @ z - yi @ up @ z - yi @ u @ zd
    ) / lam
    ds[..., 2:, 2:] = ip + (yid @ z @ y + yi @ zd @ y + yi @ z @ yd) / lam
    return _compat_tail(ds, lax_matrices(state), lam)


def _compat_tail(ds: np.ndarray, matrices, lam: complex) -> np.ndarray:
    """ds - d/dlam U - [U, A] at lam for (A, U) = matrices and ds = d/ds A;
    d/dlam U = diag(-I_2, I_p) in both formulations."""
    amat, umat = matrices
    a, um = amat(lam), umat(lam)
    dlam_u = np.diag([-1.0, -1.0] + [1.0] * (um.shape[-1] - 2))
    return ds - dlam_u - (um @ a - a @ um)


# ---------------------------------------------------------------------
# symmetric formulation


def sym_rhs(state: SymState):
    """Derivatives (q', q'', r', r'') of the symmetric system:

        q'' = -2sq' + 2qrq - 2(n+1)q - 2 q Jbot + (c/2) J2 q,
        r'' =  2sr' + 2rqr - 2(n-1)r + (c/2) r J2 - 2 Jbot r,

    with (c, Jbot) = (4, J2) for variant a and (8, J3) for variant b.
    These are exactly the equations forced by the Lax compatibility of
    sym_lax_matrices, so the compatibility residual vanishes
    identically along this flow.
    """
    s, q, qp, r, rp, n = _col(state.s), state.q, state.qp, state.r, state.rp, state.n
    if state.variant == "a":
        ct, jbot = 4.0, J2
    else:
        ct, jbot = 8.0, J3
    qpp = (
        -2.0 * s * qp
        + 2.0 * q @ r @ q
        - 2.0 * (n + 1.0) * q
        - 2.0 * q @ jbot
        + (ct / 2.0) * J2 @ q
    )
    rpp = (
        2.0 * s * rp
        + 2.0 * r @ q @ r
        - 2.0 * (n - 1.0) * r
        + (ct / 2.0) * r @ J2
        - 2.0 * jbot @ r
    )
    return qp, qpp, rp, rpp


def integrate_sym(state0: SymState, s_end: float, h: float) -> Trajectory:
    """Fixed-step fourth-order integration of the symmetric system."""
    _check_single(state0, _SYM_FIELDS)
    layout = _layout(state0, _SYM_FIELDS)

    def flow(vec, s):
        return _pack(sym_rhs(_unpack(vec, state0, layout, s)), layout)

    vec0 = _pack([getattr(state0, f) for f in _SYM_FIELDS], layout)
    ss, vecs = _rk4(flow, vec0, state0.s, s_end, h)
    return Trajectory(_unpack(vecs, state0, layout, ss))


def sym_lax_matrices(state: SymState):
    """(A(lam), U(lam)) of the symmetric formulation, with the residue
    block built from rho'_R = -2qr and rho'_L = -2rq (the normalization
    under which the compatibility residual closes; see sym_residuals
    for the alternative-normalization report)."""
    s, q, qp, r, rp, n = _col(state.s), state.q, state.qp, state.r, state.rp, state.n
    if state.variant == "a":
        ctop, jbot, ip = 4.0, J2, _I2
    else:
        ctop, jbot, ip = 8.0, J3, _I3
    p, lead = len(ip), q.shape[:-2]
    rho_rp = -2.0 * q @ r
    rho_lp = -2.0 * r @ q
    res11 = rho_rp + 2.0 * n * _I2 - ctop * J2
    res12 = 4.0 * s * q + 2.0 * qp
    res21 = 4.0 * s * r - 2.0 * rp
    res22 = -rho_lp - 2.0 * n * ip - 4.0 * jbot

    def amat(lam):
        if lam == 0:
            raise ValueError("pole of A")
        m = _block_matrix(lead, p, lam)
        m[..., :2, :2] = (lam - s) * _I2 + res11 / (4.0 * lam)
        m[..., :2, 2:] = -q + res12 / (4.0 * lam)
        m[..., 2:, :2] = -r + res21 / (4.0 * lam)
        m[..., 2:, 2:] = -(lam - s) * ip + res22 / (4.0 * lam)
        return m

    def umat(lam):
        m = _block_matrix(lead, p, lam)
        m[..., :2, :2] = -lam * _I2
        m[..., :2, 2:] = q
        m[..., 2:, :2] = r
        m[..., 2:, 2:] = lam * ip
        return m

    return amat, umat


def sym_compat_residual(state: SymState, lam: complex) -> np.ndarray:
    """d/ds A - d/dlam U - [U, A] for the symmetric pair."""
    if lam == 0:
        raise ValueError("pole of A")
    s, q, r = _col(state.s), state.q, state.r
    qd, qdd, rd, rdd = sym_rhs(state)
    ip = _I2 if state.variant == "a" else _I3
    rho_rpp = -2.0 * (qd @ r + q @ rd)
    rho_lpp = -2.0 * (rd @ q + r @ qd)

    ds = _block_matrix(q.shape[:-2], len(ip), lam)
    ds[..., :2, :2] = -_I2 + rho_rpp / (4.0 * lam)
    ds[..., :2, 2:] = -qd + (4.0 * q + 4.0 * s * qd + 2.0 * qdd) / (4.0 * lam)
    ds[..., 2:, :2] = -rd + (4.0 * r + 4.0 * s * rd - 2.0 * rdd) / (4.0 * lam)
    ds[..., 2:, 2:] = ip - rho_lpp / (4.0 * lam)
    return _compat_tail(ds, sym_lax_matrices(state), lam)


def sym_residuals(state: SymState, lams=(1.0, -1.0, 2j, -2j, 0.5)) -> dict:
    """Diagnostic report for the symmetric system at a state: Lax
    compatibility residual at sample spectral points, and the
    discrepancy d/ds[rho_R formula] + c qr (resp. rho_L) for both
    candidate normalizations c in {1, 2}.  The rho rows are
    informational only."""
    s, q, r = state.s, state.q, state.r
    qd, qdd, rd, rdd = sym_rhs(state)
    compat = {lam: float(np.max(np.abs(sym_compat_residual(state, lam)))) for lam in lams}
    drho_r = 2.0 * q @ r + 2.0 * s * (qd @ r + q @ rd) + qdd @ r - q @ rdd
    drho_l = 2.0 * r @ q + 2.0 * s * (rd @ q + r @ qd) + rdd @ q - r @ qdd
    rho_r = {c: float(np.max(np.abs(drho_r + c * q @ r))) for c in (1.0, 2.0)}
    rho_l = {c: float(np.max(np.abs(drho_l + c * r @ q))) for c in (1.0, 2.0)}
    return {"compat": compat, "rho_R": rho_r, "rho_L": rho_l}


# ---------------------------------------------------------------------
# scalar reductions


def _scalar_piv_upp(u: float, up: float, s: float, n: float) -> float:
    """u'' from the Painleve IV equation of scalar_piv_residual."""
    if u == 0:
        raise ValueError("PIV singular term")
    return (
        up * up / (2.0 * u)
        + 1.5 * u**3
        - 4.0 * s * u * u
        + 2.0 * (s * s + 1.0 + n) * u
        - 2.0 * n * n / u
    )


def scalar_piv_residual(u: float, up: float, upp: float, s: float, n: float) -> float:
    """Residual of the standard Painleve IV equation
    u'' = u'^2/(2u) + (3/2)u^3 - 4su^2 + 2(s^2+1+n)u - 2n^2/u."""
    return upp - _scalar_piv_upp(u, up, s, n)


def scalar_derived_residual(
    u: float,
    up: float,
    upp: float,
    uppp: float,
    s: float,
    n: float,
    reading: str = "12s uu'",
) -> float:
    """Residual of the third-order scalar equation, with the cross term
    either 12s u u' (the commuting reduction of the matrix equation) or
    12 u' u (as printed in the source remark); both are provided so the
    two readings can be compared."""
    cross = 12.0 * s * u * up if reading == "12s uu'" else 12.0 * up * u
    return (
        uppp
        - 4.0 * (n + 1.0 + s * s) * up
        - 6.0 * u * u * up
        + cross
        + 4.0 * u * u
        - 4.0 * s * u
    )


def scalar_piv_third_derivative(u: float, up: float, s: float, n: float) -> float:
    """u''' along a Painleve IV solution, by differentiating the
    right-hand side of the equation."""
    upp = _scalar_piv_upp(u, up, s, n)
    return (
        up * upp / u
        - up**3 / (2.0 * u * u)
        + 4.5 * u * u * up
        - 8.0 * s * u * up
        - 4.0 * u * u
        + 2.0 * (s * s + 1.0 + n) * up
        + 4.0 * s * u
        + 2.0 * n * n * up / (u * u)
    )


def integrate_scalar_piv(u0: float, up0: float, s0: float, s_end: float, h: float, n: float):
    """Fixed-step fourth-order integration of scalar Painleve IV;
    returns arrays (s, u, u')."""

    def flow(vec, s):
        # numpy scalars, not a sliced array: u**3 must round as for a float
        return np.array([vec[1], _scalar_piv_upp(vec[0], vec[1], s, n)])

    ss, vecs = _rk4(flow, np.array([u0, up0], dtype=float), s0, s_end, h)
    return ss, vecs[:, 0], vecs[:, 1]
