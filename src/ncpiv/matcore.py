"""Small dense matrix helpers used throughout the package.

Matrices are plain numpy arrays (real or complex).  Everything here is
pure and works on values, never in place.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "nilpotent_shift",
    "exponent_diag",
    "nilpotent_exp",
    "power_conjugate",
    "right_inverse",
    "commutator",
    "anticommutator",
]

_NILPOTENT_TOL = 1e-12
_COND_LIMIT = 1e12


def nilpotent_shift(n: int, nu: float) -> np.ndarray:
    """Strictly upper-triangular matrix with nu on the first superdiagonal."""
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1] = nu
    return m


def exponent_diag(n: int, scale: int = 1) -> np.ndarray:
    """Integer exponent vector (scale*(n-1), ..., scale, 0)."""
    return scale * np.arange(n - 1, -1, -1)


def nilpotent_exp(a: np.ndarray, x) -> np.ndarray:
    """exp(a*x) for a nilpotent matrix a, as the exact terminating sum.

    A scalar x gives one (n, n) matrix; an array of x values of shape
    (k,) gives the stack (k, n, n).  Raises ValueError if a**rows is not
    numerically zero.
    """
    a = np.asarray(a)
    x = np.asarray(x)
    n = a.shape[0]
    power = np.linalg.matrix_power(a, n)
    if np.max(np.abs(power)) > _NILPOTENT_TOL:
        raise ValueError("not nilpotent")
    eye = np.eye(n, dtype=np.result_type(a.dtype, x.dtype))
    out = np.broadcast_to(eye, x.shape + (n, n)).copy()
    term = out
    for k in range(1, n):
        term = term @ a * (x[..., None, None] / k)
        out = out + term
    return out


def power_conjugate(d_left, m: np.ndarray, z, d_right=None) -> np.ndarray:
    """Entrywise m[i,j] * z**(d_left[i] - d_right[j]) with integer exponents.

    This realizes the sandwich z**D_left @ m @ z**(-D_right) without ever
    evaluating a complex logarithm, so the result is single-valued in z.
    d_right defaults to d_left.  A scalar z gives one (r, c) matrix; an
    array of nodes of shape (k,) gives the stack (k, r, c).
    """
    d_left = np.asarray(d_left, dtype=int)
    if d_right is None:
        d_right = d_left
    d_right = np.asarray(d_right, dtype=int)
    exps = d_left[:, None] - d_right[None, :]
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0) and np.any(exps < 0):
        raise ValueError("pole at origin")
    return m * z[..., None, None] ** exps


def right_inverse(m: np.ndarray) -> np.ndarray:
    """m^T (m m^T)^{-1}: the right inverse with M M^+ = I for full row rank m.

    For square m this is the ordinary inverse.  Rejects rank-deficient
    inputs (condition number of m m^T above 1e12).
    """
    m = np.asarray(m, dtype=float) if np.isrealobj(m) else np.asarray(m)
    gram = m @ m.conj().T
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > _COND_LIMIT:
        raise ValueError("rank deficient")
    return m.conj().T @ np.linalg.inv(gram)


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def anticommutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y + y @ x
