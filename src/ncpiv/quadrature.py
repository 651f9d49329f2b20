"""Discretized integration rules: Gauss-Hermite on the real line,
trapezoidal rules on circles and truncated vertical lines in the complex
plane, and adaptive Gauss-Legendre panels for Gaussian-tail integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadRule",
    "gauss_hermite",
    "compensated_weights",
    "circle_rule",
    "vline_rule",
    "integrate",
    "tail_integral",
    "lower_tail_integral",
    "lower_tail_rule",
    "check_contour_ordering",
]

DEFAULT_CIRCLE_NODES = 256
DEFAULT_LINE_ABSCISSA = 2.0
DEFAULT_LINE_NODES = 400

_PANEL_WIDTH = 1.0
_PANEL_ORDER = 32
_PANEL_TOL = 1e-14
_MAX_PANELS = 400


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights so that integral(f) ~ sum(weights * f(nodes))."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str  # real-line | circle | vline | panel


def gauss_hermite(m: int) -> QuadRule:
    """Gauss-Hermite rule: integral of f(x) e^{-x^2} dx over R.

    Exact for polynomial f of degree <= 2m-1; the Gaussian factor is
    absorbed into the weights.
    """
    if m < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.hermite.hermgauss(m)
    return QuadRule(nodes=x, weights=w, kind="real-line")


def compensated_weights(rule: QuadRule) -> np.ndarray:
    """Gauss-Hermite weights times e^{x^2}, for integrands that carry
    their own Gaussian decay.  Underflowed extreme weights stay zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = rule.weights * np.exp(rule.nodes.real**2)
    return np.nan_to_num(w, nan=0.0, posinf=0.0)


def circle_rule(r: float, m: int = DEFAULT_CIRCLE_NODES) -> QuadRule:
    """Trapezoidal rule for a counterclockwise circle |z| = r.

    Spectrally accurate for integrands analytic in an annulus around
    the circle.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    theta = 2.0 * np.pi * np.arange(m) / m
    nodes = r * np.exp(1j * theta)
    weights = nodes * (2j * np.pi / m)
    return QuadRule(nodes=nodes, weights=weights, kind="circle")


def vline_rule(L: float, T: float | None = None, m: int = DEFAULT_LINE_NODES) -> QuadRule:
    """Trapezoidal rule for the vertical segment L + i[-T, T].

    The default truncation keeps the Gaussian envelope e^{L^2 - t^2}
    below 1e-17 at the endpoints.
    """
    if T is None:
        T = math.sqrt(L * L + 40.0)
    t = np.linspace(-T, T, m)
    dt = t[1] - t[0]
    w = np.full(m, dt, dtype=complex)
    w[0] *= 0.5
    w[-1] *= 0.5
    return QuadRule(nodes=L + 1j * t, weights=1j * w, kind="vline")


def check_contour_ordering(circle: QuadRule, line: QuadRule) -> None:
    """The loop must sit strictly left of the vertical line."""
    r = np.max(np.abs(circle.nodes))
    L = float(np.min(line.nodes.real))
    if r >= L:
        raise ValueError("contours intersect ordering")


def integrate(rule: QuadRule, f) -> np.ndarray | complex:
    """Sum of weights * f(node); f is evaluated on the node array."""
    vals = f(rule.nodes)
    return np.tensordot(rule.weights, np.asarray(vals), axes=(0, 0))


@lru_cache(maxsize=None)
def _reference_panel() -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule on [-1, 1], computed once; read-only."""
    x, w = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _legendre_panel(a: float, b: float):
    x, w = _reference_panel()
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def lower_tail_integral(f, s: float, scale: float = 1.0) -> np.ndarray:
    """integral of f over (-inf, s] by Gauss-Legendre panels stepping
    left from s until a panel contributes less than 1e-14 * scale.

    Raises ValueError("divergent tail") for non-decaying integrands.
    """
    left = None
    edge = s
    small_streak = 0
    prev = math.inf
    growing = 0
    for _ in range(_MAX_PANELS):
        x, w = _legendre_panel(edge - _PANEL_WIDTH, edge)
        contrib = np.tensordot(w, np.asarray(f(x)), axes=(0, 0))
        left = contrib if left is None else left + contrib
        edge -= _PANEL_WIDTH
        size = float(np.max(np.abs(contrib)))
        if size > prev:
            growing += 1
            if growing > 60:
                raise ValueError("divergent tail")
        prev = size
        if size < _PANEL_TOL * scale:
            small_streak += 1
            if small_streak >= 2 and edge < -2.0:
                break
        else:
            small_streak = 0
    else:
        raise ValueError("divergent tail")
    return left


def lower_tail_rule(s: float, depth: float = 12.0) -> QuadRule:
    """Gauss-Legendre panel rule covering [min(s, 0) - depth, s].

    For Gaussian-type integrands the omitted tail beyond the left
    endpoint is negligible *relative to the integral itself*: at
    distance d past |s| the envelope carries an extra factor
    e^{-2d|s| - d^2}, below 1e-36 for the default depth."""
    a = min(s, 0.0) - depth
    edges = np.linspace(a, s, max(2, int(math.ceil(s - a)) + 1))
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = _legendre_panel(lo, hi)
        xs.append(x)
        ws.append(w)
    return QuadRule(nodes=np.concatenate(xs), weights=np.concatenate(ws), kind="panel")


def tail_integral(f, s: float, full_rule: QuadRule | None = None) -> np.ndarray:
    """integral of f over [s, inf) for integrands decaying like
    poly * e^{-x^2}.

    Computed as integral over R (Gauss-Hermite with compensated weights)
    minus the lower-tail panel integral over (-inf, s].
    """
    if full_rule is None:
        full_rule = gauss_hermite(200)
    wfull = compensated_weights(full_rule)
    total = np.tensordot(wfull, np.asarray(f(full_rule.nodes)), axes=(0, 0))
    scale = max(1.0, float(np.max(np.abs(total))))
    left = lower_tail_integral(f, s, scale=scale)
    return total - left
