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
    "default_contours",
    "default_core",
    "tail_integral",
    "lower_tail_integral",
    "lower_tail_rule",
    "panel_rule",
]

DEFAULT_CIRCLE_NODES = 256
DEFAULT_CIRCLE_RADIUS = 1.0
DEFAULT_LINE_ABSCISSA = 2.0
DEFAULT_LINE_NODES = 400

_PANEL_WIDTH = 1.0
PANEL_ORDER = 32
_PANEL_TOL = 1e-14
_MAX_PANELS = 400
# left end of a lower-tail rule below min(s, 0); see lower_tail_rule
TAIL_DEPTH = 12.0


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
    x, w = _hermite_rule(m)
    return QuadRule(nodes=x, weights=w, kind="real-line")


@lru_cache(maxsize=None)
def _hermite_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss-Hermite nodes and weights, computed once; read-only.

    numpy's rule overflows to NaN weights from m = 372 on; such a rule
    raises ValueError rather than reaching a caller."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, w = np.polynomial.hermite.hermgauss(m)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise ValueError(f"the {m}-node Gauss-Hermite rule is not finite")
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


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


def vline_rule(L: float, m: int = DEFAULT_LINE_NODES) -> QuadRule:
    """Trapezoidal rule for the vertical segment L + i[-T, T], with
    T = sqrt(L^2 + 40): the Gaussian envelope e^{L^2 - t^2} is below
    1e-17 at the endpoints.
    """
    T = math.sqrt(L * L + 40.0)
    t = np.linspace(-T, T, m)
    dt = t[1] - t[0]
    w = np.full(m, dt, dtype=complex)
    w[0] *= 0.5
    w[-1] *= 0.5
    return QuadRule(nodes=L + 1j * t, weights=1j * w, kind="vline")


@lru_cache(maxsize=None)
def default_contours() -> tuple[QuadRule, QuadRule]:
    """The kernel contours, the circle |z| = 1 and the line Re w = 2,
    built once per process; read-only.  The circle lies left of the
    line, as the double-integral kernel needs."""
    rules = (circle_rule(DEFAULT_CIRCLE_RADIUS), vline_rule(DEFAULT_LINE_ABSCISSA))
    for rule in rules:
        rule.nodes.flags.writeable = False
        rule.weights.flags.writeable = False
    return rules


@lru_cache(maxsize=None)
def default_core() -> np.ndarray:
    """The Cauchy matrix 1/(w - z) of the default_contours() circle
    nodes z (rows) and line nodes w (columns), 256 x 400 complex
    (1.6 MB), built once per process; read-only."""
    circle, line = default_contours()
    core = 1.0 / (line.nodes[None, :] - circle.nodes[:, None])
    core.flags.writeable = False
    return core


@lru_cache(maxsize=None)
def _reference_panel() -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule on [-1, 1], computed once; read-only."""
    x, w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _legendre_panel(a: float, b: float):
    x, w = _reference_panel()
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def panel_rule(lo: np.ndarray, hi: np.ndarray) -> QuadRule:
    """Gauss-Legendre panels [lo_i, hi_i], nodes ordered panel by panel."""
    x, w = _reference_panel()
    mid, half = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
    return QuadRule(nodes=(mid + half * x).ravel(), weights=(half * w).ravel(), kind="panel")


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


def lower_tail_rule(s: float, depth: float = TAIL_DEPTH) -> QuadRule:
    """Gauss-Legendre panel rule covering [min(s, 0) - depth, s].

    For Gaussian-type integrands the omitted tail beyond the left
    endpoint is negligible *relative to the integral itself*: at
    distance d past |s| the envelope carries an extra factor
    e^{-2d|s| - d^2}, below 1e-36 for the default depth."""
    a = min(s, 0.0) - depth
    edges = np.linspace(a, s, max(2, int(math.ceil(s - a)) + 1))
    return panel_rule(edges[:-1], edges[1:])


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
