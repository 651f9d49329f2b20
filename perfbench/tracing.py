"""Traced run: spans around the public functions of every ncpiv layer.

Each listed function is replaced, in its defining module and in every
ncpiv module that imported it by name, by a wrapper that records one
span (name, start, end, parent span, op id) in growable typed
arrays.  Nothing inside ``src/`` is edited; the wrappers are swapped in
and out around each traced op, so the untraced ops run the original
functions.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# layer (= package module) -> public functions that get a span
LAYERS = {
    "quadrature": ("gauss_hermite", "lower_tail_rule", "tail_integral", "lower_tail_integral", "circle_rule", "vline_rule"),
    "fredholm": ("build_gram", "gram_det", "contour_det", "log_deriv", "second_log_deriv", "sigma_piv_residual"),
    "families": ("build_family", "phi_all", "phi_deriv", "ode_residual"),
    "matcore": ("power_conjugate", "commutator", "right_inverse"),
    "kernels": ("cd_double_integral", "intrep_loop", "intrep_line", "cd_sum", "contour_factors", "generic_kernel_deviation"),
    "painleve": ("integrate", "rhs", "v_term", "analytic_derivatives", "ncpiv_residual", "lax_compat_residual"),
    "airy": ("scaling_limit_error", "airy_ai", "airy_kernel"),
    "cli": ("main",),
}
SPANS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# per-layer metric -> (unit, better); the order is the print order
METRICS = {}
for _name in SPANS:
    METRICS[f"{_name}.calls"] = ("count", "lower")
    METRICS[f"{_name}.self_s"] = ("s", "lower")
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", "lower")
METRICS.update(
    {
        "quadrature.lower_tail_rule.nodes": ("count", "lower"),
        "fredholm.build_gram.calls_per_row": ("ratio", "lower"),
        "fredholm.cond_C_max": ("1", "lower"),
        "fredholm.route_rel_gap_p50": ("1", "lower"),
        "fredholm.route_rel_gap_max": ("1", "lower"),
        "families.phi_all.points": ("count", "lower"),
        "families.ortho_residual_max": ("1", "lower"),
        "painleve.useful_step_frac": ("ratio", "higher"),
        "painleve.pole_stop_frac": ("ratio", "lower"),
        "cli.rows_emitted": ("count", "higher"),
        "trace.overhead_frac": ("ratio", "lower"),
    }
)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = -1
        self.counts: Counter = Counter()
        self.gauges: dict = {}
        self._root = -1  # span of the running cli.main: parent of pool-thread spans
        self._active = [0] * len(SPANS)  # open spans per name
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = self._build_patches()

    def _build_patches(self) -> list:
        import ncpiv.cli  # noqa: F401  (loads every layer)

        modules = [m for name, m in sorted(sys.modules.items()) if name == "ncpiv" or name.startswith("ncpiv.")]
        patches = []
        for nid, name in enumerate(SPANS):
            layer, fn = name.split(".")
            orig = getattr(sys.modules[f"ncpiv.{layer}"], fn)
            wrapped = self._wrap(nid, orig, _HOOKS.get(name))
            for mod in modules:
                patches += [(mod, attr, orig, wrapped) for attr, val in vars(mod).items() if val is orig]
        return patches

    def _wrap(self, nid: int, fn, hook):
        is_root = SPANS[nid] == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = len(self.start)
                self.name_id.append(nid)
                self.parent.append(stack[-1] if stack else self._root)
                self.op_id.append(self.op)
                self.start.append(0.0)
                self.end.append(0.0)
            if is_root:
                self._root = sid
            stack.append(sid)
            self._active[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._active[nid] -= 1
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, 0.0), float(value))

    def install(self, op: int) -> None:
        self.op = op
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)
        self.op = -1
        self._root = -1

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Duration minus the union of the child spans, clipped to the span."""
        a = self.arrays()
        start, end, parent = a["start"], a["end"], a["parent"]
        kids = np.nonzero(parent >= 0)[0]
        p = parent[kids]
        lo, hi = np.maximum(start[kids], start[p]), np.minimum(end[kids], end[p])
        order = np.lexsort((lo, p))
        p, lo, hi = p[order], lo[order], hi[order]
        sibling = np.r_[False, p[1:] == p[:-1]]
        previous_end = np.r_[-np.inf, hi[:-1]]
        if np.any(sibling & (hi < previous_end)):
            raise RuntimeError("sibling spans overlap: more than one thread ran traced code")
        # siblings run one after another, so the part of a child that no
        # earlier sibling covers starts at the previous sibling's end
        lo = np.where(sibling, np.maximum(lo, previous_end), lo)
        cover = np.bincount(p, weights=np.maximum(hi - lo, 0.0), minlength=len(start))
        return end - start - cover

    def write(self, path, self_s: np.ndarray) -> None:
        np.savez_compressed(path, names=np.array(SPANS), self_s=self_s, **self.arrays())


def _lower_tail_nodes(tracer, args, rule):
    tracer.counts["quadrature.lower_tail_rule.nodes"] += rule.nodes.size


def _phi_points(tracer, args, result):
    tracer.counts["families.phi_all.points"] += np.size(args[1])


def _ortho_residual(tracer, args, family):
    tracer.gauge_max("families.ortho_residual_max", family.ortho_residual)


def _cond_c(tracer, args, system):
    tracer.gauge_max("fredholm.cond_C_max", np.linalg.cond(system.C))


_INTEGRATE = SPANS.index("painleve.integrate")


def _rk_rhs(tracer, args, result):
    if tracer._active[_INTEGRATE]:
        tracer.counts["painleve.rhs.in_integrate"] += 1


# post-call hooks: work counts and health gauges measured at the boundary
_HOOKS = {
    "quadrature.lower_tail_rule": _lower_tail_nodes,
    "families.phi_all": _phi_points,
    "families.build_family": _ortho_residual,
    "fredholm.build_gram": _cond_c,
    "painleve.rhs": _rk_rhs,
}


def layer_metrics(tracer: Tracer, self_times: np.ndarray, traced: list, overhead_frac: float) -> dict:
    """Every per-layer metric, from the spans and the (command, OpCheck)
    pairs of the traced ops."""
    ids = np.frombuffer(tracer.name_id, dtype=np.int32)
    calls = np.bincount(ids, minlength=len(SPANS))
    self_s = np.bincount(ids, weights=self_times, minlength=len(SPANS))
    out = {}
    for nid, name in enumerate(SPANS):
        out[f"{name}.calls"] = int(calls[nid])
        out[f"{name}.self_s"] = float(self_s[nid])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(out[f"{name}.self_s"] for name in SPANS if name.startswith(layer + "."))

    scan_rows = sum(c.emitted for cmd, c in traced if cmd == "fredholm-scan")
    gaps = [g for _, c in traced for g in c.route_gaps]
    piv = [c for cmd, c in traced if cmd == "painleve"]
    rk_steps = tracer.counts["painleve.rhs.in_integrate"] / 4.0
    out.update(
        {
            "quadrature.lower_tail_rule.nodes": tracer.counts["quadrature.lower_tail_rule.nodes"],
            "fredholm.build_gram.calls_per_row": out["fredholm.build_gram.calls"] / scan_rows if scan_rows else 0.0,
            "fredholm.cond_C_max": tracer.gauges.get("fredholm.cond_C_max", 0.0),
            "fredholm.route_rel_gap_p50": statistics.median(gaps) if gaps else 0.0,
            "fredholm.route_rel_gap_max": max(gaps, default=0.0),
            "families.phi_all.points": tracer.counts["families.phi_all.points"],
            "families.ortho_residual_max": tracer.gauges.get("families.ortho_residual_max", 0.0),
            "painleve.useful_step_frac": sum(c.trajectory_rows for c in piv) / rk_steps if rk_steps else 0.0,
            "painleve.pole_stop_frac": sum(c.pole_stop for c in piv) / len(piv) if piv else 0.0,
            "cli.rows_emitted": sum(c.emitted for _, c in traced),
            "trace.overhead_frac": overhead_frac,
        }
    )
    return out
