"""Command-line front end: verification suites and machine-readable
scans (CSV or JSON) over the Fredholm, Painleve and Airy experiments.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import airy as airy_mod
from . import fredholm, kernels, painleve
from .families import (
    WeightFamily,
    build_family,
    family_constants,
    ode_residual,
    ode_terms,
    phi_all,
)
from .quadrature import gauss_hermite

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Upper limits on the sizes a run may ask for, so that an unchecked size
# fails as a usage error instead of allocating without bound.  numpy's
# Gauss-Hermite rule has NaN weights from 372 nodes on, so no rule may be
# larger than _MAX_RULE_NODES: not --quad-points, and not the 3(n + 1)-node
# rule that verify checks orthonormality on and fredholm-scan builds its
# family on.
_MAX_N = 1000
_MAX_RULE_NODES = 370
_RULE_COMMANDS = ("verify", "fredholm-scan")
_MAX_S_STEPS = 100_000
# fredholm-scan's panels cover [min(s_min, 0) - depth, s_max], one per
# unit length, so its time grows with |s| without bound.  Beyond
# |s| = 100 nothing is left to scan: for every n <= 122 the gap
# determinant is 1 to rounding above s = 30 and below the 1e-300 floor
# ("determinant vanishes") under s = -30.
_MAX_ABS_S = 100.0

# The RunConfig fields each subcommand reads.  Its parser offers exactly
# these options, and every other field keeps its default.
_OPTIONS = {
    "verify": ("family", "nu", "n", "quad_points", "seed"),
    "fredholm-scan": ("family", "nu", "n", "s_min", "s_max", "s_steps", "out", "format"),
    "painleve": ("family", "n", "s_min", "s_max", "step", "seed", "out", "format"),
    "airy": ("family", "nu", "out", "format"),
}


@dataclass(frozen=True)
class RunConfig:
    family: str = "a"
    nu: float = 1.0
    n: int = 3
    s_min: float = -3.0
    s_max: float = 3.0
    s_steps: int = 61
    quad_points: int = 200
    step: float = 1e-3
    seed: int = 0
    out: str = ""
    format: str = "csv"

    def validate(self, command: str = "") -> None:
        """Raise ValueError for an option value the run cannot use; with
        ``command``, also for the sizes that subcommand derives from n."""
        if self.family not in ("a", "b", "scalar"):
            raise ValueError("family must be a, b or scalar")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name.replace('_', '-')} must be finite")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n > _MAX_N:
            raise ValueError(f"n must be at most {_MAX_N}")
        if self.quad_points < 200:
            raise ValueError("quad-points must be at least 200")
        if self.quad_points > _MAX_RULE_NODES:
            raise ValueError(f"quad-points must be at most {_MAX_RULE_NODES}")
        if command in _RULE_COMMANDS and 3 * (self.n + 1) > _MAX_RULE_NODES:
            raise ValueError(
                f"n must be at most {_MAX_RULE_NODES // 3 - 1} for {command}: its "
                f"Gauss-Hermite rule has 3(n + 1) nodes, at most {_MAX_RULE_NODES}"
            )
        if self.s_min >= self.s_max:
            raise ValueError("s-min must be below s-max")
        if command == "fredholm-scan" and max(abs(self.s_min), abs(self.s_max)) > _MAX_ABS_S:
            raise ValueError(f"s-min and s-max must lie in [-{_MAX_ABS_S:g}, {_MAX_ABS_S:g}] for {command}")
        if self.s_steps < 2:
            raise ValueError("s-steps must be at least 2")
        if self.s_steps > _MAX_S_STEPS:
            raise ValueError(f"s-steps must be at most {_MAX_S_STEPS}")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _fmt(x) -> str:
    """17 significant digits, locale-independent."""
    if x is None or x == "":
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.16e}"


def _emit(rows: list[dict], columns: list[str], config: RunConfig) -> None:
    if config.format == "json":
        text = json.dumps(
            [{c: _fmt(r.get(c, "")) for c in columns} for r in rows],
            indent=2,
        ) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(r.get(c, "")) for c in columns])
        text = buf.getvalue()
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _weight(config: RunConfig) -> WeightFamily:
    if config.family == "scalar":
        return WeightFamily(kind="scalar", nu=0.0, dim=1)
    return WeightFamily(kind=config.family, nu=config.nu, dim=2)


# ---------------------------------------------------------------------
# verify


def cmd_verify(config: RunConfig) -> int:
    fam = _weight(config)
    family = build_family(fam, max(config.n, 6), quad=gauss_hermite(config.quad_points))
    checks: list[tuple[str, str, float | None, float]] = []

    # orthonormality of the Phi functions: one GEMM of the weighted node
    # values, rows (degree, row of Phi), columns (node, column of Phi);
    # Phi carries e^{-x^2/2}, so each node is weighted by sqrt(w) e^{x^2/2}
    quad = gauss_hermite(max(200, 3 * (config.n + 1)))
    x = quad.nodes.real
    p = phi_all(family, x, config.n + 1) * (np.sqrt(quad.weights.real) * np.exp(0.5 * x * x))[:, None, None]
    flat = p.transpose(0, 2, 1, 3).reshape((config.n + 1) * family.dim, -1)
    gram = flat @ flat.T
    checks.append(("orthonormality", "", float(np.max(np.abs(gram - np.eye(gram.shape[0])))), 1e-9))

    # closed-form norms
    if fam.kind == "scalar":
        checks.append(("norm-formula", "n/a", None, 0.0))
    else:
        # np.max, unlike the builtin max, carries a NaN through
        closed = np.array([family_constants(fam, k)["norm"] for k in range(config.n + 1)])
        rel = np.max(np.abs(family.norms[: config.n + 1] - closed), axis=(1, 2)) / np.max(np.abs(closed), axis=(1, 2))
        checks.append(("norm-formula", "", float(np.max(rel)), 1e-8))

    # ODE eigenfunction residual
    if fam.kind == "scalar":
        checks.append(("ode-residual", "n/a", None, 0.0))
    else:
        # each degree's residual relative to the size of its equation's
        # terms (largest entries summed): the normalized polynomial grows
        # with its degree
        # with 5 points per degree, all degrees in one recurrence pass
        degrees = np.arange(min(config.n, family.nmax) + 1)
        xs = np.random.default_rng(config.seed).uniform(-2, 2, size=(degrees.size, 5))
        terms = ode_terms(family, degrees, xs)  # (4, degree, point, N, N)
        resid = ode_residual(family, degrees, xs, terms)
        size = np.max(np.abs(terms), axis=(-2, -1)).sum(axis=0).max(axis=1)
        rel = np.max(np.abs(resid), axis=(1, 2, 3)) / size
        checks.append(("ode-residual", "", float(np.max(rel)), 1e-8))

    # integral representations and kernel equivalence
    if fam.kind == "scalar":
        checks.append(("integral-representations", "n/a", None, 0.0))
        checks.append(("kernel-equivalence", "n/a", None, 0.0))
    else:
        xs = np.array([-1.0, 0.0, 0.5, 1.5])
        degrees = np.arange(1, min(config.n, 5) + 1)
        direct = kernels.polynomial_times_tfactor(family, degrees, xs)
        loop = kernels.intrep_loop(family, degrees, xs)
        errors = [loop - direct, kernels.intrep_line(family, degrees, xs) - direct]
        checks.append(("integral-representations", "", float(np.max(np.abs(errors))), 1e-8))
        grid = [(x, y) for x in (-1.5, 0.0, 1.5) for y in (-1.0, 0.5)]
        worst = kernels.generic_kernel_deviation(family, min(config.n, 4), grid)
        checks.append(("kernel-equivalence", "", worst, 1e-6))

    failed = False
    for name, status, resid, tol in checks:
        if status == "n/a":
            print(f"{name}: n/a")
            continue
        ok = resid <= tol
        failed = failed or not ok
        print(f"{name}: max residual {resid:.3e} (tol {tol:.0e}) {'ok' if ok else 'FAIL'}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------
# fredholm scan


def cmd_fredholm_scan(config: RunConfig) -> int:
    fam = _weight(config)
    family = build_family(fam, max(config.n, 2) + 1)
    grid = np.linspace(config.s_min, config.s_max, config.s_steps)

    # one pass over the grid: each row's Gram factor updates the last one,
    # and the rows of one chunk share every solve and determinant call.  A
    # row stops at its first error, in the order Gram route, sigma residual,
    # contour route
    rows = []
    for stack in fredholm.gram_stacks(family, config.n, grid):
        part = [{"s": s, "det_gram": d, "error": ""} for s, d in zip(stack.s.tolist(), fredholm.gram_dets(stack))]
        sound = fredholm.resolvable(stack)
        for i in np.flatnonzero(~sound).tolist():
            part[i]["error"] = fredholm.VANISHES
        # selecting rows copies their factors: only where some row vanishes
        derivs = fredholm.log_derivs(stack if sound.all() else stack[sound])
        live = []
        for i, r, rp, rpp in zip(np.flatnonzero(sound).tolist(), *(d.tolist() for d in derivs)):
            out = part[i]
            out.update(R=r, Rp=rp, Rpp=rpp, sigma_piv_residual="")
            if fam.kind == "scalar":
                try:
                    out["sigma_piv_residual"] = fredholm.sigma_piv_residual(family, config.n, out["s"])
                except ValueError as exc:
                    out["error"] = str(exc)
                    continue
            live.append(i)
        # last: a row the contour route cannot vouch for keeps its
        # Gram-route columns
        for i, det, error in zip(live, *fredholm.contour_dets(family, config.n, stack.s[live])):
            if error:
                part[i]["error"] = error
            else:
                part[i]["det_contour"] = det
        rows += part
        del stack  # before the next stack exists
    columns = ["s", "det_gram", "det_contour", "R", "Rp", "Rpp", "sigma_piv_residual", "error"]
    _emit(rows, columns, config)
    return EXIT_OK


# ---------------------------------------------------------------------
# painleve scan


def random_initial_state(variant: str, n: int, s: float, seed: int) -> painleve.PIVState:
    """Seeded random initial data; rectangular y is drawn on the
    invariant manifold (third column zero) on which the Lax pair
    closes."""
    rng = np.random.default_rng(seed)
    cols = 2 if variant == "a" else 3
    y = np.zeros((2, cols))
    y[:, :2] = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
    z = 0.3 * rng.normal(size=(2, 2))
    zp = 0.3 * rng.normal(size=(2, 2))
    u = 0.3 * rng.normal(size=(2, 2))
    return painleve.PIVState(s=s, y=y, z=z, zp=zp, u=u, variant=variant, n=n)


def load_initial_state(path: str, s: float) -> painleve.PIVState:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("initial data must be a JSON object")
    for key in ("y", "z", "zp", "u", "variant", "n"):
        if key not in data:
            raise ValueError(f"initial data lacks the key {key!r}")
    values = {}
    for key in ("y", "z", "zp", "u", "n"):
        try:
            values[key] = int(data[key]) if key == "n" else np.asarray(data[key], dtype=float)
        except (TypeError, ValueError):
            kind = "an integer" if key == "n" else "a matrix of numbers"
            raise ValueError(f"initial data {key!r} must be {kind}") from None
    return painleve.PIVState(s=s, variant=data["variant"], **values)


def cmd_painleve(config: RunConfig, initial: str = "") -> int:
    if config.family == "scalar":
        raise ValueError("painleve scan needs a matrix variant (a or b)")
    if initial:
        state = load_initial_state(initial, config.s_min)
    else:
        state = random_initial_state(config.family, config.n, config.s_min, config.seed)

    rows = []
    status = ""
    try:
        traj = painleve.integrate(state, config.s_max, config.step)
    except ValueError as exc:
        status = str(exc)
    else:
        # every residual over the whole trajectory in one stacked pass
        st = traj.stacked
        derivs = painleve.analytic_derivatives(st)
        ncr = np.max(np.abs(painleve.ncpiv_residual(st, derivs=derivs)), axis=(-2, -1))
        lax = np.max(np.abs(painleve.lax_compat_residual(st, 1.3, derivs=derivs)), axis=(-2, -1))
        for s, u, ncr_s, lax_s in zip(st.s.tolist(), st.u.reshape(-1, 4).tolist(), ncr.tolist(), lax.tolist()):
            rows.append(
                {
                    "s": s,
                    "u00": u[0],
                    "u01": u[1],
                    "u10": u[2],
                    "u11": u[3],
                    "ncpiv_residual_norm": ncr_s,
                    "lax_residual_norm": lax_s,
                    "flags": "",
                }
            )
    if status:
        rows.append({"s": "", "flags": status})
    columns = ["s", "u00", "u01", "u10", "u11", "ncpiv_residual_norm", "lax_residual_norm", "flags"]
    _emit(rows, columns, config)
    return EXIT_OK


# ---------------------------------------------------------------------
# airy scan


def cmd_airy(config: RunConfig, n_list: list[int]) -> int:
    if not n_list:
        raise ValueError("empty n list")
    if any(n not in (8, 16, 32, 64) for n in n_list):
        raise ValueError("n list must be within {8, 16, 32, 64}")
    fam = _weight(config)
    family = build_family(fam, max(n_list))
    grid = [(x, y) for x in np.linspace(-1.5, 1.5, 4) for y in np.linspace(-1.5, 1.5, 4)]

    rows = []
    for n in n_list:
        try:
            r = airy_mod.scaling_limit_error(family, n, grid)
            rows.append({"n": n, "sup_error": r["sup_error"], "offdiag_max": r["offdiag_max"], "error": ""})
        except ValueError as exc:
            rows.append({"n": n, "error": str(exc)})
    _emit(rows, ["n", "sup_error", "offdiag_max", "error"], config)
    return EXIT_OK


# ---------------------------------------------------------------------
# argument parsing


# A negative number, exponent notation included.  argparse's own pattern
# takes "-1e-3" for an option name, so "--s-min -1e-3" would lack its value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each subcommand
    takes one option per RunConfig field it reads, with the field's
    default."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    parser = argparse.ArgumentParser(prog="ncpiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, reads in _OPTIONS.items():
        # no abbreviations: airy --n must not pass for --n-list
        p = sub.add_parser(name, allow_abbrev=False)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for field in reads:
            p.add_argument("--" + field.replace("_", "-"), type=type(defaults[field]), default=defaults[field])
        if name == "painleve":
            p.add_argument("--initial", default="", help="JSON file with y, z, zp, u, variant, n")
        if name == "airy":
            p.add_argument("--n-list", default="8,16,32,64", help="comma-separated degrees")
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{field: getattr(args, field) for field in _OPTIONS[args.command]})


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    config = _config_from(args)
    try:
        config.validate(args.command)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "fredholm-scan":
            return cmd_fredholm_scan(config)
        if args.command == "painleve":
            return cmd_painleve(config, initial=args.initial)
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
        return cmd_airy(config, n_list)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
