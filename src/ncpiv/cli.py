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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import airy as airy_mod
from . import fredholm, kernels, painleve
from .families import (
    WeightFamily,
    build_family,
    family_constants,
    ode_residual,
    phi_all,
)
from .quadrature import circle_rule, gauss_hermite, vline_rule

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    family: str = "a"
    nu: float = 1.0
    n: int = 3
    s_min: float = -3.0
    s_max: float = 3.0
    s_steps: int = 61
    quad_points: int = 200
    radius: float = 1.0
    line_re: float = 2.0
    line_trunc: float = 0.0  # 0 -> default truncation
    step: float = 1e-3
    seed: int = 0
    out: str = ""
    format: str = "csv"

    def validate(self) -> None:
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
        if self.s_min >= self.s_max:
            raise ValueError("s-min must be below s-max")
        if self.s_steps < 2:
            raise ValueError("s-steps must be at least 2")
        if self.radius >= self.line_re:
            raise ValueError("contours intersect ordering")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("NCPIV_THREADS", "1")))
    except ValueError:
        return 1


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
            [{c: (_fmt(r.get(c, "")) if not isinstance(r.get(c, ""), str) else r.get(c, "")) for c in columns} for r in rows],
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


def _rules(config: RunConfig):
    circle = circle_rule(config.radius)
    trunc = config.line_trunc if config.line_trunc > 0 else None
    line = vline_rule(config.line_re, T=trunc)
    return circle, line


# ---------------------------------------------------------------------
# verify


def cmd_verify(config: RunConfig) -> int:
    fam = _weight(config)
    family = build_family(fam, max(config.n, 6), quad=gauss_hermite(max(config.quad_points, 200)))
    checks: list[tuple[str, str, float | None, float]] = []

    # orthonormality of the Phi functions
    quad = gauss_hermite(max(200, 3 * (config.n + 1)))
    p = phi_all(family, quad.nodes.real, config.n + 1)
    gram = np.einsum("i,jiab,kicb->jkac", quad.weights * np.exp(quad.nodes.real**2), p, p)
    target = np.einsum("jk,ac->jkac", np.eye(config.n + 1), np.eye(family.dim))
    checks.append(("orthonormality", "", float(np.max(np.abs(gram - target))), 1e-9))

    # closed-form norms
    if fam.kind == "scalar":
        checks.append(("norm-formula", "n/a", None, 0.0))
    else:
        worst = 0.0
        for k in range(config.n + 1):
            closed = family_constants(fam, k)["norm"]
            worst = max(worst, float(np.max(np.abs(family.norms[k] - closed)) / np.max(np.abs(closed))))
        checks.append(("norm-formula", "", worst, 1e-8))

    # ODE eigenfunction residual
    if fam.kind == "scalar":
        checks.append(("ode-residual", "n/a", None, 0.0))
    else:
        rng = np.random.default_rng(config.seed)
        worst = max(
            float(np.max(np.abs(ode_residual(family, k, rng.uniform(-2, 2, size=5)))))
            for k in range(min(config.n, family.nmax) + 1)
        )
        checks.append(("ode-residual", "", worst, 1e-8))

    # integral representations and kernel equivalence
    if fam.kind == "scalar":
        checks.append(("integral-representations", "n/a", None, 0.0))
        checks.append(("kernel-equivalence", "n/a", None, 0.0))
    else:
        circle, line = _rules(config)
        worst = 0.0
        for k in range(1, min(config.n, 5) + 1):
            for x in (-1.0, 0.0, 0.5, 1.5):
                direct = kernels.polynomial_times_tfactor(family, k, x)
                worst = max(
                    worst,
                    float(np.max(np.abs(kernels.intrep_loop(family, k, x) - direct))),
                    float(np.max(np.abs(kernels.intrep_line(family, k, x, line) - direct))),
                )
        checks.append(("integral-representations", "", worst, 1e-8))
        spec = kernels.KernelSpec(fam, min(config.n, 4), form="doubleintA" if fam.kind == "a" else "doubleintB")
        grid = [(x, y) for x in (-1.5, 0.0, 1.5) for y in (-1.0, 0.5)]
        worst = kernels.generic_kernel_deviation(spec, family, grid, circle=circle, line=line)
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
    defaults = RunConfig()
    custom = (config.radius, config.line_re, config.line_trunc) != (
        defaults.radius,
        defaults.line_re,
        defaults.line_trunc,
    )
    # with default contour settings let contour_det pick its own line,
    # whose truncation grows with |s|; rows at strongly negative s still
    # carry the cancellation defect of a tiny det(I - M)
    circle, line = _rules(config) if custom else (None, None)
    grid = np.linspace(config.s_min, config.s_max, config.s_steps)

    def row(s: float) -> dict:
        out = {"s": s, "error": ""}
        try:
            system = fredholm.build_gram(family, config.n, s)
            out["det_gram"] = fredholm.gram_det(family, config.n, s, system=system)
            out["det_contour"] = fredholm.contour_det(family, config.n, s, circle=circle, line=line)
            out["R"] = fredholm.log_deriv(family, config.n, s, order=1, system=system)
            out["Rp"] = fredholm.log_deriv(family, config.n, s, order=2, system=system)
            out["Rpp"] = fredholm.log_deriv(family, config.n, s, order=3, system=system)
            if fam.kind == "scalar":
                out["sigma_piv_residual"] = fredholm.sigma_piv_residual(family, config.n, s)
            else:
                out["sigma_piv_residual"] = ""
        except ValueError as exc:
            out["error"] = str(exc)
        return out

    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        rows = list(pool.map(row, grid))
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
    return painleve.PIVState(
        s=s,
        y=np.asarray(data["y"], dtype=float),
        z=np.asarray(data["z"], dtype=float),
        zp=np.asarray(data["zp"], dtype=float),
        u=np.asarray(data["u"], dtype=float),
        variant=data["variant"],
        n=int(data["n"]),
    )


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
        states = traj.states
    except ValueError as exc:
        states = []
        status = str(exc)
    for st in states:
        ncr = float(np.max(np.abs(painleve.ncpiv_residual(st))))
        lax = float(np.max(np.abs(painleve.lax_compat_residual(st, 1.3))))
        rows.append(
            {
                "s": st.s,
                "u00": st.u[0, 0],
                "u01": st.u[0, 1],
                "u10": st.u[1, 0],
                "u11": st.u[1, 1],
                "ncpiv_residual_norm": ncr,
                "lax_residual_norm": lax,
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

    def row(n: int) -> dict:
        try:
            r = airy_mod.scaling_limit_error(family, n, grid)
            return {"n": n, "sup_error": r["sup_error"], "offdiag_max": r["offdiag_max"], "error": ""}
        except ValueError as exc:
            return {"n": n, "error": str(exc)}

    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        rows = list(pool.map(row, n_list))
    _emit(rows, ["n", "sup_error", "offdiag_max", "error"], config)
    return EXIT_OK


# ---------------------------------------------------------------------
# argument parsing


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; every subcommand
    takes one option per RunConfig field, with the field's default."""
    parser = argparse.ArgumentParser(prog="ncpiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "fredholm-scan", "painleve", "airy"):
        p = sub.add_parser(name)
        for f in fields(RunConfig):
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
        if name == "painleve":
            p.add_argument("--initial", default="", help="JSON file with y, z, zp, u, variant, n")
        if name == "airy":
            p.add_argument("--n-list", default="8,16,32,64", help="comma-separated degrees")
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    config = _config_from(args)
    try:
        config.validate()
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
