"""Seeded op generators for the three workloads.

An op is one ``ncpiv`` CLI invocation.  Every parameter of every op is
drawn from the workload seed, so no two ops share inputs.  Discrete
choices come in shuffled blocks that hold every combination once, and
each combination's continuous draws follow a randomly shifted Halton
sequence of its own (each draw still uniform on its stated range): runs
on different seeds then see the same mix of families, degrees and
parameter ranges, and their figures differ by measurement noise rather
than by an unlucky mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, count
from typing import Callable, Iterator

import numpy as np

import checks

SCAN_ROWS = 6
PIV_STEP = 1e-3
AIRY_DEGREES = (8, 16, 32, 64)

WORKLOADS = ("gap-scan", "piv-flow", "structure")

# Untimed warm-up op of each workload: small, fixed, on the same code path.
WARMUP = {
    "gap-scan": ("fredholm-scan", "--family", "a", "--n", "2", "--s-min", "-1", "--s-max", "1", "--s-steps", "2"),
    "piv-flow": ("painleve", "--family", "a", "--n", "1", "--seed", "0", "--s-min", "0", "--s-max", "0.05"),
    "structure": ("verify", "--family", "a", "--n", "4"),
}


@dataclass(frozen=True)
class Op:
    argv: tuple
    rows: int  # rows a complete op emits; an op that fails counts them all
    check: Callable[[str], checks.OpCheck]


def _radical_inverse(k: int, base: int) -> float:
    x, f = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        x += digit * f
        f /= base
    return x


def _blocks(rng: np.random.Generator, combos: list, dims: int) -> Iterator[tuple]:
    """(combo, u) forever, u in [0, 1)^dims: every combo once per shuffled
    block, and each combo's u a randomly shifted Halton sequence of its
    own, so any run of blocks spreads each combo's draws evenly over the
    cube."""
    bases = (2, 3, 5)[:dims]
    shifts = rng.uniform(size=(len(combos), dims)).tolist()
    for k in count():
        for c in rng.permutation(len(combos)):
            yield combos[c], [(_radical_inverse(k, b) + x) % 1.0 for b, x in zip(bases, shifts[c])]


def gap_scan(rng: np.random.Generator) -> Iterator[Op]:
    combos = [(f, n) for f in ("a", "b", "scalar") for n in (2, 3, 4, 5)]
    for (family, n), u in _blocks(rng, combos, 3):
        # s_min decides most contour-route failures: it takes the base-2
        # coordinate, which spreads evenly over the fewest draws
        s_min, nu, s_max = -3.0 + 2.0 * u[0], 0.5 + u[1], 1.0 + 2.0 * u[2]
        argv = (
            "fredholm-scan", "--family", family, "--nu", repr(nu), "--n", str(n),
            "--s-min", repr(s_min), "--s-max", repr(s_max), "--s-steps", str(SCAN_ROWS),
        )
        grid = np.linspace(s_min, s_max, SCAN_ROWS).tolist()
        yield Op(argv, SCAN_ROWS, partial(checks.check_scan, family=family, n=n, grid=grid))


def piv_flow(rng: np.random.Generator) -> Iterator[Op]:
    combos = [(v, n) for v in ("a", "b") for n in (1, 2, 3)]
    for (variant, n), u in _blocks(rng, combos, 1):
        length = 0.25 + 0.75 * u[0]
        seed = int(rng.integers(2**31))
        argv = (
            "painleve", "--family", variant, "--n", str(n), "--seed", str(seed),
            "--s-min", "0", "--s-max", repr(length), "--step", repr(PIV_STEP),
        )
        rows = round(length / PIV_STEP) + 1
        yield Op(argv, rows, partial(checks.check_painleve, length=length, step=PIV_STEP))


def structure(rng: np.random.Generator) -> Iterator[Op]:
    """Two verify ops, then one airy op, over and over: verify is the
    clear majority, so the median op is a verify op on every seed."""
    subsets = [c for r in range(1, len(AIRY_DEGREES) + 1) for c in combinations(AIRY_DEGREES, r)]
    verify_ops = _blocks(rng, [(f, n) for f in ("a", "b") for n in range(4, 9)], 1)
    airy_ops = _blocks(rng, [(f, sub) for f in ("a", "b", "scalar") for sub in subsets], 1)
    while True:
        for _ in range(2):
            (family, n), u = next(verify_ops)
            argv = (
                "verify", "--family", family, "--nu", repr(0.5 + u[0]), "--n", str(n),
                "--seed", str(int(rng.integers(2**31))),
            )
            yield Op(argv, checks.VERIFY_CHECKS, checks.check_verify)
        (family, degrees), u = next(airy_ops)
        argv = (
            "airy", "--family", family, "--nu", repr(0.5 + u[0]),
            "--n-list", ",".join(map(str, degrees)),
        )
        yield Op(argv, len(degrees), partial(checks.check_airy, degrees=list(degrees)))


GENERATORS = {"gap-scan": gap_scan, "piv-flow": piv_flow, "structure": structure}


def ops(workload: str, seed: int) -> Iterator[Op]:
    return GENERATORS[workload](np.random.default_rng(seed))
