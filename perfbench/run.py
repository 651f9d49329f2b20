"""ncpiv benchmark: seeded CLI workloads, checked row by row.

    python3 perfbench/run.py --workload gap-scan --seed 1 --seconds 32 --trace 0

Each op is one ``ncpiv.cli.main(argv)`` call in this process (a closed
loop with one client).  Ops run until their summed wall time reaches
``--seconds``; every output row is checked (see ``checks.py``).  Time
metrics are corrected for the host's speed (see ``HOST_REF_S``).  The last
line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (ops; an op fails when it raises, exits non-zero, prints
malformed output or has a row that fails a hard check) and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  ``--workload all`` runs each workload in
its own process and prints one table.

The package is imported from ``src/`` of the checkout that holds this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: with two OpenBLAS threads on the two-core
# reference machine, build_gram(a, n=3, s=-1) is bimodal at 24-72 ms
# over 15 calls; with one it stays at 15-16 ms.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["NCPIV_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
# Host-speed correction.  The shared reference host runs the same code up
# to 2x slower in spells of seconds to minutes, in CPU time as much as in
# wall time, so raw wall times of runs minutes apart differ by more than
# any useful bound.  A fixed kernel of small numpy and Python work that
# uses no ncpiv code (host_probe) is timed right before and right after
# each timed interval, and the interval is scaled by HOST_REF_S over the
# mean of the two probes: times read as on the host at a fixed speed.
# Over 25 s windows of a 150 s run on the reference machine this cut the
# spread of a fixed op's median time from 10-13% to 3-4% (fredholm-scan,
# painleve, verify and airy ops alike).  A change to ncpiv leaves the
# probe unchanged, so it moves the corrected times as it moves raw ones.
HOST_PROBE_REPS = 20
HOST_REF_S = 1.2e-3  # typical host_probe time on the reference machine
_PROBE_RNG = np.random.default_rng(0)
_PROBE_SMALL = _PROBE_RNG.standard_normal((6, 6))
_PROBE_LARGE = _PROBE_RNG.standard_normal((64, 64))
# op_tail_s percentile per workload: the highest multiple of 5 that keeps
# at least ten ops beyond it at --seconds 32 on the reference machine, in
# its slowest spells too (31 gap-scan, 67 piv-flow and 174 structure ops)
TAIL_PCT = {"gap-scan": 60, "piv-flow": 80, "structure": 90}
# Rows of the first HEAD_OPS ops are reported on their own: every run of a
# seed holds these same ops (fewer than any run on the reference machine
# holds), so a change in soft misses at a fixed seed shows there exactly.
HEAD_OPS = 24

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "rows_ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class CheckoutError(RuntimeError):
    pass


def load_cli():
    """ncpiv.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "ncpiv" / "cli.py").is_file():
        raise CheckoutError(f"no ncpiv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncpiv.cli

    if SRC not in Path(ncpiv.cli.__file__).resolve().parents:
        raise CheckoutError(f"ncpiv imported from {ncpiv.cli.__file__}, not {SRC}")
    return ncpiv.cli


def host_probe() -> float:
    """Wall time of a fixed kernel of small numpy and Python work."""
    t0 = perf_counter()
    x = 0.0
    for _ in range(HOST_PROBE_REPS):
        x += float(np.linalg.svd(_PROBE_SMALL, compute_uv=False)[0])
        x += float(np.linalg.slogdet(_PROBE_LARGE)[1])
        x += sum(i * 0.5 for i in range(50))
    return perf_counter() - t0


@dataclass
class Run:
    argv: tuple
    rc: int | None
    text: str
    wall: float
    speed: float = 1.0  # host slowdown over the op: mean probe time / HOST_REF_S

    @property
    def corrected(self) -> float:
        return self.wall / self.speed


def call(cli, argv: tuple) -> Run:
    """One op through the user path, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # an op that raises is a failed op, not a harness crash
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return Run(argv, rc, out.getvalue(), perf_counter() - t0)


def probed(fn, *args):
    """fn(*args) between two host probes: (result, host slowdown)."""
    before = host_probe()
    result = fn(*args)
    return result, (before + host_probe()) / (2.0 * HOST_REF_S)


def judge(op: workloads.Op, run: Run) -> checks.OpCheck:
    if run.rc != 0:
        return checks.OpCheck().fail_all(op.rows, f"exit {run.rc}")
    return op.check(run.text)


# ---------------------------------------------------------------------
# set-up


def setup_probe(workload: str) -> None:
    """Child side of a set-up measurement: import, warm up, report."""
    cli = load_cli()
    if call(cli, workloads.WARMUP[workload]).rc != 0:
        raise SystemExit(1)
    print("ready", flush=True)


def setup_time(workload: str) -> float:
    """Wall time from spawning a fresh interpreter until it has imported
    ncpiv and finished the warm-up op."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------
# measurement


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def failed_frac(opchecks: list) -> float:
    """Rows that failed their checks over rows attempted."""
    attempted = sum(c.attempted for c in opchecks)
    return (attempted - sum(c.passed for c in opchecks)) / max(1, attempted)


def measure(cli, workload: str, seed: int, seconds: float) -> dict:
    """Ops until ``seconds`` of timed wall time; the loop stops before the
    first op that would start at or past it.  Set-up probes are spread
    over the run, between ops, so that they meet the same host as the ops.
    Every time metric is host-speed corrected (see HOST_REF_S)."""
    if call(cli, workloads.WARMUP[workload]).rc != 0:
        raise RuntimeError("warm-up op failed")
    host_probe()
    probes: list[float] = []
    results = []  # (Run, OpCheck)
    timed = 0.0
    for op in workloads.ops(workload, seed):
        while len(probes) < 1 + (SETUP_PROBES - 1) * min(1.0, timed / seconds):
            elapsed, speed = probed(setup_time, workload)
            probes.append(elapsed / speed)
        if timed >= seconds:
            break
        run, speed = probed(call, cli, op.argv)
        run.speed = speed
        timed += run.wall
        results.append((run, judge(op, run)))

    walls = [run.corrected for run, _ in results]
    raw = [run.wall for run, _ in results]
    opchecks = [c for _, c in results]
    attempted = sum(c.attempted for c in opchecks)
    passed = sum(c.passed for c in opchecks)
    pct = TAIL_PCT[workload]
    beyond = len(walls) - math.ceil(pct / 100.0 * len(walls))
    metrics = {
        "setup_s": statistics.median(probes),
        "rows_per_s": passed / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": percentile(walls, pct),
        "rows_ok_frac": 1.0 - failed_frac(opchecks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    speeds = [run.speed for run, _ in results]
    print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in probes)} s (median of {len(probes)})")
    print(f"op_tail_s: p{pct} of {len(walls)} ops ({beyond} beyond it), {timed:.2f} s timed")
    print(
        f"host slowdown over the ops: median {statistics.median(speeds):.3f} (min {min(speeds):.3f}, "
        f"max {max(speeds):.3f}); uncorrected: rows_per_s {passed / timed:.6g} 1/s, "
        f"op_p50_s {statistics.median(raw):.6g} s, op_tail_s {percentile(raw, pct):.6g} s"
    )
    print(
        f"rows: attempted {attempted}, passed {passed}, failed {attempted - passed}, "
        f"failed_frac {failed_frac(opchecks):.4f} ratio"
    )
    head = opchecks[:HEAD_OPS]
    head_rows = sum(c.attempted for c in head)
    print(f"rows of the first {len(head)} ops: attempted {head_rows}, failed {head_rows - sum(c.passed for c in head)}")
    return report(results, {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def measure_traced(cli, workload: str, seed: int, seconds: float) -> dict:
    """Each op twice, traced and untraced in alternating order; the
    per-layer metrics come from the traced calls."""
    import tracing

    if call(cli, workloads.WARMUP[workload]).rc != 0:
        raise RuntimeError("warm-up op failed")
    tracer = tracing.Tracer()
    results, traced = [], []
    wall_traced = wall_plain = 0.0
    for i, op in enumerate(workloads.ops(workload, seed)):
        if wall_traced + wall_plain >= seconds:
            break
        for with_trace in (i % 2 == 0, i % 2 == 1):
            if with_trace:
                tracer.install(i)
                try:
                    t_run = call(cli, op.argv)
                finally:
                    tracer.uninstall()
                wall_traced += t_run.wall
            else:
                p_run = call(cli, op.argv)
                wall_plain += p_run.wall
        check = judge(op, t_run)
        if t_run.text != p_run.text:
            check.statuses.append(checks.HARD)
            check.problems.append("traced output differs from untraced output")
        results.append((t_run, check))
        traced.append((op.argv[0], check))

    self_s = tracer.self_times()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.npz", self_s)
    layer = tracing.layer_metrics(tracer, self_s, traced, wall_traced / wall_plain - 1.0)
    print(f"trace: {len(tracer.start)} spans over {len(results)} ops, written to {OUT.name}/")
    return report(results, {k: (v, tracing.METRICS[k][0]) for k, v in layer.items()})


def report(results: list, metrics: dict) -> dict:
    hard = [(run, c) for run, c in results if c.hard]
    for run, c in hard[:5]:
        print(f"hard failure in {' '.join(run.argv)}: {'; '.join(c.problems[:3])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": not hard,
        "attempted": len(results),
        "failed": len(hard),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def environment() -> str:
    import mpmath
    import numpy
    import scipy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} mpmath={mpmath.__version__} blas_threads={blas_threads()} "
        f"NCPIV_THREADS={os.environ['NCPIV_THREADS']}"
    )


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or 'unknown'."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return fn()
    return "unknown"


# ---------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    names = list(results[workloads.WORKLOADS[0]]["metrics"])
    print(f"{'metric':40s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in results))
    for name in names:
        unit = results[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        vals = " ".join(f"{r['metrics'][name]['value']:12.6g}" for r in results.values())
        print(f"{name:40s} {unit:6s} {vals}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            setup_probe(args.workload)
            return 0
        cli = load_cli()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"ncpiv benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"environment: {environment()}")
    measured = measure_traced if args.trace else measure
    result = measured(cli, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
