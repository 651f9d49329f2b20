"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Runs every workload for one op, untraced and traced, and asserts that
   the run is correct and prints every metric BENCHMARK.json names, with
   its unit.
2. Feeds the checks rows whose determinant is scaled by 1.01 and asserts
   that each counts in failed_frac; and flagged rows, asserting that only
   a contour-route failure after a sound Gram determinant is soft.
3. Runs the benchmark from a directory that holds only BENCHMARK.json and
   the benchmark and asserts that it exits non-zero without a result.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import checks  # noqa: E402
import workloads  # noqa: E402


def expect(ok: bool, detail) -> None:
    """A failed expectation; unlike assert, kept under python -O."""
    if not ok:
        raise AssertionError(detail)


def check_metrics_printed() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1e-9", "--trace", str(trace)],
                capture_output=True, text=True, check=True, cwd=run.ROOT,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(result["correct"] and result["attempted"] == 1, (workload, trace, result))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, (workload, trace, set(got) ^ set(want)))
            print(f"ok: {workload} trace={trace}: {len(got)} metrics with units")


def edited(text: str, row: int, **fields: str) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row].update(fields)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def check_corrupted_rows() -> None:
    cli = run.load_cli()
    for family, column in (("scalar", "det_gram"), ("a", "det_contour")):
        op = workloads.Op(
            ("fredholm-scan", "--family", family, "--n", "2", "--s-min", "-1", "--s-max", "1", "--s-steps", "3"),
            3,
            partial(checks.check_scan, family=family, n=2, grid=[-1.0, 0.0, 1.0]),
        )
        out = run.call(cli, op.argv)
        clean = run.judge(op, out)
        expect(run.failed_frac([clean]) == 0.0, clean.problems)
        row = list(csv.DictReader(io.StringIO(out.text)))[1]
        contour_failed = {"det_contour": "", "R": "", "Rp": "", "Rpp": "", "error": "contour failed"}
        corrupted = (
            ({column: repr(float(row[column]) * 1.01)}, "soft" if column == "det_contour" else "hard"),
            (contour_failed, "soft"),
            # the scalar Gram route is still held to the oracle on a flagged row
            ({**contour_failed, "det_gram": repr(float(row["det_gram"]) * 1.01)}, "hard" if family == "scalar" else "soft"),
            ({"det_gram": "", "error": "gram failed"}, "hard"),
            ({"R": "", "error": "log_deriv failed"}, "hard"),
        )
        for fields, status in corrupted:
            bad = op.check(edited(out.text, 1, **fields))
            expect(run.failed_frac([bad]) == 1 / 3 and bad.statuses[1] == status, (fields, bad.statuses))
            print(f"ok: {family} row with {sorted(fields)} edited counts in failed_frac ({status})")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gap-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout))
    print(f"ok: without src/ the benchmark exits {proc.returncode}: {proc.stderr.strip()}")


if __name__ == "__main__":
    check_corrupted_rows()
    check_refuses_without_sources()
    check_metrics_printed()
    print("selftest passed")
