"""Per-row output checks for the four CLI commands the benchmark drives.

Every op's output is parsed and each row is judged ``ok``, ``soft`` or
``hard``:

* ``hard``: a reference result or a structural invariant is wrong: the
  Gram-route determinant against the closed-form oracle, the sigma-PIV
  residual, a verify check line, Airy monotonicity, non-finite values,
  malformed output.  An op that raises or exits non-zero fails every row
  it should have printed.  Any hard row makes the run report
  ``correct: false`` and counts its op as failed.
* ``soft``: a computed number misses its accuracy target: the contour
  route off the Gram route by more than ``ROUTE_LOG_TOL`` in log-det
  terms, R or R' off the oracle by more than ``ORACLE_R_TOL`` relative,
  a Painleve residual above criterion 8's bound, or a scan row whose
  contour determinant the CLI flagged in its ``error`` column after a
  sound Gram determinant (any other flagged row is hard).  At the
  reference commit these are the lower-tail accuracy defects (strongly
  negative s, larger n) and states close to a movable pole.  Soft rows
  count as failed rows (``failed_frac``) without making the run
  incorrect.

Rows that are not ``ok`` never count towards ``rows_per_s``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import mpmath as mp

# |log det_contour - log det_gram|: half of double precision.  Judged in
# relative (log-det) terms, as in Bornemann, "On the numerical evaluation
# of Fredholm determinants", Math. Comp. 79 (2010).
ROUTE_LOG_TOL = 1e-8
# Gram route against the 50-digit closed-form oracle (scalar family).
ORACLE_DPS = 50
ORACLE_DET_TOL = 1e-10
ORACLE_R_TOL = 1e-8
# criterion 7: |sigma-PIV residual| <= 1e-6 (1 + R''^2)
SIGMA_TOL = 1e-6
# criterion 8
NCPIV_TOL = 1e-6
LAX_TOL = 1e-8

OK, SOFT, HARD = "ok", "soft", "hard"

SCAN_COLUMNS = ["s", "det_gram", "det_contour", "R", "Rp", "Rpp", "sigma_piv_residual", "error"]
PIV_COLUMNS = ["s", "u00", "u01", "u10", "u11", "ncpiv_residual_norm", "lax_residual_norm", "flags"]
AIRY_COLUMNS = ["n", "sup_error", "offdiag_max", "error"]
VERIFY_CHECKS = 5


@dataclass
class OpCheck:
    """Verdict on one op: one status per attempted row plus op-level facts."""

    statuses: list = field(default_factory=list)
    emitted: int = 0  # data rows the CLI printed
    problems: list = field(default_factory=list)
    route_gaps: list = field(default_factory=list)  # |dc - dg| / dg per scan row
    pole_stop: bool = False
    trajectory_rows: int = 0

    @property
    def attempted(self) -> int:
        return len(self.statuses)

    @property
    def passed(self) -> int:
        return self.statuses.count(OK)

    @property
    def hard(self) -> bool:
        return HARD in self.statuses

    def fail_all(self, expected_rows: int, why: str) -> "OpCheck":
        """The op raised, exited non-zero or printed malformed output:
        every row it should have produced fails, and at least one."""
        self.statuses = [HARD] * max(1, expected_rows)
        self.problems.append(why)
        return self


def _csv_rows(text: str, columns: list[str]) -> list[dict] | None:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return None
    if header != columns:
        return None
    rows = [dict(zip(columns, r)) for r in reader]
    if any(len(r) != len(columns) for r in rows):
        return None
    return rows


def _num(text: str) -> float:
    """Parsed float, or nan for an empty or unparsable field."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


def _rel(a: float, b) -> float:
    return abs(a - float(b)) / abs(float(b))


# ---------------------------------------------------------------------
# independent oracle for the scalar family


def scalar_gap_oracle(n: int, s: float, dps: int = ORACLE_DPS):
    """det H, R = (log det H)' and R' for the scalar (Gaussian) family,
    H = integral over (-inf, s] of psi psi^T with psi_0..psi_{n-1} the
    orthonormal Hermite functions, at ``dps`` digits.

    Closed form, independent of the package: psi_k and psi_k' from the
    three-term recurrence; off-diagonal entries from the Wronskian
    identity (psi_j psi_k' - psi_j' psi_k)' = 2 (j - k) psi_j psi_k;
    diagonal entries from I_0 = (1 + erf s)/2 and
    I_k = I_{k-1} - psi_k psi_{k-1} / sqrt(2k)."""
    with mp.workdps(dps):
        s = mp.mpf(s)
        psi = [mp.pi ** mp.mpf(-0.25) * mp.exp(-s * s / 2)]
        for k in range(n - 1):
            nxt = mp.sqrt(mp.mpf(2) / (k + 1)) * s * psi[k]
            if k:
                nxt -= mp.sqrt(mp.mpf(k) / (k + 1)) * psi[k - 1]
            psi.append(nxt)
        dpsi = [-s * psi[k] + (mp.sqrt(2 * k) * psi[k - 1] if k else 0) for k in range(n)]
        h = mp.matrix(n, n)
        diag = (1 + mp.erf(s)) / 2
        for k in range(n):
            if k:
                diag -= psi[k] * psi[k - 1] / mp.sqrt(2 * k)
            h[k, k] = diag
            for j in range(k):
                h[j, k] = h[k, j] = (psi[j] * dpsi[k] - dpsi[j] * psi[k]) / (2 * (j - k))
        x = mp.lu_solve(h, mp.matrix(psi))
        r = mp.fdot(psi, x)
        rp = -r * r + 2 * mp.fdot(dpsi, x)
        return mp.det(h), r, rp


# ---------------------------------------------------------------------
# per-command checks


def check_scan(text: str, family: str, n: int, grid: list[float]) -> OpCheck:
    out = OpCheck()
    rows = _csv_rows(text, SCAN_COLUMNS)
    if rows is None or len(rows) != len(grid):
        return out.fail_all(len(grid), "malformed fredholm-scan output")
    out.emitted = len(rows)
    for row, s in zip(rows, grid):
        out.statuses.append(_scan_row(row, family, n, s, out))
    return out


def _scan_row(row: dict, family: str, n: int, s: float, out: OpCheck) -> str:
    if not math.isclose(_num(row["s"]), s, rel_tol=1e-12, abs_tol=1e-12):
        out.problems.append(f"s={row['s']}: off the requested grid")
        return HARD
    dg, dc = _num(row["det_gram"]), _num(row["det_contour"])
    oracle = scalar_gap_oracle(n, s) if family == "scalar" else None
    if oracle is not None and _finite(dg) and _rel(dg, oracle[0]) > ORACLE_DET_TOL:
        out.problems.append(f"s={s:.6g}: det_gram off the oracle by {_rel(dg, oracle[0]):.1e}")
        return HARD
    if row["error"]:
        # The CLI computes det_gram, then det_contour, then R, R', R'' and
        # stops at the first error.  Only a contour-route failure after a
        # sound Gram determinant is a known accuracy defect; any other
        # error broke the reference route.
        out.problems.append(f"s={s:.6g}: flagged: {row['error']}")
        contour_only = _finite(dg) and 0.0 < dg <= 1.0 and not row["det_contour"]
        return SOFT if contour_only else HARD
    r, rp, rpp = _num(row["R"]), _num(row["Rp"]), _num(row["Rpp"])
    if not (_finite(dg, r, rp, rpp) and 0.0 < dg <= 1.0):
        out.problems.append(f"s={s:.6g}: Gram-route values out of range")
        return HARD
    if oracle is not None:
        sigma = _num(row["sigma_piv_residual"])
        if not (math.isfinite(sigma) and abs(sigma) <= SIGMA_TOL * (1.0 + rpp * rpp)):
            out.problems.append(f"s={s:.6g}: sigma-PIV residual {row['sigma_piv_residual']}")
            return HARD
    elif row["sigma_piv_residual"]:
        out.problems.append(f"s={s:.6g}: sigma-PIV residual on a matrix family")
        return HARD
    if not math.isfinite(dc):
        out.problems.append(f"s={s:.6g}: det_contour not finite")
        return SOFT
    out.route_gaps.append(abs(dc - dg) / dg)
    if not (0.0 < dc <= 1.0 and abs(math.log(dc) - math.log(dg)) <= ROUTE_LOG_TOL):
        return SOFT
    if oracle is not None and (_rel(r, oracle[1]) > ORACLE_R_TOL or _rel(rp, oracle[2]) > ORACLE_R_TOL):
        return SOFT
    return OK


_POLE_FLAGS = ("singularity encountered at s=", "y singular")


def check_painleve(text: str, length: float, step: float) -> OpCheck:
    out = OpCheck()
    rows = _csv_rows(text, PIV_COLUMNS)
    if rows is None or not rows:
        return out.fail_all(1, "malformed painleve output")
    out.emitted = len(rows)
    traj = [r for r in rows if r["s"]]
    flags = [r["flags"] for r in rows if not r["s"]]
    if len(flags) > 1 or (flags and rows[-1]["s"]):
        return out.fail_all(len(traj), "flag row not last")
    if flags:
        if not flags[0].startswith(_POLE_FLAGS):
            return out.fail_all(len(traj), f"unrecognised flag {flags[0]!r}")
        out.pole_stop = True
    elif len(traj) != round(length / step) + 1:
        return out.fail_all(len(traj), "trajectory ends early without a flag")
    out.trajectory_rows = len(traj)
    for r in traj:
        vals = [_num(r[c]) for c in PIV_COLUMNS[:-1]]
        if not _finite(*vals) or r["flags"]:
            out.problems.append(f"s={r['s']}: non-finite values or a flag on a trajectory row")
            out.statuses.append(HARD)
        elif vals[5] > NCPIV_TOL or vals[6] > LAX_TOL:
            out.problems.append(f"s={r['s']}: residuals {r['ncpiv_residual_norm']}, {r['lax_residual_norm']}")
            out.statuses.append(SOFT)
        else:
            out.statuses.append(OK)
    return out


def check_verify(text: str) -> OpCheck:
    out = OpCheck()
    lines = text.splitlines()
    if len(lines) != VERIFY_CHECKS:
        return out.fail_all(VERIFY_CHECKS, f"verify printed {len(lines)} lines")
    out.emitted = len(lines)
    for line in lines:
        ok = line.endswith(": n/a") or line.endswith(") ok")
        if not ok:
            out.problems.append(line)
        out.statuses.append(OK if ok else HARD)
    return out


def check_airy(text: str, degrees: list[int]) -> OpCheck:
    """Rows in the requested order, each with a finite sup_error strictly
    below the previous degree's (criterion 10)."""
    out = OpCheck()
    rows = _csv_rows(text, AIRY_COLUMNS)
    if rows is None or [r["n"] for r in rows] != [str(d) for d in degrees]:
        return out.fail_all(len(degrees), "malformed airy output")
    out.emitted = len(rows)
    prev = math.inf
    for r in rows:
        sup, off = _num(r["sup_error"]), _num(r["offdiag_max"])
        ok = not r["error"] and _finite(sup, off) and 0.0 <= sup < prev
        if not ok:
            out.problems.append(f"n={r['n']}: sup_error {r['sup_error']} {r['error']}")
        out.statuses.append(OK if ok else HARD)
        prev = sup if math.isfinite(sup) else prev
    return out
