"""End-to-end tests of the command-line interface: exit codes, output
format contracts, and determinism."""

import argparse
import csv
import io
import json
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ncpiv.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, RunConfig, main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_verify_family_a(capsys):
    code = main(["verify", "--family", "a", "--nu", "1", "--n", "6"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    for name in (
        "orthonormality",
        "norm-formula",
        "ode-residual",
        "integral-representations",
        "kernel-equivalence",
    ):
        assert name in out
    assert "FAIL" not in out


@pytest.mark.parametrize("family", ["a", "b"])
def test_verify_ode_residual_is_relative(family, monkeypatch, capsys):
    # the normalized polynomial grows with its degree, so only a residual
    # relative to the size of the equation's terms passes sound families
    # of high degree (an absolute one reads 4e-8 at n = 18, kind a)
    for n in (18, 30, 60):
        assert main(["verify", "--family", family, "--n", str(n)]) == EXIT_OK
    from ncpiv import families

    orig = families._ode_coefficients

    def perturbed(fam, n):
        f2, f1, f0, gam = orig(fam, n)
        return f2, f1, f0, gam * (1.0 + 1e-6)

    monkeypatch.setattr(families, "_ode_coefficients", perturbed)
    capsys.readouterr()
    assert main(["verify", "--family", family, "--n", "18"]) == EXIT_CHECK_FAILED
    assert re.search(r"^ode-residual: max residual \S+ \(tol 1e-08\) FAIL$", capsys.readouterr().out, re.M)


@pytest.mark.parametrize("family", ["a", "b"])
def test_verify_one_pass_prints_the_per_degree_checks(family, capsys):
    # verify evaluates the integral representations and the ODE terms of
    # all degrees in one pass; it prints what one call per degree gives
    from ncpiv import kernels
    from ncpiv.cli import _weight
    from ncpiv.families import build_family, ode_residual, ode_terms
    from ncpiv.quadrature import gauss_hermite

    for n in range(4, 9):
        assert main(["verify", "--family", family, "--nu", "0.8", "--n", str(n), "--seed", str(n)]) == EXIT_OK
        out = capsys.readouterr().out
        config = RunConfig(family=family, nu=0.8, n=n, seed=n)
        fam = build_family(_weight(config), max(n, 6), quad=gauss_hermite(config.quad_points))
        xs = np.array([-1.0, 0.0, 0.5, 1.5])
        errors = []
        for k in range(1, min(n, 5) + 1):
            direct = kernels.polynomial_times_tfactor(fam, k, xs)
            errors += [kernels.intrep_loop(fam, k, xs) - direct, kernels.intrep_line(fam, k, xs) - direct]
        assert f"integral-representations: max residual {np.max(np.abs(errors)):.3e} (tol" in out
        rel = []
        for k, x in enumerate(np.random.default_rng(n).uniform(-2, 2, size=(n + 1, 5))):
            terms = ode_terms(fam, k, x)
            size = np.max(np.abs(terms), axis=(-2, -1)).sum(axis=0).max()
            rel.append(np.max(np.abs(ode_residual(fam, k, x, terms))) / size)
        assert f"ode-residual: max residual {max(rel):.3e} (tol" in out


def test_verify_scalar_skips_matrix_checks(capsys):
    code = main(["verify", "--family", "scalar", "--n", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "n/a" in out


def test_bad_contour_config_is_usage_error(capsys):
    # the kernel contours are fixed: no subcommand takes a contour option
    for name in ("verify", "fredholm-scan", "painleve", "airy"):
        for option in ("--radius", "--line-re", "--line-trunc"):
            assert main([name, option, "1"]) == EXIT_USAGE
            assert "unrecognized arguments" in capsys.readouterr().err


def test_each_subcommand_takes_the_options_it_reads(capsys):
    # the parser offers each subcommand the RunConfig fields of its row
    # of the table, plus --initial (painleve) and --n-list (airy): 27
    # option slots; every other field is a usage error
    from ncpiv.cli import _OPTIONS, _parser

    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_OPTIONS)
    extra = {"painleve": {"--initial"}, "airy": {"--n-list"}}
    slots = 0
    for name, reads in _OPTIONS.items():
        offered = {o for a in sub.choices[name]._actions for o in a.option_strings} - {"-h", "--help"}
        assert offered == {"--" + f.replace("_", "-") for f in reads} | extra.get(name, set())
        slots += len(offered)
        for f in fields(RunConfig):
            if f.name not in reads:
                assert main([name, "--" + f.name.replace("_", "-"), "1"]) == EXIT_USAGE
    assert slots == 27
    for argv in (
        ["verify", "--out", "f"],
        ["fredholm-scan", "--quad-points", "300"],
        ["painleve", "--nu", "2"],
        ["airy", "--n", "8"],
    ):
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_family_is_usage_error():
    assert main(["verify", "--family", "q"]) == EXIT_USAGE


def test_fredholm_scan_minimal_format(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "fredholm-scan",
            "--family",
            "scalar",
            "--n",
            "1",
            "--s-min",
            "-1",
            "--s-max",
            "1",
            "--s-steps",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == [
        "s",
        "det_gram",
        "det_contour",
        "R",
        "Rp",
        "Rpp",
        "sigma_piv_residual",
        "error",
    ]
    assert len(rows) == 3  # header + 2 data rows
    # 17 significant digits, no locale separators
    assert "e" in rows[1][1] and "," not in rows[1][1]


def test_fredholm_scan_scalar_closed_form(tmp_path):
    out = tmp_path / "scan.csv"
    main(
        [
            "fredholm-scan",
            "--family",
            "scalar",
            "--n",
            "1",
            "--s-min",
            "0",
            "--s-max",
            "1",
            "--s-steps",
            "2",
            "--out",
            str(out),
        ]
    )
    rows = read_csv(out)
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-10)


def test_fredholm_scan_routes_agree(tmp_path):
    out = tmp_path / "scan.csv"
    main(
        [
            "fredholm-scan",
            "--family",
            "a",
            "--n",
            "3",
            "--s-min",
            "-1",
            "--s-max",
            "2",
            "--s-steps",
            "7",
            "--out",
            str(out),
        ]
    )
    rows = read_csv(out)[1:]
    worst = max(abs(float(r[1]) - float(r[2])) for r in rows)
    assert worst <= 1e-5


def test_fredholm_scan_builds_one_grid_per_scan(tmp_path, monkeypatch):
    # one grid build covers every row: no per-row Gram system, and one
    # Phi evaluation on the panels of a short grid
    from ncpiv import fredholm, quadrature

    calls = {"gram_stacks": 0, "build_grams": 0, "build_gram": 0, "phi_all": 0, "second_log_deriv": 0, "tail_integral": 0}

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(fredholm, "gram_stacks")
    counted(fredholm, "build_grams")
    counted(fredholm, "build_gram")
    counted(fredholm, "phi_all")
    counted(fredholm, "second_log_deriv")
    counted(quadrature, "tail_integral")
    steps = 4
    code = main(
        [
            "fredholm-scan",
            "--family",
            "b",
            "--n",
            "2",
            "--s-min",
            "-1",
            "--s-max",
            "1",
            "--s-steps",
            str(steps),
            "--out",
            str(tmp_path / "scan.csv"),
        ]
    )
    assert code == EXIT_OK
    assert len(read_csv(tmp_path / "scan.csv")) == steps + 1
    assert calls == {
        "gram_stacks": 1,
        "build_grams": 0,
        "build_gram": 0,
        "phi_all": 1,
        "second_log_deriv": 0,
        "tail_integral": 0,
    }


def test_fredholm_scan_flagged_rows_keep_the_gram_route(capsys):
    # the README scan: a row whose contour determinant is flagged still
    # prints R, R' and R'' of its Gram system
    from ncpiv import fredholm
    from ncpiv.families import WeightFamily, build_family

    argv = ["fredholm-scan", "--family", "a", "--nu", "1", "--n", "3", "--s-min", "-3", "--s-max", "3"]
    assert main(argv + ["--s-steps", "121"]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    family = build_family(WeightFamily(kind="a", nu=1.0), 4)
    grid = np.linspace(-3.0, 3.0, 121)
    flagged = 0
    for row, system in zip(rows, fredholm.build_grams(family, 3, grid)):
        if row["error"]:
            flagged += 1
            assert row["error"].startswith("contour route unreliable (est ")
            assert row["det_contour"] == "" and row["sigma_piv_residual"] == ""
            assert [float(row[c]) for c in ("R", "Rp", "Rpp")] == list(fredholm.log_derivs(system))
    assert flagged == 28


def test_fredholm_scan_stacks_stay_within_one_chunk(monkeypatch):
    # a 5 000-row scan: every stacked determinant and solve holds the rows
    # of one chunk of panels at most, never the whole grid
    from ncpiv import fredholm
    from ncpiv.quadrature import PANEL_ORDER

    slogdet, solve = np.linalg.slogdet, fredholm._forward_solve
    stacks = {"slogdet": [], "solve": []}

    def recording_slogdet(mat):
        stacks["slogdet"].append(len(mat))
        return slogdet(mat)

    def recording_solve(c, rhs):
        stacks["solve"].append(len(c))
        return solve(c, rhs)

    monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
    monkeypatch.setattr(fredholm, "_forward_solve", recording_solve)
    argv = ["fredholm-scan", "--n", "1", "--s-min", "-1", "--s-max", "1", "--s-steps", "5000", "--format", "json"]
    buf = io.StringIO()
    monkeypatch.setattr(sys, "stdout", buf)
    assert main(argv) == EXIT_OK
    rows = json.loads(buf.getvalue())
    assert len(rows) == 5000 and not any(row["error"] for row in rows)
    for sizes in stacks.values():
        assert len(sizes) > 1 and sum(sizes) == 5000
        assert max(sizes) <= fredholm._CHUNK_NODES // PANEL_ORDER


@pytest.mark.parametrize(
    "argv",
    [
        ["fredholm-scan", "--s-min", "-1e-3", "--s-max", "2.5E+0", "--s-steps", "4"],
        ["fredholm-scan", "--family", "b", "--nu", "1.5e0", "--s-min", "-1.5e+0", "--s-max", "-5e-1", "--s-steps", "3"],
        ["painleve", "--s-min", "-5e-1", "--s-max", "-4e-1", "--step", "1e-2"],
        ["verify", "--nu", "-5e-1", "--n", "2"],
    ],
)
def test_negative_values_in_exponent_notation(argv, capsys):
    # "--s-min -1e-3" is the value -0.001, as "--s-min=-1e-3" is
    joined = []
    for tok in argv:
        if joined and joined[-1].startswith("--") and tok[0] == "-" and tok[1].isdigit():
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    assert joined != argv
    outputs = []
    for form in (argv, joined):
        code = main(form)
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1] and outputs[0][0] != EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["painleve", "--step", "-1e-3"],
        ["fredholm-scan", "--s-min", "-1e-3x"],
        ["fredholm-scan", "--s-min", "-1e999"],
        ["fredholm-scan", "--s-min", "-1e3"],
        ["fredholm-scan", "--n", "-1e1"],
    ],
)
def test_invalid_negative_values_are_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_fredholm_scan_bounds_s(capsys):
    # the scan's panels grow with |s|; s = 1e9 once ran past 10 s
    for argv in (
        ["fredholm-scan", "--s-min", "0", "--s-max", "1e9", "--s-steps", "3"],
        ["fredholm-scan", "--s-min=-1e9", "--s-steps", "3"],
        ["fredholm-scan", "--s-min", "-1e9", "--s-steps", "3"],
    ):
        start = time.perf_counter()
        assert main(argv) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
    assert "s-min and s-max must lie in [-100, 100] for fredholm-scan" in capsys.readouterr().err
    RunConfig(s_min=-100.0, s_max=100.0).validate("fredholm-scan")
    for s_min, s_max in ((-100.5, 0.0), (0.0, 100.5)):
        with pytest.raises(ValueError, match=r"^s-min and s-max must lie in \[-100, 100\] for fredholm-scan$"):
            RunConfig(s_min=s_min, s_max=s_max).validate("fredholm-scan")
    # painleve reads s only as the span of its flow
    RunConfig(s_min=0.0, s_max=1e9).validate("painleve")


def test_painleve_fixed_point(tmp_path):
    init = tmp_path / "init.json"
    init.write_text(
        json.dumps(
            {
                "y": [[1.0, 0.0], [0.0, 1.0]],
                "z": [[0.0, 0.0], [0.0, 0.0]],
                "zp": [[0.0, 0.0], [0.0, 0.0]],
                "u": [[0.0, 0.0], [0.0, 0.0]],
                "variant": "a",
                "n": 0,
            }
        )
    )
    out = tmp_path / "traj.csv"
    code = main(
        [
            "painleve",
            "--family",
            "a",
            "--s-min",
            "0",
            "--s-max",
            "0.2",
            "--step",
            "0.01",
            "--initial",
            str(init),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == [
        "s",
        "u00",
        "u01",
        "u10",
        "u11",
        "ncpiv_residual_norm",
        "lax_residual_norm",
        "flags",
    ]
    for r in rows[1:]:
        assert float(r[5]) < 1e-12
        assert float(r[6]) < 1e-12


def test_painleve_diagonal_data_diagonal_u(tmp_path):
    init = tmp_path / "init.json"
    init.write_text(
        json.dumps(
            {
                "y": [[1.0, 0.0], [0.0, 2.0]],
                "z": [[0.1, 0.0], [0.0, -0.2]],
                "zp": [[0.0, 0.0], [0.0, 0.1]],
                "u": [[0.3, 0.0], [0.0, -0.1]],
                "variant": "a",
                "n": 1,
            }
        )
    )
    out = tmp_path / "traj.csv"
    assert (
        main(
            [
                "painleve",
                "--family",
                "a",
                "--s-min",
                "0",
                "--s-max",
                "0.3",
                "--step",
                "0.005",
                "--initial",
                str(init),
                "--out",
                str(out),
            ]
        )
        == EXIT_OK
    )
    for r in read_csv(out)[1:]:
        assert abs(float(r[2])) < 1e-12  # u01
        assert abs(float(r[3])) < 1e-12  # u10


def test_painleve_blowup_is_recorded_not_fatal(tmp_path):
    init = tmp_path / "init.json"
    init.write_text(
        json.dumps(
            {
                "y": [[1.0, 0.0], [0.0, 1.0]],
                "z": [[60.0, 0.0], [0.0, 60.0]],
                "zp": [[900.0, 0.0], [0.0, 900.0]],
                "u": [[80.0, 0.0], [0.0, 80.0]],
                "variant": "a",
                "n": 0,
            }
        )
    )
    out = tmp_path / "traj.csv"
    code = main(
        [
            "painleve",
            "--family",
            "a",
            "--s-min",
            "0",
            "--s-max",
            "2",
            "--step",
            "0.01",
            "--initial",
            str(init),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK  # movable poles are expected behaviour
    rows = read_csv(out)
    assert "singularity encountered at s=" in rows[-1][-1]


_INITIAL = {
    "y": [[1.0, 0.0], [0.0, 1.0]],
    "z": [[0.1, 0.0], [0.0, -0.2]],
    "zp": [[0.0, 0.0], [0.0, 0.1]],
    "u": [[0.3, 0.0], [0.0, -0.1]],
    "variant": "a",
    "n": 1,
}


@pytest.mark.parametrize(
    "data, message",
    [
        ({k: v for k, v in _INITIAL.items() if k != "zp"}, "initial data lacks the key 'zp'"),
        ([1, 2], "initial data must be a JSON object"),
        ({**_INITIAL, "n": [1]}, "initial data 'n' must be an integer"),
        ({**_INITIAL, "u": {"a": 1}}, "initial data 'u' must be a matrix of numbers"),
    ],
    ids=["missing-key", "not-an-object", "n-not-an-integer", "u-not-a-matrix"],
)
def test_painleve_bad_initial_data_is_usage_error(data, message, tmp_path, capsys):
    # bad input exits 2 with its reason, not 1 (a failed check) with a
    # traceback
    init = tmp_path / "init.json"
    init.write_text(json.dumps(data))
    assert main(["painleve", "--s-min", "0", "--s-max", "0.1", "--initial", str(init)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    init.write_text(json.dumps(_INITIAL))
    assert main(["painleve", "--s-min", "0", "--s-max", "0.1", "--initial", str(init)]) == EXIT_OK


def test_painleve_pole_flag_names_s(tmp_path):
    # the README command: y turns singular inside an RK stage near s = 0.89
    out = tmp_path / "traj.csv"
    argv = ["painleve", "--family", "a", "--n", "1", "--seed", "7", "--s-min", "0", "--s-max", "1"]
    assert main(argv + ["--step", "1e-3", "--out", str(out)]) == EXIT_OK
    assert re.match(r"^y singular at s=", read_csv(out)[-1][-1])


def test_airy_scan_decreasing(tmp_path):
    out = tmp_path / "airy.csv"
    code = main(
        ["airy", "--family", "scalar", "--n-list", "8,16", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["n", "sup_error", "offdiag_max", "error"]
    assert float(rows[2][1]) < float(rows[1][1])


def test_airy_empty_n_list_is_usage_error():
    assert main(["airy", "--n-list", ""]) == EXIT_USAGE


def test_airy_bad_degree_is_usage_error():
    assert main(["airy", "--n-list", "9"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "args",
    [
        ["painleve", "--family", "a", "--n", "1", "--seed", "7", "--s-min", "0", "--s-max", "0.3", "--step", "0.005"],
        ["fredholm-scan", "--family", "b", "--nu", "0.7", "--n", "3", "--s-min", "-1", "--s-max", "1", "--s-steps", "9"],
        ["airy", "--family", "a", "--n-list", "8,16,32"],
    ],
    ids=["painleve", "fredholm-scan", "airy"],
)
def test_determinism_byte_identical(args, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_runconfig_validation():
    with pytest.raises(ValueError, match="s-min must be below s-max"):
        RunConfig(s_min=2.0, s_max=1.0).validate()
    with pytest.raises(ValueError, match="s-steps"):
        RunConfig(s_steps=1).validate()
    with pytest.raises(ValueError, match="format"):
        RunConfig(format="xml").validate()
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            RunConfig(n=n).validate()
    for name, option in (("nu", "nu"), ("s_min", "s-min"), ("s_max", "s-max"), ("step", "step")):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{option} must be finite$"):
                RunConfig(**{name: bad}).validate()
    for step in (0.0, -1e-3):
        with pytest.raises(ValueError, match="step must be positive"):
            RunConfig(step=step).validate()
    for seed in (-1, -(2**40)):
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            RunConfig(seed=seed).validate()
    for points in (199, 5, 0, -200):
        with pytest.raises(ValueError, match="^quad-points must be at least 200$"):
            RunConfig(quad_points=points).validate()
    for field, option, limit in (("n", "n", 1000), ("quad_points", "quad-points", 370), ("s_steps", "s-steps", 100_000)):
        RunConfig(**{field: limit}).validate()
        for bad in (limit + 1, 10**12):
            with pytest.raises(ValueError, match=f"^{option} must be at most {limit}$"):
                RunConfig(**{field: bad}).validate()
    RunConfig(seed=0, quad_points=200).validate()
    assert main(["fredholm-scan", "--n", "0"]) == EXIT_USAGE
    assert main(["fredholm-scan", "--nu", "nan"]) == EXIT_USAGE
    assert main(["verify", "--seed", "-1"]) == EXIT_USAGE
    assert main(["verify", "--quad-points", "5"]) == EXIT_USAGE
    # too large a size is a usage error, raised before anything is built
    assert main(["verify", "--quad-points", "100000000"]) == EXIT_USAGE
    assert main(["fredholm-scan", "--n", "100000000"]) == EXIT_USAGE
    assert main(["fredholm-scan", "--s-steps", "100000000"]) == EXIT_USAGE


def test_rule_size_implied_by_n_is_capped():
    # verify and fredholm-scan build a 3(n + 1)-node Gauss-Hermite rule,
    # finite up to n = 122; painleve takes n only as a parameter
    for command in ("verify", "fredholm-scan"):
        RunConfig(n=122).validate(command)
        with pytest.raises(ValueError, match=f"^n must be at most 122 for {command}: "):
            RunConfig(n=123).validate(command)
        assert main([command, "--n", "123"]) == EXIT_USAGE
    RunConfig(n=123).validate("painleve")
    RunConfig(n=123).validate()
    assert main(["verify", "--quad-points", "371"]) == EXIT_USAGE
    # before these caps, fredholm-scan --n 130 exited 0 with a NaN row each
    assert main(["fredholm-scan", "--n", "130", "--s-steps", "2"]) == EXIT_USAGE


@pytest.mark.parametrize("name", ["ode_residual", "intrep_loop"])
def test_verify_fails_a_nan_residual(name, monkeypatch, capsys):
    # one NaN degree among finite ones must fail its check: the builtin
    # max(0.0, nan) is 0.0, which once printed such a check as ok
    from ncpiv import cli, kernels

    module = cli if name == "ode_residual" else kernels
    orig = getattr(module, name)

    def nan_at_degree_two(family, k, x, *args):
        # verify evaluates all degrees in one call, degree on the leading
        # axis; a call for one degree has no such axis
        value = orig(family, k, x, *args)
        at_two = np.asarray(k) == 2
        return np.where(at_two.reshape(at_two.shape + (1,) * (value.ndim - at_two.ndim)), np.nan, value)

    monkeypatch.setattr(module, name, nan_at_degree_two)
    assert main(["verify", "--family", "a", "--n", "4"]) == EXIT_CHECK_FAILED
    check = "ode-residual" if name == "ode_residual" else "integral-representations"
    assert re.search(rf"^{check}: max residual nan .* FAIL$", capsys.readouterr().out, re.M)


def test_fredholm_scan_flags_a_non_finite_contour_det():
    # at n = 122 the contour route's determinant overflows at s = -3, and
    # its moments lose every digit at s = 3; under warnings as errors the
    # scan flags both rows instead of dying in exp.  The Gram determinant
    # vanishes at both points too, and a row reports that first error
    from ncpiv import fredholm
    from ncpiv.families import WeightFamily, build_family

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ncpiv.cli", "fredholm-scan", "--n", "122", "--s-steps", "2"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    assert [float(r["s"]) for r in rows] == [-3.0, 3.0]
    for row in rows:
        assert np.isfinite(float(row["det_gram"]))
        assert row["det_contour"] == ""
        assert row["error"] == "determinant vanishes"
    family = build_family(WeightFamily(kind="a", nu=1.0), 123)
    with pytest.raises(ValueError, match="^contour determinant is not finite"):
        fredholm.contour_det(family, 122, -3.0)
    with pytest.raises(ValueError, match=r"^contour route unreliable \(est "):
        fredholm.contour_det(family, 122, 3.0)


def test_json_output(tmp_path):
    out = tmp_path / "scan.json"
    main(
        [
            "fredholm-scan",
            "--family",
            "scalar",
            "--n",
            "1",
            "--s-min",
            "0",
            "--s-max",
            "1",
            "--s-steps",
            "2",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    data = json.loads(out.read_text())
    assert len(data) == 2
    assert float(data[0]["det_gram"]) == pytest.approx(0.5, abs=1e-10)


def test_no_subcommand_loads_scipy_linalg():
    # scipy.linalg costs about 25 MB and a quarter second at start-up;
    # the package solves its triangular systems in numpy
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, sys\n"
        "from ncpiv.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['painleve', '--s-min', '0', '--s-max', '0.01']) == 0\n"
        "    assert main(['verify', '--n', '2']) == 0\n"
        "    assert main(['airy', '--n-list', '8']) == 0\n"
        "    assert main(['fredholm-scan', '--n', '2', '--s-steps', '3']) == 0\n"
        "    assert main(['fredholm-scan', '--family', 'scalar', '--n', '1', '--s-steps', '2']) == 0\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "assert not any(name == 'scipy' or name.startswith('scipy.') for name in sys.modules)\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=src, check=True)
