"""End-to-end tests of the command-line interface: exit codes, output
format contracts, and determinism."""

import csv
import json
import re

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


def test_verify_scalar_skips_matrix_checks(capsys):
    code = main(["verify", "--family", "scalar", "--n", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "n/a" in out


def test_bad_contour_config_is_usage_error(capsys):
    code = main(["fredholm-scan", "--radius", "3", "--line-re", "2"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "contours intersect ordering" in err


def test_fredholm_scan_radius_only_checks_ordering(capsys):
    # the loop integral is taken by residues: the radius must clear the
    # line, but does not change the output
    outs = []
    for radius in ("0.3", "0.6"):
        argv = ["fredholm-scan", "--family", "a", "--n", "3", "--s-min", "-2", "--s-max", "2", "--s-steps", "5"]
        assert main(argv + ["--radius", radius, "--line-re", "1.0"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


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


def test_fredholm_scan_builds_one_gram_system_per_row(tmp_path, monkeypatch):
    from ncpiv import fredholm, quadrature

    calls = {"build_gram": 0, "second_log_deriv": 0, "tail_integral": 0}

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(fredholm, "build_gram")
    counted(fredholm, "second_log_deriv")
    counted(fredholm, "tail_integral")
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
    assert calls == {"build_gram": steps, "second_log_deriv": 0, "tail_integral": 0}


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
def test_determinism_byte_identical(args, tmp_path, monkeypatch):
    # the scan and airy rows run on the NCPIV_THREADS pool
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("NCPIV_THREADS", "1")
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    monkeypatch.setenv("NCPIV_THREADS", "4")
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
    for name, option in (("nu", "nu"), ("s_min", "s-min"), ("s_max", "s-max"), ("line_trunc", "line-trunc"), ("step", "step")):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{option} must be finite$"):
                RunConfig(**{name: bad}).validate()
    for step in (0.0, -1e-3):
        with pytest.raises(ValueError, match="step must be positive"):
            RunConfig(step=step).validate()
    assert main(["fredholm-scan", "--n", "0"]) == EXIT_USAGE
    assert main(["fredholm-scan", "--nu", "nan"]) == EXIT_USAGE


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
