import hashlib
import json
import math

import pytest

from gainslab import Polarization
from gainslab.cli import (
    EXIT_NEAR_SINGULARITY,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    main,
    parse_gain,
    parse_length,
    parse_pol,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


class TestParsers:
    @pytest.mark.parametrize("text,expected", [
        ("1500nm", 1500e-9),
        ("300um", 300e-6),
        ("0.3mm", 0.3e-3),
        ("1.5e-6m", 1.5e-6),
        ("1.5e-6", 1.5e-6),
    ])
    def test_length(self, text, expected):
        assert parse_length(text) == pytest.approx(expected, rel=1e-15)

    def test_length_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_length("three furlongs")

    @pytest.mark.parametrize("text,expected", [
        ("40cm-1", 4000.0),
        ("4000m-1", 4000.0),
        ("4000", 4000.0),
    ])
    def test_gain(self, text, expected):
        assert parse_gain(text) == pytest.approx(expected)

    def test_pol(self):
        assert parse_pol("te") is Polarization.TE
        assert parse_pol("TM") is Polarization.TM
        with pytest.raises(Exception):
            parse_pol("TEM")


class TestTMatrix:
    def test_vacuum_identity(self, capsys):
        code, out, _ = run(capsys, "tmatrix", "--eta", "1.0",
                           "--wavelength", "1500nm", "--L", "1um",
                           "--pol", "TE", "--theta", "20")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        values = {r[0]: complex(r[1].replace("j", "j")) for r in rows}
        assert abs(values["R_left"]) < 1e-12
        assert values["T_left"] == pytest.approx(1.0, abs=1e-12)
        assert values["det_M"] == pytest.approx(1.0, abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "tmatrix", "--eta", "3.4",
                           "--kappa=-1e-4", "--wavelength", "1500nm",
                           "--L", "2um", "--pol", "TM", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["metadata"]["artifact"] == "gainslab"
        det = complex(*payload["result"]["det_M"])
        assert det == pytest.approx(1.0, abs=1e-10)

    def test_normal_incidence_pol_independent_magnitudes(self, capsys):
        outs = []
        for pol in ("TE", "TM"):
            _, out, _ = run(capsys, "tmatrix", "--eta", "3.4",
                            "--kappa=-1e-4", "--wavelength", "1500nm",
                            "--L", "5um", "--pol", pol, "--theta", "0")
            _, rows = csv_rows(out)
            outs.append({r[0]: complex(r[1]) for r in rows})
        assert abs(outs[0]["T_left"]) == pytest.approx(
            abs(outs[1]["T_left"]), rel=1e-12)
        assert abs(outs[0]["R_left"]) == pytest.approx(
            abs(outs[1]["R_left"]), rel=1e-12)

    def test_near_singular_input_exits_3(self, capsys, ss20_te):
        # lengths passed in bare meters so the floats round-trip exactly; a
        # single ulp of detuning already lifts |M22| above the flag tolerance
        code, _, err = run(capsys, "tmatrix",
                           "--eta", "3.4", f"--kappa={ss20_te.kappa}",
                           "--theta", "20",
                           "--wavelength", str(ss20_te.wavelength),
                           "--L", str(ss20_te.thickness), "--pol", "TE")
        assert code == EXIT_NEAR_SINGULARITY
        assert "singularity" in err

    def test_bad_value_exits_2(self, capsys):
        code, _, err = run(capsys, "tmatrix", "--eta", "-2.0",
                           "--wavelength", "1500nm", "--L", "1um",
                           "--pol", "TE")
        assert code == EXIT_VALIDATION
        assert "error" in err


class TestThreshold:
    def test_footer_and_columns(self, capsys):
        code, out, _ = run(capsys, "threshold", "--steps", "5",
                           "--theta-min", "0", "--theta-max", "60")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["theta_deg", "g_TE_cm1", "g_TM_cm1", "kappa_TE",
                          "kappa_TM"]
        assert len(rows) == 5
        footer = {l.split(",")[0]: float(l.split(",")[1])
                  for l in out.splitlines() if l.startswith("#")}
        assert footer["# theta_b_deg"] == pytest.approx(
            math.degrees(math.atan(3.4)))
        assert footer["# theta_c_deg"] == pytest.approx(73.6105, abs=1e-3)
        assert footer["# g_max_cm1"] == pytest.approx(461.113, rel=1e-4)

    def test_te_tm_agree_at_zero(self, capsys):
        _, out, _ = run(capsys, "threshold", "--steps", "2",
                        "--theta-min", "0", "--theta-max", "10")
        _, rows = csv_rows(out)
        assert float(rows[0][1]) == pytest.approx(float(rows[0][2]),
                                                  rel=1e-10)

    def test_no_gain_solution_exits_4(self, capsys):
        # a 50 nm slab has no threshold with |kappa| <= 0.1 near Brewster's
        # angle, so the TM critical angle cannot be solved
        with pytest.warns(UserWarning, match="threshold solve failed"):
            code, out, err = run(capsys, "threshold", "--L", "50nm",
                                 "--steps", "5")
        assert code == EXIT_SOLVER
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_no_steps_exits_2(self, capsys, steps):
        code, out, err = run(capsys, "threshold", "--steps", steps)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ") and "--steps" in err

    def test_format_option_rejected(self, capsys):
        # only tmatrix has a JSON form; argparse rejects the option here
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--format", "json"])
        assert exc.value.code == EXIT_VALIDATION
        assert "--format" in capsys.readouterr().err


class TestSingularity:
    def test_target_solve(self, capsys, ss20_te):
        code, out, _ = run(capsys, "singularity", "--eta", "3.4",
                           "--theta", "20", "--L", "400um", "--pol", "TE",
                           "--target", "1500nm")
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert result["lambda_nm"] == pytest.approx(
            ss20_te.wavelength * 1e9, rel=1e-12)
        assert result["g_cm1"] == pytest.approx(ss20_te.g / 100, rel=1e-9)
        assert result["m"] == ss20_te.m
        assert result["residual"] < 1e-10

    def test_explicit_mode(self, capsys, ss20_te):
        code, out, _ = run(capsys, "singularity", "--eta", "3.4",
                           "--theta", "20", "--L", "400um", "--pol", "TE",
                           "--m", str(ss20_te.m))
        assert code == EXIT_OK
        assert json.loads(out)["result"]["lambda_nm"] == pytest.approx(
            ss20_te.wavelength * 1e9, rel=1e-12)

    def test_solver_failure_exits_4(self, capsys):
        # a 50 nm slab has no threshold with |kappa| <= 0.1 for mode 1
        code, _, err = run(capsys, "singularity", "--eta", "3.4",
                           "--theta", "20", "--L", "50nm", "--pol", "TE",
                           "--m", "1")
        assert code == EXIT_SOLVER
        assert "no gain solution" in err


SLAB = ["--theta", "20", "--L", "400um", "--pol", "TE"]


class TestEdgeInputs:
    """Edge inputs give a value or a typed error, never a traceback or a
    numpy warning."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,code,message", [
        # eta = 1 once divided by eta^2 - 1 in the wavelength seed
        (["singularity", "--eta", "1.0", *SLAB, "--target", "1500nm"],
         EXIT_OK, ""),
        (["fields", "--eta", "1.0", *SLAB, "--target", "1500nm",
          "--points", "11"], EXIT_OK, ""),
        # a slab less dense than vacuum: the closed-form seed is NaN
        (["singularity", "--eta", "0.8", *SLAB, "--target", "1500nm"],
         EXIT_OK, ""),
        (["singularity", "--eta", "3.4", *SLAB, "--m", "0"],
         EXIT_VALIDATION, "mode number must be >= 1"),
        (["fields", "--eta", "3.4", *SLAB, "--m", "-5"],
         EXIT_VALIDATION, "mode number must be >= 1"),
        (["singularity", "--eta", "-1", *SLAB, "--target", "1500nm"],
         EXIT_VALIDATION, "eta must be positive"),
        (["fields", "--eta", "-1", *SLAB, "--m", "3"],
         EXIT_VALIDATION, "eta must be positive"),
        (["threshold", "--steps", "0"], EXIT_VALIDATION, "--steps"),
        # a 1 mm absorber: T_left once read -68.97+36.48i beside T_right
        (["tmatrix", "--eta", "3.4", "--kappa=0.01", "--theta", "30",
          "--wavelength", "1500nm", "--L", "1mm", "--pol", "TE"], EXIT_OK,
         "T_left,-1.23607689810688"),
        # one mode bound alone once fell back to --m-span silently
        (["locus", "--pol", "TE", "--theta", "30", "--m-min", "1340"],
         EXIT_VALIDATION, "--m-min and --m-max"),
        (["fields", "--eta", "3.4", *SLAB, "--target", "1500nm",
          "--points", "0"], EXIT_VALIDATION, "--points"),
        # no mode solved once printed a bare header and exited 0; modes
        # below 1 were reported as unconverged, an empty range as
        # "m_values must be nonempty"
        (["locus", "--pol", "TE", "--m-min", "1", "--m-max", "2"],
         EXIT_SOLVER, "no mode 1..2 solved"),
        (["locus", "--pol", "TE", "--m-min", "0", "--m-max", "1"],
         EXIT_VALIDATION, "1 <= --m-min"),
        (["locus", "--pol", "TE", "--m-min", "5", "--m-max", "2"],
         EXIT_VALIDATION, "--m-min <= --m-max"),
        (["locus", "--pol", "TE", "--m-span", "-4"],
         EXIT_VALIDATION, "--m-span >= 0"),
        # beyond sin(theta) = eta the wavelength seed of a given mode is NaN;
        # it once raised "math domain error" (exit 2)
        (["singularity", "--eta", "0.8", "--theta", "60", "--L", "400um",
          "--pol", "TE", "--m", "100"], EXIT_SOLVER,
         "no gain solution for m = 100"),
    ])
    def test_exit_code_and_message(self, capsys, argv, code, message):
        got, out, err = run(capsys, *argv)
        assert got == code
        assert "Traceback" not in err
        if code == EXIT_OK:
            assert out and err == "" and message in out
        else:
            assert out == ""
            assert err.startswith("error: ") and message in err


class TestLocus:
    def test_explicit_mode_range(self, capsys):
        code, out, _ = run(capsys, "locus", "--pol", "TE",
                           "--m-min", "1358", "--m-max", "1362")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["m", "lambda_nm", "g0_cm1", "residual"]
        assert [int(r[0]) for r in rows] == list(range(1358, 1363))
        for r in rows:
            assert float(r[3]) < 1e-10
            assert float(r[2]) > 0

    def test_readme_tm_locus_has_no_far_off_roots(self, capsys):
        # gainslab locus --pol TM --theta 73 --m-span 40 (README): mode 1291
        # once converged about 240 mode spacings away from its neighbours
        code, out, _ = run(capsys, "locus", "--pol", "TM", "--theta", "73",
                           "--m-span", "40")
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        lam = {int(r[0]): float(r[1]) for r in rows}
        spacing = lam[1291] / 1291
        assert abs(lam[1290] - lam[1291]) < 2 * spacing
        assert abs(lam[1291] - lam[1292]) < 2 * spacing

    def test_cap_prunes_high_gain(self, capsys):
        args = ["locus", "--pol", "TE", "--m-min", "1340", "--m-max", "1345"]
        _, out_full, _ = run(capsys, *args)
        _, out_cap, _ = run(capsys, *args, "--g0-max", "40cm-1")
        _, rows_full = csv_rows(out_full)
        _, rows_cap = csv_rows(out_cap)
        assert len(rows_cap) < len(rows_full)
        assert all(float(r[2]) <= 40.0 for r in rows_cap)


class TestFields:
    def test_profile_shape_and_symmetry(self, capsys):
        code, out, _ = run(capsys, "fields", "--eta", "3.4", "--theta", "20",
                           "--L", "400um", "--pol", "TE",
                           "--target", "1500nm", "--points", "201")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["z_over_L", "Sx_norm", "Sz_norm", "u_norm",
                          "theta_poynting_deg"]
        assert len(rows) == 201
        # columns: 0 = Sx_norm, 1 = Sz_norm, 2 = u_norm, 3 = theta_deg
        table = sorted((float(r[0]), tuple(float(v) for v in r[1:]))
                       for r in rows)

        def at(z_over_l):
            return min(table, key=lambda item: abs(item[0] - z_over_l))[1]

        # exterior flow leaves the slab at the incidence angle
        assert at(-0.5)[3] == pytest.approx(160.0, abs=1e-9)
        assert at(1.5)[3] == pytest.approx(20.0, abs=1e-9)
        # midplane flow is parallel to the faces
        assert at(0.5)[0] > 0
        assert abs(at(0.5)[1]) < 1e-10
        # normal flux is antisymmetric and energy symmetric about the midplane
        assert at(0.25)[1] == pytest.approx(-at(0.75)[1], rel=1e-6)
        assert at(0.25)[2] == pytest.approx(at(0.75)[2], rel=1e-6)

# the five README commands (threshold to stdout) and five more paper cases
GOLDEN = [
    pytest.param(
        "tmatrix --eta 3.4 --kappa=-1e-4 --theta 30 --wavelength 1500nm "
        "--L 2um --pol TM",
        "977f816a02e544f51c99d29ddaac244a651b41b40d65288af24fe861f418d3dc",
        id="readme-tmatrix"),
    pytest.param(
        "threshold --eta 3.4 --L 300um --wavelength 1500nm --theta-min 0 "
        "--theta-max 89.5 --steps 180",
        "c796d0400302cf44ed36ffd845492dd2c335f36225197d7f62f45cf3d6395e3a",
        id="readme-threshold"),
    pytest.param(
        "singularity --eta 3.4 --theta 20 --L 400um --pol TE "
        "--target 1500nm",
        "30e37f9ada8d04bf96413b014ed19f1bcae3afc1a5ceeeea581ea306cb6c68ae",
        id="readme-singularity"),
    pytest.param(
        "locus --pol TE --theta 30 --m-span 40 --g0-max 40cm-1",
        "ec9db138b6050095c2c3e5bf550a63cb16d7ab2429cc9626e0868667a20f699d",
        id="readme-locus"),
    pytest.param(
        "fields --eta 3.4 --theta 20 --L 400um --pol TM --target 1500nm",
        "6ef503189c7221f849ec08e88ef9d2082d87ace52a86c087e3e3bdaf5ba7e3c1",
        id="readme-fields"),
    pytest.param(
        "tmatrix --eta 3.4 --kappa=-1e-4 --theta 30 --wavelength 1500nm "
        "--L 2um --pol TM --format json",
        "c09a1b6d6ec8538f06b24c2517aff8eb02d03548b6dd7094137db77b90b723ef",
        id="tmatrix-json"),
    pytest.param(
        "singularity --eta 3.4 --theta 80 --L 400um --pol TM "
        "--target 1500nm",
        "d453bba9a6e5e896b9aba0e1ee2e90d76067e1e292012ff1bf71610fc3cf6297",
        id="singularity-80-TM"),
    pytest.param(
        "locus --pol TM --theta 73 --m-span 40",
        "69cda26f55d55266d91234fb7b99240c6986d9cbc8b5870cd99b707f35cb9794",
        id="locus-73-TM"),
    pytest.param(
        "locus --pol TE --theta 30 --m-min 1335 --m-max 1345",
        "3a3f0e91a903195aae4574d11a0ac0124121fd17b2cbfae1d86cd0131960e19a",
        id="locus-m-range"),
    pytest.param(
        "fields --eta 3.4 --theta 80 --L 400um --pol TE --target 1500nm",
        "8cc5bc83ea3a0185a189d1423b8b82fc57d94b55df75f12512886d27c3900b7f",
        id="fields-80-TE"),
]


class TestGoldenOutputs:
    """stdout of ten commands, byte for byte, through sha256 digests.

    The digests belong to the numpy build they were taken with (numpy 2.4.6
    on x86-64 Linux): another build may round a last digit differently.  A
    change that moves an output updates its digest and gives the reason in
    CHANGES.md."""

    @pytest.mark.parametrize("command,digest", GOLDEN)
    def test_stdout_digest(self, capsys, command, digest):
        code, out, _ = run(capsys, *command.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest
