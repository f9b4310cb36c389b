"""Command line interface: parsing, output formats, verify suites."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from octavia import cli
from octavia.cli import CHECKS, main, run_check, run_verify
from octavia.hyperweyl import GroupWord, Rot
from octavia.rings import HURWITZ, Z
from octavia.uhp import UhpPoint, act_word


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_units(capsys):
    data = _run_json(capsys, "units", "--ring", "hurwitz")
    assert data["count"] == 24
    data = _run_json(capsys, "units", "--ring", "octavian")
    assert data["partition"] == {"real": 2, "brandt": 112, "imaginary": 126}


def test_python_m_octavia_prints_what_main_prints(capsys):
    # the package runs as a module without the console script installed
    code, expected = _run(capsys, "units", "--ring", "Z")
    assert code == 0
    src = str(Path(cli.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "octavia", "units", "--ring", "Z"],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout == expected


def test_units_csv(capsys):
    code, out = _run(capsys, "units", "--ring", "hurwitz", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [f"c2_{i}" for i in range(4)]
    assert len(rows) == 25


def test_roots_with_cartan(capsys):
    data = _run_json(capsys, "roots", "--algebra", "e8", "--cartan")
    assert data["count"] == 240
    assert len(data["cartan"]) == 8
    assert len(data["theta_marks"]) == 8


def test_roots_rejects_unknown_algebra(capsys):
    code, err = _error_exit(capsys, "roots", "--algebra", "f4")
    assert code == 2
    assert "unknown root system" in err


def test_group_orders(capsys):
    assert _run_json(capsys, "group", "--which", "d4")["order"] == 96
    assert _run_json(capsys, "group", "--which", "g2")["order"] == 12096


def test_group_e7_and_e8_orders(capsys):
    assert _run_json(capsys, "group", "--which", "e7")["order"] == 1451520
    assert _run_json(capsys, "group", "--which", "e8")["order"] == 348364800


def test_group_elements_only_for_g2(capsys):
    for which in ("d4", "e7", "e8"):
        code, err = _error_exit(capsys, "group", "--which", which, "--elements")
        assert code == 2
        assert err == f"error: --elements lists the elements of g2 only, not of {which}\n"
    assert len(_run_json(capsys, "group", "--which", "g2", "--elements")["elements"]) == 12096


def test_euclid(capsys):
    # element text carries doubled coordinates: quat:8,4,0,0 is 4 + 2 e1
    data = _run_json(capsys, "euclid", "--ring", "hurwitz",
                     "--a", "quat:8,4,0,0", "--c", "quat:4,0,0,0")
    assert data["side"] == "right"
    assert data["coprime"] is False
    data = _run_json(capsys, "euclid", "--ring", "hurwitz", "--side", "left",
                     "--a", "quat:6,0,0,0", "--c", "quat:2,2,0,0")
    assert data["coprime"] is True


def test_euclid_rejects_non_member(capsys):
    code, _ = _run(capsys, "euclid", "--ring", "hurwitz",
                   "--a", "quat:1,1,0,0", "--c", "quat:1,0,0,0")
    assert code == 2


def test_euclid_zero_divisor_exits_2(capsys):
    # the library raises ZeroDivisionError; the CLI reports it like any input error
    code, err = _error_exit(capsys, "euclid", "--ring", "hurwitz",
                            "--a", "quat:2,0,0,0", "--c", "quat:0,0,0,0")
    assert code == 2
    assert err == "error: Euclidean algorithm requires a nonzero divisor\n"


@pytest.mark.parametrize("argv, message", [
    (("eisenstein", "--ring", "hurwitz", "--z", "nan,0,0,0;1"), "u must be finite"),
    (("eisenstein", "--ring", "hurwitz", "--z", "0,0,0,0;inf"), "v must be finite"),
    (("fourier", "--ring", "z", "--v", "inf", "--grid", "4"), "v must be finite"),
    # nan went through and printed the invalid JSON token NaN; inf was
    # read as "jnf" and failed to parse
    (("eisenstein", "--ring", "hurwitz", "--radius", "2", "--s", "nan"), "s must be finite"),
    (("eisenstein", "--ring", "hurwitz", "--radius", "2", "--s", "inf"), "s must be finite"),
    (("eisenstein", "--ring", "z", "--radius", "2", "--s=-inf+2i"), "s must be finite"),
    (("fourier", "--ring", "z", "--grid", "4", "--s", "nan"), "s must be finite"),
    (("fourier", "--ring", "z", "--grid", "4", "--s", "5+infi"), "s must be finite"),
])
def test_non_finite_points_exit_2(capsys, argv, message):
    code, err = _error_exit(capsys, *argv)
    assert code == 2 and err == f"error: {message}\n"


def test_coset(capsys):
    data = _run_json(capsys, "coset", "--ring", "z", "--bound", "1", "--words")
    assert data["count"] == 4
    assert all("word" in rep for rep in data["representatives"])


# Outputs of `octavia` captured before the integer Euclid kernel replaced
# the Fraction one (euclid, coset), before the highest root became the
# dominant root (roots) and before coset_reps became one batched integer
# enumeration (coset-hurwitz-3, coset-z-9-words); they must stay
# byte-identical.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = {
    "coset-hurwitz-2":
        "coset --ring hurwitz --bound 2 --words",
    "coset-hurwitz-3":
        "coset --ring hurwitz --bound 3",
    "coset-octavian-1":
        "coset --ring octavian --bound 1 --words",
    "coset-z-2":
        "coset --ring z --bound 2 --words",
    "coset-z-9-words":
        "coset --ring z --bound 9 --words",
    "euclid-hurwitz-left-0":
        "euclid --ring hurwitz --side left --a quat:-7,11,13,7 --c quat:6,-12,8,6",
    "euclid-hurwitz-left-1":
        "euclid --ring hurwitz --side left --a quat:-9,-1,3,5 --c quat:5,-9,7,-5",
    "euclid-hurwitz-left-2":
        "euclid --ring hurwitz --side left --a quat:-12,8,-8,4 --c quat:-6,0,12,-12",
    "euclid-hurwitz-right-0":
        "euclid --ring hurwitz --side right --a quat:-7,11,13,7 --c quat:6,-12,8,6",
    "euclid-hurwitz-right-1":
        "euclid --ring hurwitz --side right --a quat:-9,-1,3,5 --c quat:5,-9,7,-5",
    "euclid-hurwitz-right-2":
        "euclid --ring hurwitz --side right --a quat:-12,8,-8,4 --c quat:-6,0,12,-12",
    "euclid-octavian-left-0":
        "euclid --ring octavian --side left --a oct:-4,-3,8,8,1,7,4,7 --c oct:8,2,6,-7,-12,-9,11,-9",
    "euclid-octavian-left-1":
        "euclid --ring octavian --side left --a oct:-10,7,-10,11,-3,4,5,4 --c oct:10,3,9,0,2,8,9,13",
    "euclid-octavian-left-2":
        "euclid --ring octavian --side left --a oct:-10,-8,-4,7,-4,-3,3,-5 --c oct:12,6,-5,1,-1,10,-8,1",
    "euclid-octavian-right-0":
        "euclid --ring octavian --side right --a oct:-4,-3,8,8,1,7,4,7 --c oct:8,2,6,-7,-12,-9,11,-9",
    "euclid-octavian-right-1":
        "euclid --ring octavian --side right --a oct:-10,7,-10,11,-3,4,5,4 --c oct:10,3,9,0,2,8,9,13",
    "euclid-octavian-right-2":
        "euclid --ring octavian --side right --a oct:-10,-8,-4,7,-4,-3,3,-5 --c oct:12,6,-5,1,-1,10,-8,1",
    "euclid-z-left-0":
        "euclid --ring z --side left --a r:-6 --c r:-4",
    "euclid-z-left-1":
        "euclid --ring z --side left --a r:-8 --c r:8",
    "euclid-z-left-2":
        "euclid --ring z --side left --a r:8 --c r:12",
    "euclid-z-left-3":
        "euclid --ring z --side left --a r:14 --c r:10",
    "euclid-z-right-0":
        "euclid --ring z --side right --a r:-6 --c r:-4",
    "euclid-z-right-1":
        "euclid --ring z --side right --a r:-8 --c r:8",
    "euclid-z-right-2":
        "euclid --ring z --side right --a r:8 --c r:12",
    "euclid-z-right-3":
        "euclid --ring z --side right --a r:14 --c r:10",
    "roots-d4-cartan-elements":
        "roots --algebra d4 --cartan --elements",
    "roots-e7-cartan-elements":
        "roots --algebra e7 --cartan --elements",
    "roots-e8-cartan-elements":
        "roots --algebra e8 --cartan --elements",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, capsys):
    code, out = _run(capsys, *GOLDEN_CASES[name].split())
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_eisenstein_residuals(capsys):
    data = _run_json(capsys, "eisenstein", "--ring", "hurwitz",
                     "--z", "0.2,0,0,0;1.1", "--s", "5", "--radius", "4")
    # inversion lands on a floating-point image of z, so allow rounding
    assert data["residual_inv"] <= 1e-11
    assert data["residual_rot"] <= 1e-13
    assert data["residual_conj"] <= 1e-13
    assert data["value"]["re"] > 0


def test_eisenstein_rotation_moves_the_point(capsys):
    # the rotation residual compares E at z with E at a point that differs
    # from z; Z has no rotation besides the trivial one
    z = UhpPoint([0.2, 0.1, -0.3, 0.05], 1.1)
    eps = cli._rotation_unit(HURWITZ)
    zr = act_word(GroupWord(HURWITZ, (Rot(eps),)), z)
    assert np.abs(zr.u_vector() - z.u_vector()).max() > 0.1
    data = _run_json(capsys, "eisenstein", "--ring", "hurwitz",
                     "--z", "0.2,0.1,-0.3,0.05;1.1", "--radius", "4")
    assert data["residual_rot"] <= 1e-12 * max(1.0, abs(data["value"]["re"]))
    assert cli._rotation_unit(Z) is None
    data = _run_json(capsys, "eisenstein", "--ring", "z", "--z", "0.2;1.1",
                     "--radius", "4")
    assert data["residual_rot"] is None


def test_eisenstein_default_point_matches_ring(capsys):
    # with no --z the point is u = 0, v = 1 in the ring's own dimension
    data = _run_json(capsys, "eisenstein", "--ring", "z", "--radius", "4")
    assert data["z"] == {"u": [0.0], "v": 1.0}
    data = _run_json(capsys, "eisenstein", "--ring", "octavian", "--radius", "1")
    assert data["z"]["u"] == [0.0] * 8


def test_fourier_default_mu_matches_ring(capsys):
    data = _run_json(capsys, "fourier", "--ring", "z", "--radius", "4",
                     "--grid", "2")
    assert data["mu"] == [0.0]


def test_fourier_mu_dimension_error(capsys):
    code = main(["fourier", "--ring", "octavian", "--mu", "1,1,0,0"])
    assert code == 2
    assert "mu has 4 coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--grid", "0", "grid must be >= 2"),
    ("--grid", "1", "grid must be >= 2"),
    ("--radius", "0", "radius must be >= 1"),
])
def test_fourier_rejects_small_grid_and_radius(capsys, flag, value, message):
    argv = {"--grid": "4", "--radius": "4", flag: value}
    code = main(["fourier", "--ring", "z", *(t for kv in argv.items() for t in kv)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_fourier(capsys):
    data = _run_json(capsys, "fourier", "--ring", "hurwitz", "--mu", "0,0,0,0",
                     "--v", "2", "--s", "5", "--radius", "4", "--grid", "2")
    assert abs(data["coefficient"]["im"]) < 1e-10


def test_green(capsys):
    data = _run_json(capsys, "green", "--lam", "1", "--s", "4", "--n", "4")
    assert data["value"] > 0


def test_geodesic_csv(capsys):
    code, out = _run(capsys, "geodesic", "--u1", "0,0,0,0", "--u2", "1,0,0,0",
                     "--samples", "5", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "u0", "u1", "u2", "u3", "v"]
    assert len(rows) == 6


def test_orbit_length(capsys):
    data = _run_json(capsys, "orbit-length",
                     "--matrix", "[[[2],[1]],[[1],[1]]]")
    assert data["re_trace"] == 3.0
    assert data["length"] == pytest.approx(1.9248473002384139)


def test_out_file_atomic(tmp_path, capsys):
    path = tmp_path / "units.json"
    code = main(["units", "--ring", "hurwitz", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["count"] == 24


def test_config_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "octavia.cfg"
    cfg.write_text("ring = octavian\nbound = 1\n")
    data = _run_json(capsys, "units", "--config", str(cfg))
    assert data["ring"] == "octavian"
    data = _run_json(capsys, "units", "--config", str(cfg), "--ring", "hurwitz")
    assert data["ring"] == "hurwitz"


def _error_exit(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_config_fills_flags(tmp_path, capsys):
    cfg = tmp_path / "octavia.cfg"
    cfg.write_text("words = true\n")
    data = _run_json(capsys, "coset", "--config", str(cfg), "--ring", "z", "--bound", "1")
    assert data["representatives"]
    assert all("word" in entry for entry in data["representatives"])
    # false leaves the flag off, and a passed flag wins over false
    cfg.write_text("words = False\n")
    data = _run_json(capsys, "coset", "--config", str(cfg), "--ring", "z", "--bound", "1")
    assert not any("word" in entry for entry in data["representatives"])
    data = _run_json(capsys, "coset", "--config", str(cfg), "--ring", "z", "--bound", "1",
                     "--words")
    assert all("word" in entry for entry in data["representatives"])


def test_config_errors_exit_2(tmp_path, capsys):
    code, err = _error_exit(capsys, "units", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2 and err.startswith("error:")
    for text in ("ring = octavian\nno equals sign\n", "bogus_key = 7\n",
                 "words = yes\n", "elements = 1\n"):
        cfg = tmp_path / "octavia.cfg"
        cfg.write_text(text)
        code, err = _error_exit(capsys, "units", "--config", str(cfg))
        assert code == 2 and err.startswith("error:"), text


def test_invalid_option_values_exit_2(tmp_path, capsys):
    outdir = tmp_path / "new"
    for argv in (("euclid", "--ring", "z", "--side", "up", "--a", "r:2", "--c", "r:4"),
                 ("group", "--which", "x"),
                 ("export", "--kind", "x", "--outdir", str(outdir)),
                 ("units", "--ring", "foo")):
        code, err = _error_exit(capsys, *argv)
        assert code == 2 and err.startswith("error:"), argv
    assert not outdir.exists()


def test_export(tmp_path, capsys):
    code, _ = _run(capsys, "export", "--kind", "roots", "--algebra", "d4",
                   "--outdir", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "roots-d4.json").read_text())
    assert data["count"] == 24
    assert data["theta_marks"] == [1, 2, 1, 1]
    # the cosets file is what `coset --words` prints
    code, _ = _run(capsys, "export", "--kind", "cosets", "--ring", "z",
                   "--bound", "2", "--outdir", str(tmp_path))
    assert code == 0
    assert ((tmp_path / "cosets-Z-2.json").read_bytes()
            == (GOLDEN / "coset-z-2.json").read_bytes())
    code, _ = _run(capsys, "export", "--kind", "series-grid", "--ring", "z",
                   "--radius", "9", "--s", "3", "--v", "1;2",
                   "--outdir", str(tmp_path))
    assert code == 0
    rows = list(csv.reader((tmp_path / "series-Z-9.csv").open()))
    assert rows[0] == ["re_s", "im_s", "v", "re_E", "im_E", "radius"]
    assert len(rows) == 3


@pytest.mark.parametrize("check", CHECKS, ids=[c.name for c in CHECKS])
def test_verify_check(check):
    entry = run_check(check, seed=0)
    assert entry["passed"], f"{entry['value']} vs {entry['expected']}"
    assert "np." not in entry["value"]


def test_verify_checks_independent_of_suite():
    # each check draws from its own stream, so the suite that selects it
    # does not change its inputs
    full = {c["name"]: c["value"] for c in run_verify("all", seed=1)["checks"]}
    for suite in ("uhp", "rings"):
        for c in run_verify(suite, seed=1)["checks"]:
            assert c["value"] == full[c["name"]], c["name"]


@pytest.mark.parametrize("suite", cli.SUITES + ("all",))
def test_verify_cli_exit_code(suite, capsys):
    # the shipped command, every suite and all of them: exit 0
    assert main(["verify", "--suite", suite]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] and all(c["passed"] for c in report["checks"])


def test_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
