"""Command-line surface: parsing, formats, exit codes, file output."""

import csv
import io
import json
import math
import re

import pytest

import abcertify.cli as cli
from abcertify.bounds import ten_pow, threshold_sigma
from abcertify.certify import CSV_COLUMNS, check_pair, sweep, write_csv
from abcertify.cli import main
from abcertify.config import get_config
from published import FROZEN_PAIR_COUNTS, FROZEN_PLATEAU_K2E1


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# parser-level behaviour
# ----------------------------------------------------------------------


def test_no_command_prints_help(capsys):
    code, out, err = run(capsys, [])
    assert code == 2
    assert "COMMAND" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ab-certify" in capsys.readouterr().out


def test_bad_choice_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--sigma", "1e-7", "--regime", "sideways"])
    assert exc.value.code == 2


_WIDTH_FLAGS = {
    "sigma": ["eval", "--sigma", "{}"],
    "delta0": ["verify", "--set", "sigma11", "--delta0", "{}"],
    "from": ["sweep", "--from", "{}", "--to", "1e-6"],
    "to": ["sweep", "--from", "1e-8", "--to", "{}"],
}


@pytest.mark.parametrize("value", ["0", "-1", "nan"], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("flag", sorted(_WIDTH_FLAGS))
def test_bad_width_exits_2_naming_the_flag(capsys, flag, value):
    argv = [a.format(value) for a in _WIDTH_FLAGS[flag]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument --{flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "1.5", "many"])
def test_bad_jobs_exits_2_naming_the_flag(capsys, monkeypatch, value):
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: pytest.fail("sweep ran"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--set", "sigma10", "--jobs", value])
    assert exc.value.code == 2
    assert "argument --jobs:" in capsys.readouterr().err


def test_too_fine_delta0_exits_2_naming_the_flag(capsys):
    # 1e-320 passes the finite-and-positive check, but Z^2/delta0 overflows
    code, out, err = run(capsys, ["verify", "--set", "sigma6", "--delta0", "1e-320"])
    assert code == 2
    assert err.startswith("argument --delta0: delta0=1e-320 is too fine")
    assert out == ""


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------


def test_eval_text_report(capsys):
    code, out, err = run(capsys, ["eval", "--sigma", "1e-7"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "width sigma = 1e-07 cm, regime = uniform"
    labels = [ln.split()[0] for ln in lines[1:]]
    assert labels == ["size_term", "spread_term", "additive", "total", "probability"]
    assert lines[-1].split()[-1] == "1.0000×10^-200"


def test_eval_json_report(capsys):
    code, out, err = run(capsys, ["eval", "--sigma", "1e-7", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == 1e-7
    assert payload["regime"] == "uniform"
    assert payload["interaction_probability"] == "1.0000×10^-200"
    assert set(payload["components"]) == {"size_term", "spread_term", "additive", "total"}
    assert payload["components"]["total"] == "1.0000×10^-101"
    assert isinstance(payload["poly_value"], float)


def test_json_flag_works_at_both_positions(capsys):
    _, out_sub, _ = run(capsys, ["eval", "--sigma", "1e-7", "--json"])
    _, out_root, _ = run(capsys, ["--json", "eval", "--sigma", "1e-7"])
    assert out_sub == out_root


def test_eval_out_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, ["eval", "--sigma", "1e-7", "--out", str(target)])
    assert code == 0
    assert out == ""
    _, direct, _ = run(capsys, ["eval", "--sigma", "1e-7"])
    assert target.read_text(encoding="utf-8") == direct


@pytest.mark.parametrize(
    "argv",
    [["eval", "--sigma", "1e-300"], ["--json", "eval", "--sigma", "1e-170"],
     ["eval", "--sigma", "1e-320"], ["eval", "--sigma", "1e-160"]],
    ids=lambda a: a[-1],
)
def test_eval_tiny_width_reports_a_zero_size_term(capsys, argv):
    # 2 sigma^2 underflows to 0 (at 1e-160 the quotient overflows): the
    # size term is 0 and the command exits 0 without a traceback
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    if "--json" in argv:
        assert json.loads(out)["components"]["size_term"] == "0"
    else:
        assert out.splitlines()[1].split() == ["size_term", "0"]


_UNWRITABLE_OUT_COMMANDS = [
    ["verify", "--set", "sigma10"],
    ["eval", "--sigma", "1e-7"],
    ["table", "--which", "angle"],
    ["threshold", "--target", "1e-7", "--branch", "big"],
]


@pytest.mark.parametrize("argv", _UNWRITABLE_OUT_COMMANDS, ids=lambda a: a[0])
@pytest.mark.parametrize("where", ["missing_dir", "dir_as_file"])
def test_unwritable_out_exits_2_before_the_work(capsys, monkeypatch, tmp_path, argv, where):
    path = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before --out was checked")

    for name in ("sweep", "regime_bound", "angle_table", "threshold_sigma"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run(capsys, [*argv, "--out", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("argument --out: ") and err.count("\n") == 1
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_single_set(capsys):
    code, out, err = run(capsys, ["verify", "--set", "sigma10"])
    assert code == 0
    n = FROZEN_PAIR_COUNTS["sigma10"]
    # the summary ends with the wall time of the sweep and its output,
    # split into the two stages, and the rate
    summary = (
        rf"checked {n} pairs: {n} passed, 0 failed in (\d+\.\d) s "
        rf"\(sweep (\d+\.\d) s, output (\d+\.\d) s; [\d,]+ pairs/s\)"
    )
    wall, swept, output = map(float, re.fullmatch(summary, err.strip()).groups())
    assert abs(swept + output - wall) <= 0.15 + 1e-9  # each figure is rounded to 0.1 s
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == n + 1
    assert all(ln.endswith(",pass") for ln in lines[1:])


def test_verify_comma_separated_sets(capsys):
    code, out, err = run(capsys, ["verify", "--set", "sigma9,sigma10"])
    assert code == 0
    n = FROZEN_PAIR_COUNTS["sigma9"] + FROZEN_PAIR_COUNTS["sigma10"]
    assert f"checked {n} pairs" in err


def test_verify_unknown_set(capsys):
    code, out, err = run(capsys, ["verify", "--set", "sigma99"])
    assert code == 2
    assert "unknown set(s): sigma99" in err


@pytest.mark.parametrize("argv", [["--set", ","], ["--set", " "], ["--set", ",", "--set", ""]])
def test_verify_empty_set_list_exits_2(capsys, monkeypatch, argv):
    # a --set list that names no set is a usage error, not "every set"
    calls = []
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: calls.append(args) or [])
    code, out, err = run(capsys, ["verify", *argv])
    assert code == 2 and out == ""
    assert err.strip() == "argument --set: no set named"
    assert calls == []


def test_verify_out_csv(capsys, tmp_path):
    target = tmp_path / "pairs.csv"
    code, out, err = run(capsys, ["verify", "--set", "sigma10", "--out", str(target)])
    assert code == 0
    assert out == ""
    _, stdout_csv, _ = run(capsys, ["verify", "--set", "sigma10"])
    assert target.read_text(encoding="utf-8") == stdout_csv


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_out_is_write_csv(capsys, tmp_path, jobs):
    # verify and write_csv write the same bytes for the same sets, with
    # one worker or two
    target = tmp_path / "verify.csv"
    argv = ["verify", "--set", "sigma10,sigma9", "--jobs", jobs, "--out", str(target)]
    assert run(capsys, argv)[0] == 0
    want = tmp_path / "write_csv.csv"
    write_csv(sweep(get_config("k2", "e1"), ["sigma10", "sigma9"]), str(want))
    assert target.read_bytes() == want.read_bytes()


def test_verify_json(capsys):
    code, out, err = run(capsys, ["verify", "--set", "sigma10", "--json"])
    assert code == 0
    payload = json.loads(out)
    n = FROZEN_PAIR_COUNTS["sigma10"]
    assert payload["pairs"] == n
    assert payload["failures"] == 0
    assert payload["worst_margin_log10"] > 0.0
    assert len(payload["rows"]) == n
    assert set(payload["rows"][0]) == set(CSV_COLUMNS)


def test_verify_reports_failures_with_exit_1(capsys, monkeypatch, cfg):
    bad = check_pair(cfg, "x", 0, 4e-5, 8e-5, 1e-6)
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: [bad])
    code, out, err = run(capsys, ["verify", "--set", "sigma10"])
    assert code == 1
    assert "checked 1 pairs: 0 passed, 1 failed" in err
    assert out.splitlines()[1].endswith(",FAIL")


# ----------------------------------------------------------------------
# field
# ----------------------------------------------------------------------


@pytest.mark.parametrize("check", ["flux", "divergence", "gauge", "supnorms"])
def test_field_checks_pass(capsys, check):
    code, out, err = run(capsys, ["field", "--check", check])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2,x3,quantity,value,bound"
    assert len(lines) > 1
    for ln in lines[1:]:
        cells = ln.split(",")
        assert abs(float(cells[4])) <= float(cells[5]) or check == "flux"


def test_field_flux_rows(capsys):
    code, out, err = run(capsys, ["field", "--check", "flux"])
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    assert all(r[3] == "flux_linked" for r in rows)
    # 7 interior radii carry the full flux (bound column holds the
    # expected value), 4 exterior radii carry none
    inner = [r for r in rows if float(r[5]) > 0.0]
    outer = [r for r in rows if float(r[5]) == 0.0]
    assert len(inner) == 7 and len(outer) == 4
    assert all(float(r[4]) == pytest.approx(math.pi, rel=1e-12) for r in inner)
    assert all(abs(float(r[4])) <= 1e-9 for r in outer)


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------


def test_table_big_sigma(capsys):
    code, out, err = run(capsys, ["table", "--which", "big-sigma"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "target_exponent,sigma_over_r1"
    assert lines[1] == "1,0.34306"
    assert len(lines) == 11


def test_table_small_sigma_format(capsys):
    code, out, err = run(capsys, ["table", "--which", "small-sigma"])
    lines = out.splitlines()
    assert lines[1] == "1,1.6000e-06"


def test_table_radius_and_angle(capsys):
    code, out, err = run(capsys, ["table", "--which", "radius"])
    assert out.splitlines()[1] == "1,0.81716"
    code, out, err = run(capsys, ["table", "--which", "angle"])
    assert out.splitlines()[0] == "target_exponent,angle_deg"
    assert out.splitlines()[1] == "1,51.8875"


def test_table_undefined_entry(capsys, monkeypatch):
    monkeypatch.setattr(cli, "angle_table", lambda cfg: [(1, 51.9), (2, None)])
    code, out, err = run(capsys, ["table", "--which", "angle"])
    assert code == 0
    assert out.splitlines()[2] == "2,undefined"


def test_table_json(capsys):
    code, out, err = run(capsys, ["table", "--which", "big-sigma", "--json"])
    payload = json.loads(out)
    assert payload["table"] == "big-sigma"
    assert payload["rows"][0] == {"target_exponent": "1", "sigma_over_r1": "0.34306"}


# ----------------------------------------------------------------------
# threshold
# ----------------------------------------------------------------------


def test_threshold_big_branch(capsys):
    code, out, err = run(capsys, ["threshold", "--target", "1e-7", "--branch", "big"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "branch = big, target = 1e-7"
    assert lines[1].startswith("sigma = 2.853265e-05 cm")
    lo, hi = FROZEN_PLATEAU_K2E1
    assert lines[2] == f"bound <= 1e-99 plateau: [{lo:.6e}, {hi:.6e}] cm"


def test_threshold_target_forms(capsys):
    # the 1eK shorthand is case-insensitive; plain floats work too
    code1, out1, _ = run(capsys, ["threshold", "--target", "1E-7", "--branch", "big"])
    assert code1 == 0
    code2, out2, _ = run(capsys, ["threshold", "--target", "3.5e-8", "--branch", "small"])
    assert code2 == 0
    assert "branch = small" in out2


def test_threshold_json(capsys):
    code, out, err = run(
        capsys, ["threshold", "--target", "1e-7", "--branch", "big", "--json"]
    )
    payload = json.loads(out)
    assert payload["branch"] == "big"
    assert payload["sigma"] == pytest.approx(2.853265e-05, rel=1e-6)
    assert payload["plateau"] == pytest.approx(list(FROZEN_PLATEAU_K2E1), rel=1e-12)


def test_threshold_bad_targets(capsys):
    code, out, err = run(capsys, ["threshold", "--target", "abc", "--branch", "big"])
    assert code == 2 and "cannot parse target" in err
    code, out, err = run(capsys, ["threshold", "--target=-5", "--branch", "big"])
    assert code == 2 and "target must be positive" in err
    # a target the bound never reaches on this branch
    code, out, err = run(capsys, ["threshold", "--target", "1e-300", "--branch", "big"])
    assert code == 2 and "threshold search failed" in err
    # rejected before the search
    for bad in ("nan", "inf"):
        code, out, err = run(capsys, ["threshold", "--target", bad, "--branch", "big"])
        assert code == 2 and "target must be positive and finite" in err
    # positive targets outside the float range reach the search
    for tiny_or_huge in ("2e-400", "2E400", "5e-310"):
        code, out, err = run(capsys, ["threshold", "--target", tiny_or_huge, "--branch", "big"])
        assert code == 2 and "threshold search failed" in err, tiny_or_huge
    for bad in ("0", "0e-400", "-2e-400"):
        code, out, err = run(capsys, ["threshold", f"--target={bad}", "--branch", "big"])
        assert code == 2 and "target must be positive and finite" in err, bad


def test_threshold_normal_targets_keep_their_bits(capsys):
    # a target that is a normal float goes through ten_pow(log10(v)),
    # so its width is the library's, bit for bit
    cfg = get_config("k2", "e1")
    for text, branch in (("2e-5", "big"), ("3.5e-12", "small"), ("0.07", "big")):
        code, out, err = run(capsys, ["threshold", "--target", text, "--branch", branch, "--json"])
        assert code == 0, err
        want = threshold_sigma(cfg, ten_pow(math.log10(float(text))), branch)
        assert json.loads(out)["sigma"].hex() == want.hex()


def test_power_of_ten_targets_parse_to_ten_pow_bits():
    # 10^K in any spelling is the target ten_pow(K), bit for bit, in and
    # out of the float range (1e-400 is 0.0 as a float)
    for k in range(-400, 401):
        want = ten_pow(k).log_mag.hex()
        for text in (f"1e{k}", f"1E{k}", f"1e{k:+d}"):
            assert ten_pow(cli._target_log10(text)).log_mag.hex() == want, text


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def test_sweep_csv(capsys):
    code, out, err = run(
        capsys, ["sweep", "--from", "1e-8", "--to", "1e-6", "--points", "3"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sigma,size_term,angle_term,additive,total"
    assert len(lines) == 4
    assert lines[1].startswith("1.000000000e-08,")
    assert lines[3].startswith("1.000000000e-06,")
    for ln in lines[1:]:
        assert ln.split(",")[4] == "1.0000×10^-100"


def test_sweep_from_a_tiny_width(capsys):
    code, out, err = run(
        capsys, ["sweep", "--from", "1e-300", "--to", "1e-7", "--points", "5"]
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[1].split(",")[1:] == ["0", "1.7700×10^+5", "1.0000×10^-100", "1.7700×10^+5"]


def test_sweep_validation(capsys):
    code, out, err = run(
        capsys, ["sweep", "--from", "1e-6", "--to", "1e-8", "--points", "3"]
    )
    assert code == 2
    assert "need 0 < --from" in err
    code, out, err = run(
        capsys, ["sweep", "--from", "1e-8", "--to", "1e-6", "--points", "1"]
    )
    assert code == 2


def test_sweep_json(capsys):
    code, out, err = run(
        capsys,
        ["sweep", "--from", "1e-8", "--to", "1e-6", "--points", "3", "--json"],
    )
    payload = json.loads(out)
    assert len(payload["rows"]) == 3
    assert set(payload["rows"][0]) == {"sigma", "size_term", "angle_term", "additive", "total"}


# ----------------------------------------------------------------------
# params
# ----------------------------------------------------------------------


def test_params_sweep_default_grid(capsys):
    code, out, err = run(capsys, ["params", "--sweep"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eps_scale,delta_scale,status,worst_bound,worst_log10"
    assert len(lines) == 10  # 3 x 3 grid
    assert all(ln.split(",")[2] == "ok" for ln in lines[1:])


def test_params_rejected_scale(capsys):
    code, out, err = run(
        capsys, ["params", "--sweep", "--eps-scales", "60", "--delta-scales", "1"]
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[2] == "rejected"
    assert "swallows the hole" in row[3]


def test_params_rejects_an_underflowing_eps(capsys):
    code, out, err = run(
        capsys, ["params", "--sweep", "--eps-scales", "1e-300,1", "--delta-scales", "1"]
    )
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[0][2] == "rejected" and "eps^2 underflows to 0" in rows[0][3]
    assert rows[1][2] == "ok"


def test_params_rejects_non_finite_scale(capsys):
    code, out, err = run(
        capsys, ["params", "--sweep", "--eps-scales", "1", "--delta-scales", "nan"]
    )
    assert code == 0
    # the reason holds a comma, so its field is quoted as csv.writer would
    row = list(csv.reader(io.StringIO(out)))[1]
    assert row == ["1", "nan", "rejected", "delta_scale must be finite, got nan", ""]


def test_params_bad_scale_list(capsys):
    code, out, err = run(
        capsys, ["params", "--sweep", "--eps-scales", "a,b", "--delta-scales", "1"]
    )
    assert code == 2
    assert "comma-separated numbers" in err


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------


def test_config_override_changes_output(capsys, tmp_path):
    over = tmp_path / "over.cfg"
    over.write_text("beam.mv = 2.5e10\n", encoding="utf-8")
    _, base, _ = run(capsys, ["eval", "--sigma", "1e-7", "--json"])
    code, shifted, _ = run(
        capsys, ["eval", "--sigma", "1e-7", "--json", "--config", str(over)]
    )
    assert code == 0
    assert json.loads(base)["poly_value"] != json.loads(shifted)["poly_value"]


def test_config_bad_key(capsys, tmp_path):
    over = tmp_path / "over.cfg"
    over.write_text("nope = 1\n", encoding="utf-8")
    code, out, err = run(
        capsys, ["eval", "--sigma", "1e-7", "--config", str(over)]
    )
    assert code == 2
    assert "configuration error" in err


def test_config_missing_file(capsys):
    code, out, err = run(
        capsys, ["eval", "--sigma", "1e-7", "--config", "/does/not/exist.cfg"]
    )
    assert code == 2
    assert "configuration error" in err


def test_magnet_energy_selection(capsys):
    code, out, err = run(
        capsys, ["eval", "--sigma", "1e-7", "--json", "--magnet", "k1", "--energy", "e3"]
    )
    assert code == 0
    _, base, _ = run(capsys, ["eval", "--sigma", "1e-7", "--json"])
    assert json.loads(out)["poly_value"] != json.loads(base)["poly_value"]
