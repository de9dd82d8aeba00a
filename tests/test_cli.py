"""Command-line surface: parsing, formats, exit codes, file output."""

import csv
import hashlib
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


def test_too_fine_delta0_in_a_worker_keeps_the_flag(capsys):
    # the error crosses the process pool as itself, so it keeps its label
    code, out, err = run(capsys, ["verify", "--set", "sigma6", "--delta0", "1e-320", "--jobs", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("argument --delta0: delta0=1e-320 is too fine")


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


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as RFC 8259 does."""

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def test_verify_json_is_strict_when_every_margin_is_minus_inf(capsys, config_file):
    # a beam this slow fails every sigma10 pair with a margin of -inf: the
    # worst margin is written as null, not as the -Infinity token
    argv = ["verify", "--set", "sigma10", "--config", config_file("beam.mv = 1e3\n"), "--json"]
    code, out, err = run(capsys, argv)
    assert code == 1
    payload = _strict_json(out)
    assert payload["worst_margin_log10"] is None
    assert payload["failures"] == payload["pairs"] == len(payload["rows"]) > 0
    assert {row["margin"] for row in payload["rows"]} == {"-inf"}


def test_reports_write_non_finite_floats_as_null():
    report = {"a": [1.0, math.inf, (math.nan, -math.inf)], "b": {"c": -0.0, "d": "inf"}, "e": 3}
    assert cli._finite_or_null(report) == {"a": [1.0, None, [None, None]], "b": {"c": -0.0, "d": "inf"}, "e": 3}


def test_verify_sweep_errors_do_not_blame_delta0(capsys, config_file):
    # a beam this slow makes sigma11's widths reach past the hole radius:
    # a configuration error, with no --delta0 given
    argv = ["verify", "--set", "sigma11", "--config", config_file("beam.mv = 1e3\n")]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: sigma=0.0045 must be below the hole radius 0.0001715\n"


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


def test_field_divergence_json(capsys):
    # each check's value is a Python float and its verdict a Python bool
    code, out, err = run(capsys, ["field", "--check", "divergence", "--json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["check"] == "divergence" and payload["ok"] is True
    assert [row["quantity"] for row in payload["rows"]] == ["div_b_fd"] * 4


def test_field_supnorms_with_zero_flux(capsys, config_file):
    # flux 0 is a valid config in which every field vanishes: the
    # flux-scaled sup-norms are 0, not a division by zero
    argv = ["field", "--check", "supnorms", "--config", config_file("flux = 0\n")]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    rows = {r[3]: r for r in csv.reader(io.StringIO(out))}
    for key in ("b", "b_perp", "b_axial", "a", "a_perp", "a_axial"):
        assert float(rows[f"sup_{key}"][4]) == 0.0
    assert float(rows["sup_chi"][4]) > 0.0


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


def test_threshold_names_an_empty_big_bracket(capsys, config_file):
    # a hole radius under 1e-7 cm leaves the big branch no bracket
    path = config_file("magnet.r1_tilde = 5e-8\nmagnet.r2_tilde = 1e-7\n")
    code, out, err = run(capsys, ["--config", path, "threshold", "--branch", "big", "--target", "5e0"])
    assert (code, out) == (2, "")
    assert err == (
        "threshold search failed: the big branch's bracket [1e-7, 0.999 r1] = [1e-7, 4.8951e-08] is empty\n"
    )


def test_small_branch_names_the_hole_its_bracket_reaches_past(capsys, config_file):
    # the same hole radius: the small branch's bracket ends past 0.999 r1
    path = config_file("magnet.r1_tilde = 5e-8\nmagnet.r2_tilde = 1e-7\n")
    reason = "the small branch's bracket [1e-12, 1e-7] reaches past the hole: 0.999 r1 = 4.8951e-08\n"
    code, out, err = run(capsys, ["--config", path, "threshold", "--branch", "small", "--target", "1e-5"])
    assert (code, out, err) == (2, "", "threshold search failed: " + reason)
    code, out, err = run(capsys, ["--config", path, "table", "--which", "small-sigma"])
    assert (code, out, err) == (2, "", "error: " + reason)


def test_power_of_ten_targets_parse_to_ten_pow_bits():
    # 10^K in any spelling is the target ten_pow(K), bit for bit, in and
    # out of the float range (1e-400 is 0.0 as a float)
    for k in range(-400, 401):
        want = ten_pow(k).hex()
        for text in (f"1e{k}", f"1E{k}", f"1e{k:+d}"):
            assert ten_pow(cli._target_log10(text)).hex() == want, text


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
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--from", "1e-8", "--to", "1e-6", "--points", "1"])
    assert exc.value.code == 2
    assert "argument --points: must be from 2 to 100000, got '1'" in capsys.readouterr().err


@pytest.mark.parametrize("points", [str(10**12), str(cli.MAX_POINTS + 1), "2.5", "-3"])
def test_sweep_points_out_of_range_exit_2_before_the_work(capsys, monkeypatch, points):
    monkeypatch.setattr(cli, "sweep_rows", lambda *a, **k: pytest.fail("sweep_rows ran"))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--from", "1e-7", "--to", "1e-6", "--points", points])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --points: " in err and "Traceback" not in err


def test_sweep_points_maximum_is_allowed_and_named_in_help(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "sweep_rows", lambda cfg, lo, hi, n, scale: calls.append(n) or [])
    code, out, err = run(capsys, ["sweep", "--from", "1e-7", "--to", "1e-6",
                                  "--points", str(cli.MAX_POINTS)])
    assert (code, calls) == (0, [cli.MAX_POINTS])
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert f"2 to {cli.MAX_POINTS}" in capsys.readouterr().out


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


# eps_scale 1e-155 gives calibrated coefficients (inf, 3.3e162, -inf,
# -1.3e152, 0): P(sigma) would be NaN, which max(0, P) reads as 0, so a
# bound without its spread polynomial would be reported
_NON_FINITE_COEFFICIENTS = "params.eps_scale = 1e-155\n"


def test_eval_rejects_non_finite_coefficients(capsys, config_file):
    argv = ["eval", "--sigma", "1e-9", "--config", config_file(_NON_FINITE_COEFFICIENTS)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: calibrated incoming coefficients are not finite: (inf, ")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_rejects_non_finite_coefficients(capsys, config_file, jobs):
    # not as a --delta0 error: the sweep does not start
    argv = ["verify", "--set", "sigma10", "--jobs", jobs,
            "--config", config_file(_NON_FINITE_COEFFICIENTS)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: calibrated incoming coefficients are not finite: (inf, ")
    assert "checked" not in err


def test_params_rejects_non_finite_coefficients(capsys):
    code, out, err = run(
        capsys, ["params", "--sweep", "--eps-scales", "1e-155,1", "--delta-scales", "1"]
    )
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[0][:3] == ["1e-155", "1", "rejected"]
    assert rows[0][3].startswith("calibrated incoming coefficients are not finite: (inf, ")
    assert rows[1][2] == "ok"


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


# ----------------------------------------------------------------------
# every command's output, byte for byte
# ----------------------------------------------------------------------


# sha256 of the stdout of each command in text mode and with --json, all
# exiting 0; recorded when each command body still wrote its own JSON and
# CSV branch, so a shared writer must print the same bytes.  The one
# exception is divergence --json, which raised a TypeError (a numpy bool
# in the payload) and is recorded from its first working output.
_PINNED_STDOUT_SHA256 = {
    "eval --sigma 1e-7": (
        "248464af3285c966935afc07480a51f4242d2a35ecb39543503833d3c78e3f3c",
        "5ea5dd59febdfa0dedbbe1030ae213cd813423b8842a8e56c017efac1a85e2a2",
    ),
    "eval --sigma 3e-9 --regime detailed": (
        "db3292d8d3872568f590b2b126319ce29766ecaf0c809262837cfc605a49755d",
        "914a0a92876d08b261d0110089983319f9227170c1fb6a4ed4a67596e1d33cab",
    ),
    "verify --set sigma10": (
        "5e4b1bde3ea54b279800d7cd604571457398ced821dec8a1fd1286a7f87800b5",
        "0af237614bcea27b10b3cb0702a65b10407475a9877909f376dcf151eea08c37",
    ),
    "verify --set sigma9,sigma10 --magnet k1": (
        "6c4c6254ef6e5a1439ec81dc74b1f86c726d54826356a59f6756b88980431eb2",
        "40e99ea6ee5c50f9759580ad879a89dc5cfcb838ca5a04838e3364de5691ce31",
    ),
    "field --check flux": (
        "299b584e49ffb6f5d04cb84e2f5f29a0c00f768f6e4247cc34246940fd453080",
        "46cad2f2c362f3da81844b754b1ec62c426d51ea60da82f05321254bf3570980",
    ),
    "field --check divergence": (
        "314a15cfc69253a816dd141d21b7c9fe24ca35502e32b60dd4d2f55c99ca73f6",
        "6a3667b583733af057a6a620b2801656b67312124529e8fa39474ab2c8ddefbc",
    ),
    "field --check gauge": (
        "dbbd94d9b21e5ef69ec34b7e2b8974e59e568b3c2e7952d331a5aedd801aa2f8",
        "50acfde7d4175dbbdf2deaf9e80794c310aba8ccd16905d110b0784b313d87da",
    ),
    "field --check supnorms": (
        "397cf71fafedf2a748eab5f4cc5387a928abf2d21779eabdd394b756ac66c91a",
        "ed51be4ebf8df3638554bfad83608efd1861a35c01ae13366175ee3dbc474f0c",
    ),
    "table --which big-sigma": (
        "ebf778a073c8ad18ba381d50dcce0b0d6dbbc8742d4e7e65f101e6ec798bd0d3",
        "15a838b69c42b2c245ff9d95ce0da94a3ccef2cdca71323df4537c98e6d02b4a",
    ),
    "table --which small-sigma": (
        "f549f57a725583d6c8f7e30920e51c7321574ccc91b56fbc12c5d6961bb364af",
        "701be196d1c483a43ccf8db4581e97036fedb14dff80af3609217423ca0043eb",
    ),
    "table --which radius": (
        "5403178de44925e2368b9157d862e29e629e5b7ae3298cccfd29a6f8e57e80d6",
        "41a528d093bbde7c400f25187a66c5b80e930020704861e48bb8dd95d84b2f03",
    ),
    "table --which angle --magnet k1": (
        "6f27a4f8607e74d593c7bde855ce20a28a8afe76177fe1bf2e1e3b4cca1bf9d5",
        "fb1144058031ef99e3112007d78916f171d22f8f7017d9a15af03ee76213980e",
    ),
    "threshold --target 1e-7 --branch big": (
        "dc18031d72705133313f3e801cde3918752192f74c5c822ac43b479918fe3d6c",
        "6ded223de6f50c689f34b8f087424bc015ecc223f667c1253f86a6d836dcc3d5",
    ),
    "sweep --from 1e-8 --to 1e-6 --points 5": (
        "ce3b5658fb1dcd57d394661cac3d9961576dfd42aa0d46a29802ed2608feff35",
        "d6b867605a81a520c59abb5f42e27aa6095f86d0e29a10ec9c5b4b456827d4d8",
    ),
    "sweep --from 1e-8 --to 1e-6 --points 5 --scale linear": (
        "c3924c6d2918e4f37200f17f0e596f4e45d2e974ced2e1f8e7665a5f4776eb1c",
        "d061f4b143c377448cf2a70cfe36daa5df7c5c19e6d969626e9a8db645c820a1",
    ),
    "params --sweep": (
        "fae4a01cc0b077a549efaabd4767d4dd18e119c406a981b0452b3fa2b19897eb",
        "c876d80083adc044ec3b779e455fbae2de108e7b7f4a6a236ee9ece2b53ecfc9",
    ),
    "params --sweep --eps-scales 1e-300,1": (
        "5dc98acf2d2d579455ed76c38b2cc5cd71718e67fe6ccaa5157c7a7b3238a58b",
        "43b6d1f1bcc8f3700ea4d84aae3493f8336e6b060feb24cd5e9d102081057307",
    ),
}


def test_every_command_keeps_its_pinned_output(capsys):
    got, want = {}, {}
    for argv, digests in _PINNED_STDOUT_SHA256.items():
        for mode, sha in zip(("", " --json"), digests):
            code, out, _ = run(capsys, (argv + mode).split())
            got[argv + mode] = (code, hashlib.sha256(out.encode()).hexdigest())
            want[argv + mode] = (0, sha)
    assert got == want
