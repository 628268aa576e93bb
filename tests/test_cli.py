import json

import pytest

from smallgen.cli import (
    read_anatomy_json,
    read_dyadic_json,
    read_genset_json,
    read_sieve_report_json,
    run,
)
from smallgen.experiments import read_density_json, read_survey_json


def out_of(capsys):
    return capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_codes(capsys):
    assert run(["genset", "--p", "13"]) == 0
    assert run(["genset", "--p", "10"]) == 2          # usage: not a prime
    assert run(["bogus"]) == 2                          # usage: unknown command
    assert run(["genset", "--p", "13", "--frob"]) == 2  # usage: unknown flag
    assert run(["genset", "--p", "7", "--no-expand"]) == 1   # infeasible
    assert run(["sieve", "psi", "--x", str(2 * 10**8), "--u", "2"]) == 1  # resource
    assert run(["density", "--x", "100", "--l", "3", "--threads", "2"]) == 2  # flag removed
    capsys.readouterr()


def test_survey_past_sieve_cap_is_an_error(capsys):
    assert run(["survey", "--min", str(2**62), "--max", str(2**62 + 100)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_help_everywhere(capsys):
    assert run(["--help"]) == 0
    for cmd, flags in [
        ("genset", ["--p", "--method", "--epsilon", "--size-cap", "--no-expand", "--hard-cap", "--format", "--output"]),
        ("survey", ["--min", "--max", "--sample", "--l", "--epsilon", "--threads", "--format", "--output"]),
        ("density", ["--x", "--l", "--format", "--output"]),
        ("sieve", ["--x", "--u", "--v", "--epsilon", "--pset", "--format", "--output"]),
        ("anatomy", ["--n", "--dyadic", "--l", "--format", "--output"]),
    ]:
        capsys.readouterr()
        assert run([cmd, "--help"]) == 0
        text = out_of(capsys)
        for flag in flags:
            assert flag in text, (cmd, flag)


# ---------------------------------------------------------------------------
# genset
# ---------------------------------------------------------------------------


def test_genset_pretty_p13_exact(capsys):
    assert run(["genset", "--p", "13", "--method", "exact"]) == 0
    text = out_of(capsys)
    assert "elements = [2]" in text
    assert "g = 2, order = 12" in text


def test_genset_json_round_trip(capsys):
    assert run(["genset", "--p", "41", "--method", "greedy", "--format", "json"]) == 0
    p, result = read_genset_json(out_of(capsys))
    assert p == 41
    assert result.method == "greedy"
    assert result.certificate is not None


# ---------------------------------------------------------------------------
# anatomy
# ---------------------------------------------------------------------------


def test_anatomy_pretty(capsys):
    assert run(["anatomy", "--n", "6", "--l", "2"]) == 0
    text = out_of(capsys)
    assert "omega = 2" in text
    assert "omega_l = 2" in text


def test_anatomy_json_round_trip(capsys):
    assert run(["anatomy", "--n", "720720", "--l", "2,3", "--format", "json"]) == 0
    record = read_anatomy_json(out_of(capsys))
    assert record.n == 720720
    assert record.omega == 6
    assert set(record.omega_l) == {2.0, 3.0}


def test_anatomy_dyadic_json(capsys):
    assert run(["anatomy", "--dyadic", "1000003", "--format", "json"]) == 0
    schedule = read_dyadic_json(out_of(capsys))
    assert schedule.degenerate
    assert schedule.levels == ()


def test_anatomy_requires_exactly_one_mode(capsys):
    assert run(["anatomy", "--n", "6", "--dyadic", "17"]) == 2
    assert run(["anatomy"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------


def test_sieve_psi_explicit(capsys):
    assert run(["sieve", "psi", "--x", "30", "--pset", "explicit:2,3,5"]) == 0
    assert out_of(capsys).strip() == "18"


def test_sieve_psi_json(capsys):
    assert run(["sieve", "psi", "--x", "30", "--pset", "explicit:2,3,5", "--format", "json"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj == {"x": 30, "psi": 18}


def test_sieve_psi_threshold_requires_u(capsys):
    assert run(["sieve", "psi", "--x", "30"]) == 2
    capsys.readouterr()


def test_sieve_check_json_round_trip(capsys):
    assert run(
        ["sieve", "check", "--x", "10000", "--u", "2", "--v", "4", "--epsilon", "0.1", "--format", "json"]
    ) == 0
    report = read_sieve_report_json(out_of(capsys))
    assert report.x == 10000
    assert report.psi == 3716


def test_sieve_residue_pset(capsys):
    assert run(["sieve", "psi", "--x", "100", "--pset", "residue:31,0"]) == 0
    value = int(out_of(capsys).strip())
    assert value >= 1


def test_sieve_check_validation(capsys):
    assert run(["sieve", "check", "--x", "100", "--u", "3", "--v", "2"]) == 2
    assert run(["sieve", "check", "--x", "100", "--u", "2"]) == 2
    assert run(["sieve", "psi", "--x", "100", "--pset", "explicit:4,6"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# survey / density
# ---------------------------------------------------------------------------


def test_survey_csv_stdout(capsys):
    assert run(["survey", "--min", "3", "--max", "50", "--threads", "1"]) == 0
    text = out_of(capsys)
    assert text.startswith("p,omega")
    assert len(text.strip().splitlines()) == 15  # header + 14 rows


def test_survey_json_round_trip(capsys):
    assert run(["survey", "--min", "3", "--max", "50", "--threads", "1", "--format", "json"]) == 0
    rows = read_survey_json(out_of(capsys))
    assert [r.p for r in rows][:3] == [3, 5, 7]


def test_density_json_round_trip(capsys):
    assert run(["density", "--x", "10000", "--l", "2,3", "--format", "json"]) == 0
    rows = read_density_json(out_of(capsys))
    assert [r.l for r in rows] == [2.0, 3.0]
    assert all(r.x == 10000 for r in rows)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert run(["survey", "--min", "3", "--max", "50", "--threads", "1", "--output", str(target)]) == 0
    assert out_of(capsys) == ""  # data went to the file, not stdout
    body = target.read_text()
    assert body.startswith("p,omega")


def test_json_is_valid(capsys):
    assert run(["genset", "--p", "13", "--format", "json"]) == 0
    json.loads(out_of(capsys))
