import hashlib
import json

import pytest

from smallgen.anatomy import AnatomyRecord, DyadicSchedule
from smallgen.cli import run
from smallgen.codec import from_json
from smallgen.experiments import DensityRow, SurveyRow
from smallgen.genset import GenSetResult
from smallgen.sievelab import SieveReport


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
    for cmd in (["survey", "--min", "3", "--max", "50"], ["density", "--x", "100"], ["anatomy", "--n", "6"]):
        assert run(cmd + ["--l", "0.5"]) == 2  # usage: every l must be >= 1
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
    text = out_of(capsys)
    p, result = json.loads(text)["p"], from_json(GenSetResult, text)
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
    record = from_json(AnatomyRecord, out_of(capsys))
    assert record.n == 720720
    assert record.omega == 6
    assert set(record.omega_l) == {2.0, 3.0}


def test_anatomy_dyadic_json(capsys):
    assert run(["anatomy", "--dyadic", "1000003", "--format", "json"]) == 0
    schedule = from_json(DyadicSchedule, out_of(capsys))
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
    report = from_json(SieveReport, out_of(capsys))
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
    rows = from_json(SurveyRow, out_of(capsys))
    assert [r.p for r in rows][:3] == [3, 5, 7]


def test_density_json_round_trip(capsys):
    assert run(["density", "--x", "10000", "--l", "2,3", "--format", "json"]) == 0
    rows = from_json(DensityRow, out_of(capsys))
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


# ---------------------------------------------------------------------------
# output pins
# ---------------------------------------------------------------------------

# sha256 of stdout for every csv/json output format, computed before the
# formats moved to one dataclass-driven codec.  l = 1 gives NaN bounds, and
# density --x 7 and anatomy --dyadic 1000003 give degenerate records.
OUTPUT_SHA256 = [
    ("genset --p 41 --method greedy --format json", "bee93d896acc9178017f636aed13003fcbebf7d55e037a74997889c25c38aabf"),
    ("genset --p 577 --method exact --format json", "33d4fbc889d236072f60ac7acef2870ff664a32147fab220b2b7dcc090d2f52b"),
    ("genset --p 8608456956238879741 --method elementary --format json", "ef121eef9e678a7588a3fd90a3efc19ee9314e2d24df128cd1b50f3495dc244d"),
    ("genset --p 10007 --method exact --size-cap 1 --format json", "db8897a4128796b0f0bccc6b2c8ffd0092f4b89b9c0d186ab425767deb432074"),
    ("survey --min 3 --max 3000 --l 1,2,3 --threads 1 --format csv", "3dbad0aafe5e0242a81e7d31eaf93161fc55cce9d51b0f3a4bb577bf98a41fe6"),
    ("survey --min 3 --max 3000 --l 1,2,3 --threads 1 --format json", "d030477bdeb81c62c35fbe3977b51da651fb59b73ce6b413c3dae16baf81daf5"),
    ("survey --min 3 --max 3000 --l 1,2,3 --threads 1 --format pretty", "5299fef0d0eca0bccd72b973ae4181b3e879f661a5277263a2f70e7581a7710e"),
    ("density --x 100000 --l 1,2,3 --format csv", "f4fa552861699ca7c85969abddecbf647250ea201d6b437d677fcbeb7c54b069"),
    ("density --x 100000 --l 1,2,3 --format json", "1d2e999398b8740f26bd81a2d62b17a709240aa0cb63a715b54e3c2aee5d5e57"),
    ("density --x 7 --l 1 --format json", "5c118e3b6b7a07a1c20b6509cd841709ccbd3d398ffa0a2a04cf91d9c8420933"),
    ("anatomy --n 720720 --l 1,2,3 --format json", "c23418ba40accae6498457c74bc6fbf91a476da02f3390af2427ff2156b5511d"),
    ("anatomy --n 1 --l 2 --format json", "a80c892fb72f0d8ab58f626b55c538a2ed700b43aab389885e18f3908ed6c3b9"),
    ("anatomy --dyadic 1000003 --format json", "a9bc2c43728327ce87961ee43089d94737bb96807bca19df363ba69936e38a23"),
    ("anatomy --dyadic 2305843009213693951 --format json", "ba53f6cf4238bcfad2d9ad6062e59fc8808a65a5e13c14e3a5d294d7cba4efec"),
    ("sieve check --x 100000 --u 2 --v 10 --format json", "7a6618c8faf3307afec0a406b151614974b53c9a366711f8d9836679a9ce7727"),
    ("sieve psi --x 30 --pset explicit:2,3,5 --format json", "8cc5073a0f771365435c1027eb5131fb6ecd46ffd58eb105ce970819825e31cd"),
]


@pytest.mark.parametrize("argv, digest", OUTPUT_SHA256, ids=[argv for argv, _ in OUTPUT_SHA256])
def test_output_pinned(capsys, argv, digest):
    assert run(argv.split()) == 0
    assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == digest
