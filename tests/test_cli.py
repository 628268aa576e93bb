import hashlib
import json
import math

import pytest

from smallgen import experiments
from smallgen.anatomy import AnatomyRecord, DyadicSchedule
from smallgen.cli import main, run
from smallgen.codec import from_json
from smallgen.experiments import DensityRow, SurveyRow
from smallgen.genset import GenSetResult, generates
from smallgen.modcore import field_spec
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
    # Inputs outside the domain exit 2, each refused by the one check that
    # owns it, with nothing on stdout and the bad value named on stderr.
    for argv, named in [
        ("genset --p 13 --epsilon 0", "epsilon must lie in (0, 16], got 0.0"),
        ("genset --p 13 --hard-cap 1", "hard_cap must be >= 2, got 1"),
        ("genset --p 13 --method exact --size-cap 0", "size_cap must be >= 1, got 0"),
        ("genset --p 13 --method greedy --size-cap 0", "size_cap must be >= 1, got 0"),
        ("survey --min 2 --max 50", "p_min must be >= 3, got 2"),
        ("survey --min 3 --max 50 --epsilon -1", "epsilon must lie in (0, 16], got -1.0"),
        ("genset --p 1000003 --epsilon inf", "epsilon must lie in (0, 16], got inf"),
        ("genset --p 1000003 --epsilon 1000", "epsilon must lie in (0, 16], got 1000.0"),
        ("genset --p 1000003 --epsilon nan", "epsilon must lie in (0, 16], got nan"),
        ("survey --min 3 --max 100 --epsilon 1000", "epsilon must lie in (0, 16], got 1000.0"),
        ("survey --min 3 --max 50 --sample 0", "sample must be >= 1, got 0"),
        ("survey --min 3 --max 2 --sample 0", "sample must be >= 1, got 0"),
        ("survey --min 3 --max 50 --threads 0", "threads must be >= 1, got 0"),
        ("survey --min 3 --max 50 --l 201", "l must lie in [1, 200], got 201.0"),
        ("density --x 2 --l 2", "x must be >= 3, got 2"),
        ("density --x 100 --l 201", "l must lie in [1, 200], got 201.0"),
        ("sieve psi --x 0 --u 2", "x must be >= 1, got 0"),
        ("sieve psi --x 100 --u 0.5", "u must be >= 1, got 0.5"),
        ("sieve psi --x 30 --pset explicit:2,3 --u 0.5", "--u must be >= 1, got 0.5"),
        ("sieve check --x 100 --u 3 --v 2", "got u=3.0 v=2.0"),
        ("sieve check --x 1000 --u 2 --v nan", "v must be finite and >= u, got u=2.0 v=nan"),
        ("sieve check --x 1000 --u 2 --v inf", "v must be finite and >= u, got u=2.0 v=inf"),
        ("sieve check --x 1000 --u nan --v 10", "u must be >= 1, got nan"),
        ("sieve check --x 1000 --pset explicit:2,3 --u nan --v 10", "u must be >= 1, got nan"),
        ("sieve psi --x 1000 --u nan", "u must be >= 1, got nan"),
        ("sieve psi --x 30 --pset explicit:2,3 --u nan", "--u must be >= 1, got nan"),
        ("sieve check --x 1000 --u 2 --v 10 --epsilon nan", "epsilon must be finite and > 0, got nan"),
        ("sieve check --x 1000 --u 2 --v 10 --epsilon inf", "epsilon must be finite and > 0, got inf"),
        ("sieve check --x 1000 --u 2 --v 10 --epsilon 0", "epsilon must be finite and > 0, got 0.0"),
        ("sieve check --x 1000 --u 2 --v 10 --epsilon -5", "epsilon must be finite and > 0, got -5.0"),
        ("sieve psi --x 100 --pset explicit:4,6", "non-prime 4"),
        ("sieve psi --x 100 --pset residue:15,0", "odd prime, got 15"),
        ("sieve psi --x 100 --pset residue:31,5", "divisor index 5"),
        ("anatomy --dyadic 13", "p >= 17, got 13"),
        ("anatomy --dyadic 17 --l 201", "l must lie in [1, 200], got 201.0"),
        ("anatomy --n 0", "n >= 1, got 0"),
        ("anatomy --n 6 --l 201", "l must lie in [1, 200], got 201.0"),
        ("anatomy --n 6 --l 2,x", "bad l list '2,x'"),
        ("sieve psi --x 100 --pset explicit:2,x", "bad explicit prime list in 'explicit:2,x'"),
        ("sieve psi --x 100 --pset residue:31", "residue pset needs residue:P,INDEX"),
        ("sieve psi --x 100 --pset residue:a,b", "bad residue pset 'residue:a,b'"),
        ("sieve psi --x 100 --pset bogus", "unknown pset 'bogus'"),
    ]:
        assert run(argv.split()) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert named in captured.err, (argv, captured.err)


def test_main_exits_with_the_code_of_run(monkeypatch, capsys):
    # The installed smallgen script calls main(), which reads sys.argv.
    for argv, code in (("genset --p 13", 0), ("genset --p 12", 2)):
        monkeypatch.setattr("sys.argv", ["smallgen", *argv.split()])
        with pytest.raises(SystemExit) as exit_:
            main()
        assert exit_.value.code == code, argv
    captured = capsys.readouterr()
    assert captured.out.startswith("p = 13  (p-1 = 2^2 * 3)\n")
    assert captured.err == "error: p must be an odd prime, got 12\n"


def test_huge_inputs_refused_before_factoring(monkeypatch, capsys):
    # n = p - 1 is 2 times a 100-bit composite that rho takes about 30 s to split.
    def no_rho(n):
        raise AssertionError(f"rho started on {n}")

    monkeypatch.setattr("smallgen.modcore._pollard_rho", no_rho)
    n = 1315563630749409752745845609206
    for argv, named in ((["genset", "--p", str(n + 1)], n + 1), (["anatomy", "--n", str(n)], n)):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"got {named}" in captured.err


def test_survey_past_sieve_cap_is_an_error(capsys):
    assert run(["survey", "--min", str(2**62), "--max", str(2**62 + 100)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_survey_runs_serial_by_default(monkeypatch, capsys):
    # 3..20000 is cut into several windows when more than one worker is
    # asked for; by default the survey runs in this process and starts no pool.
    def no_pool(*args, **kwargs):
        raise AssertionError("survey started a process pool")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    assert run(["survey", "--min", "3", "--max", "20000"]) == 0
    assert out_of(capsys).count("\n") == 1 + 2261  # the header and pi(20000) - 1 rows


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
    result = from_json(GenSetResult, text)
    assert result.p == 41
    assert result.method == "greedy"
    assert result.certificate is not None
    assert generates(result.elements, field_spec(result.p))


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
# density --x 7 and anatomy --dyadic 1000003 give degenerate records.  The
# three JSON pins with a NaN were recomputed when JSON began to write it as
# the string "nan": that token is the only change in their bytes.
OUTPUT_SHA256 = [
    ("genset --p 41 --method greedy --format json", "bee93d896acc9178017f636aed13003fcbebf7d55e037a74997889c25c38aabf"),
    ("genset --p 577 --method exact --format json", "33d4fbc889d236072f60ac7acef2870ff664a32147fab220b2b7dcc090d2f52b"),
    ("genset --p 8608456956238879741 --method elementary --format json", "ef121eef9e678a7588a3fd90a3efc19ee9314e2d24df128cd1b50f3495dc244d"),
    ("genset --p 10007 --method exact --size-cap 1 --format json", "db8897a4128796b0f0bccc6b2c8ffd0092f4b89b9c0d186ab425767deb432074"),
    ("survey --min 3 --max 3000 --l 1,2,3 --threads 1 --format csv", "3dbad0aafe5e0242a81e7d31eaf93161fc55cce9d51b0f3a4bb577bf98a41fe6"),
    ("survey --min 3 --max 3000 --l 1,2,3 --threads 1 --format json", "192d00467100dfba5ab407a81f8efe15d18081cd9f1de44616167e2fb2476acb"),
    ("survey --min 3 --max 3000 --l 1,2,3 --threads 1 --format pretty", "5299fef0d0eca0bccd72b973ae4181b3e879f661a5277263a2f70e7581a7710e"),
    ("density --x 100000 --l 1,2,3 --format csv", "f4fa552861699ca7c85969abddecbf647250ea201d6b437d677fcbeb7c54b069"),
    ("density --x 100000 --l 1,2,3 --format json", "1d2e999398b8740f26bd81a2d62b17a709240aa0cb63a715b54e3c2aee5d5e57"),
    ("density --x 7 --l 1 --format json", "6268931c272adb7380fe64188eba61c64f666a0678ac816a17acce00217f7df6"),
    ("anatomy --n 720720 --l 1,2,3 --format json", "f4adbf85b5ee42adadbdfe3382294ac431c4e83c6921319f420b2ea45b362f0b"),
    ("anatomy --n 1 --l 2 --format json", "a80c892fb72f0d8ab58f626b55c538a2ed700b43aab389885e18f3908ed6c3b9"),
    ("anatomy --dyadic 1000003 --format json", "a9bc2c43728327ce87961ee43089d94737bb96807bca19df363ba69936e38a23"),
    ("anatomy --dyadic 2305843009213693951 --format json", "ba53f6cf4238bcfad2d9ad6062e59fc8808a65a5e13c14e3a5d294d7cba4efec"),
    ("sieve check --x 100000 --u 2 --v 10 --format json", "7a6618c8faf3307afec0a406b151614974b53c9a366711f8d9836679a9ce7727"),
    ("sieve psi --x 30 --pset explicit:2,3,5 --format json", "8cc5073a0f771365435c1027eb5131fb6ecd46ffd58eb105ce970819825e31cd"),
    # Pretty output is not a contract, but these pins hold a change to how
    # the CLI writes to the same bytes; [24, 28] holds no prime.
    ("genset --p 13", "3852f2c284aa4bed5610d5594758b580aec4bf23a6d85a25feffcb7173492da9"),
    ("genset --p 41 --method exact", "2ae2abcc5498be260b57281570b5033d5a1398f1bfd954e60570d5ef4f4d3fac"),
    ("genset --p 10007 --method exact --size-cap 1", "9a67ae241b414b89be4f2fa059bbeaf7aa65968d787c0615970382381d9a3479"),
    ("density --x 1000 --l 200 --format pretty", "53c68ce11f606db5e2da13785f3515528aa2ca8493e84540e92522f21d23a0fb"),
    ("sieve check --x 100000 --u 2 --v 10", "ca7a9bbc523285c76e23739d7b8e887e40fdaf15dc3817dedfb8356c79319e76"),
    ("sieve psi --x 1000 --pset residue:31,0", "05cc4a987c45bfa0501462f8834fc1bc133202cc3d69c4a40a6fafadaf9c686b"),
    ("anatomy --n 720720 --l 1,2,3", "26c3d64f33eb1a6dabe828116a871db1c46b93f0a6817f84652108809b87b33d"),
    ("anatomy --n 1 --l 2", "45d911b7352b8551641169d5baf113cb1c2f864d06894d99690abd6e9d7fea45"),
    ("anatomy --dyadic 1000003", "2fb87f00b607944f5e4d0523eb407cb7c9024c42a7f5d03a7535b1dbbdff0771"),
    ("anatomy --dyadic 2305843009213693951", "91e3fe13d66d449bdf81ff867e30ff94f2cd66e4955c91a5ec4eb61eb2d0faea"),
    ("survey --min 24 --max 28 --threads 1 --format csv", "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("survey --min 24 --max 28 --threads 1 --format json", "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("survey --min 24 --max 28 --threads 1 --format pretty", "2eb5e15637cc679c711c1f17b4126ef025af4ac969f109f9037e14abab4f3d6e"),
    # Float keys that format(l, "g") cannot read back are written by repr,
    # and l = 1 gives nan bound cells.
    ("survey --min 3 --max 1000 --l 1,1.0000001,2.1234567 --threads 1", "757e4bc91e2e2d1f93d0c9f7bb1bfa0c2c8deee83fd8933ec71609407a15c073"),
]


@pytest.mark.parametrize("argv, digest", OUTPUT_SHA256, ids=[argv for argv, _ in OUTPUT_SHA256])
def test_output_pinned(capsys, argv, digest):
    assert run(argv.split()) == 0
    assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == digest


def _no_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize(
    "argv",
    [argv for argv, _ in OUTPUT_SHA256 if argv.endswith("json")]
    + [
        "survey --min 3 --max 5 --l 1 --format json",
        "anatomy --n 720 --l 1 --format json",
        "density --x 1000 --l 200 --format json",
    ],
)
def test_json_is_strict(capsys, argv):
    # NaN, Infinity and -Infinity are not JSON (RFC 8259): a float that is
    # not finite is written as the string "nan", "inf" or "-inf".
    assert run(argv.split()) == 0
    json.loads(out_of(capsys), parse_constant=_no_constant)


def test_json_writes_non_finite_floats_as_strings(capsys):
    assert run(["density", "--x", "1000", "--l", "200", "--format", "json"]) == 0
    text = out_of(capsys)
    row = json.loads(text)[0]
    assert (row["threshold"], row["prediction"], row["ratio"]) == ("inf", "inf", "nan")
    back = from_json(DensityRow, text)[0]
    assert back.threshold == back.prediction == math.inf and math.isnan(back.ratio)


@pytest.mark.parametrize("argv", [argv for argv, _ in OUTPUT_SHA256])
def test_output_file_matches_stdout(tmp_path, capsys, argv):
    assert run(argv.split()) == 0
    stdout = out_of(capsys)
    target = tmp_path / "out"
    assert run(argv.split() + ["--output", str(target)]) == 0
    assert out_of(capsys) == ""
    assert target.read_bytes().decode() == stdout
