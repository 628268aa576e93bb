import math
from dataclasses import dataclass

import pytest

from smallgen.anatomy import anatomy_record, dyadic_schedule
from smallgen.codec import from_csv, from_json, to_csv, to_json
from smallgen.experiments import density_experiment, survey_row
from smallgen.genset import Certificate, candidate_table, certify
from smallgen.modcore import field_spec
from smallgen.sievelab import PrimeSetSpec, sieve_bound_check

RECORDS = {
    # 41 - 1 = 2^3 * 5: the certificate comes from combining two elements.
    "GenSetResult": lambda: certify(candidate_table(field_spec(41)), "exact"),
    "SurveyRow": lambda: survey_row(577, (2.0, 3.0)),
    "AnatomyRecord": lambda: anatomy_record(720720, [2.0, 3.0]),
    "DyadicSchedule": lambda: dyadic_schedule(2305843009213693951),
    "DensityRow": lambda: density_experiment(10**4, [3.0])[0],
    "SieveReport": lambda: sieve_bound_check(PrimeSetSpec.threshold(10**4, 2.0), 2.0, 4.0, 0.1),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_json_round_trip(name):
    x = RECORDS[name]()
    assert type(x).__name__ == name
    back = from_json(type(x), to_json(x))
    assert back == x
    assert from_json(type(x), to_json([x, x])) == [x, x]


def test_certificate_reads_back_as_a_certificate():
    x = RECORDS["GenSetResult"]()
    back = from_json(type(x), to_json(x))
    assert isinstance(back.certificate, Certificate)
    assert back.certificate.order == 40


@dataclass(frozen=True)
class Tagged:
    name: str
    counts: dict[str, int]
    flags: tuple[bool, ...]
    weights: dict[float, float]


def test_csv_keeps_keys_and_text_out_of_the_generated_source():
    # The codec builds its row functions with eval; keys and cell text that
    # look like code must come back as data.
    keys = ["__import__('os')", 'a"b', "x, y", "0)]; raise SystemExit(", "h0"]
    rows = [
        Tagged("__import__('os').getcwd()", {k: i for i, k in enumerate(keys)}, (True, False), {0.5: 1.25, 2.0: -3.0}),
        Tagged('say "hi"\r\nbye', {k: -i for i, k in enumerate(keys)}, (), {0.5: 0.0, 2.0: 1e300}),
    ]
    text = to_csv(rows)
    assert "counts___import__('os')" in text.splitlines()[0]
    assert from_csv(Tagged, text) == rows


@dataclass(frozen=True)
class Cells:
    ints: tuple[int, ...]
    floats: tuple[float, ...]


def test_csv_float_tuples_keep_the_sign_of_zero():
    # Equal tuples share a cell, so a memo keyed on (0.0,) would also write
    # (-0.0,) as "0"; only int tuples are keyed on their value.
    text = to_csv([Cells((1,), (0.0,)), Cells((1,), (-0.0,)), Cells((1,), (0.0,))])
    assert text.split("\r\n")[1:4] == ["1,0", "1,-0", "1,0"]
    back = from_csv(Cells, text)
    assert [math.copysign(1.0, row.floats[0]) for row in back] == [1.0, -1.0, 1.0]


def test_csv_nan_and_empty_tuples_round_trip():
    rows = [Cells((), (math.nan,)), Cells((), ()), Cells((2, 3), (math.nan, -math.inf)), Cells((), (math.nan,))]
    text = to_csv(rows)
    assert text.split("\r\n")[1:5] == [",nan", ",", "2;3,nan;-inf", ",nan"]
    back = from_csv(Cells, text)
    assert [row.ints for row in back] == [(), (), (2, 3), ()]
    assert [len(row.floats) for row in back] == [1, 0, 2, 1]
    assert all(math.isnan(row.floats[0]) for row in (back[0], back[2], back[3]))
    assert back[2].floats[1] == -math.inf


def test_csv_repeated_cells_write_the_bytes_of_distinct_ones():
    # Each row written alone meets every value once; together they repeat.
    values = [(2,), (2, 3), (2,), (), (2, 3), (2,)]
    rows = [Cells(v, ()) for v in values]
    text = to_csv(rows)
    assert text.split("\r\n")[1:-1] == [to_csv([row]).split("\r\n")[1] for row in rows]
    assert text.split("\r\n")[1:7] == ["2,", "2;3,", "2,", ",", "2;3,", "2,"]
    assert from_csv(Cells, text) == rows
