import csv
import io
import math
import typing
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from smallgen.anatomy import anatomy_record, dyadic_schedule
from smallgen.codec import _fields, _key, from_csv, from_json, to_csv, to_json
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


def test_csv_repeated_calls_write_and_read_the_same_rows():
    # Each call generates its own functions and memo dicts, so a second call
    # writes the same bytes, and dict keys that differ between calls are
    # bound to their own call.
    rows = [Cells((1,), (0.0,)), Cells((1,), (-0.0,))]
    text = to_csv(rows)
    assert to_csv(rows) == text
    assert from_csv(Cells, text) == rows
    assert from_csv(Cells, text) == rows
    tagged = [Tagged("a", {"x": 1}, (True,), {0.5: 1.0}), Tagged("b", {"x": 2}, (), {0.5: 2.0})]
    other = [Tagged("a", {"y": 1}, (True,), {2.0: 1.0})]
    assert from_csv(Tagged, to_csv(tagged)) == tagged
    assert from_csv(Tagged, to_csv(other)) == other


def test_csv_repeated_cells_write_the_bytes_of_distinct_ones():
    # Each row written alone meets every value once; together they repeat.
    values = [(2,), (2, 3), (2,), (), (2, 3), (2,)]
    rows = [Cells(v, ()) for v in values]
    text = to_csv(rows)
    assert text.split("\r\n")[1:-1] == [to_csv([row]).split("\r\n")[1] for row in rows]
    assert text.split("\r\n")[1:7] == ["2,", "2;3,", "2,", ",", "2;3,", "2,"]
    assert from_csv(Cells, text) == rows


def _writer_csv(rows) -> str:
    """csv.writer's text for the cell strings that to_csv formats: the
    reference for its own line encoder and quoting."""
    def cell(tp, v):
        if tp is bool:
            return "true" if v else "false"
        if tp is float:
            return format(v, ".12g")
        if typing.get_origin(tp) is tuple:
            return ";".join(cell(typing.get_args(tp)[0], x) for x in v)
        return str(v)

    header, cells = [], []
    for name, tp, column in _fields(type(rows[0])):
        if typing.get_origin(tp) is dict:
            key_type, value_type = typing.get_args(tp)
            for k in sorted(getattr(rows[0], name)):
                header.append(f"{column}_{_key(key_type)(k)}")
                cells.append(lambda row, name=name, k=k, tp=value_type: cell(tp, getattr(row, name)[k]))
        else:
            header.append(column)
            cells.append(lambda row, name=name, tp=tp: cell(tp, getattr(row, name)))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f(row) for f in cells] for row in rows)
    return buf.getvalue()


@dataclass(frozen=True)
class Texts:
    name: str
    words: tuple[str, ...]
    notes: dict[str, str]
    x: float
    ints: tuple[int, ...]
    flag: bool


@dataclass(frozen=True)
class Lone:
    text: str


@dataclass(frozen=True)
class LoneInts:
    ints: tuple[int, ...]


TRICKY = ["", ",", '"', "\r", "\n", "\r\n", "{}", "{x}", "'", "a,b", 'say "hi"', "  ", ";", "x"]
FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 2.5, 1 / 3]


def test_csv_lines_match_csv_writer():
    keys = ["", "k,1", 'k"2', "k\r\n3", "{k}", "k'"]
    rows = [
        Texts(t, tuple(TRICKY[i:] + TRICKY[:i]), {k: TRICKY[(i + j) % len(TRICKY)] for j, k in enumerate(keys)}, x, (), i % 2 == 0)
        for i, (t, x) in enumerate(zip(TRICKY, FLOATS * 2))
    ]
    rows += [Texts("", (), dict.fromkeys(keys, ""), -0.0, (1, 2), False), Texts("", ("",), dict.fromkeys(keys, ","), math.nan, (), True)]
    assert to_csv(rows) == _writer_csv(rows)
    back = from_csv(Texts, to_csv(rows))
    assert [(r.name, r.notes, r.ints, r.flag) for r in back] == [(r.name, r.notes, r.ints, r.flag) for r in rows]
    for records in (
        [Lone(t) for t in TRICKY],
        [Lone("")],
        [LoneInts(()), LoneInts((3,)), LoneInts(())],
        [Cells((), (x,)) for x in FLOATS] + [Cells((), ()), Cells((), (-0.0, math.nan))],
        [Tagged("a,b", {"": 1, "x,y": 2}, (), {0.5: -0.0, 2.0: math.inf})],
    ):
        assert to_csv(records) == _writer_csv(records), records
    assert to_csv([Lone(""), Lone("")]) == 'text\r\n""\r\n""\r\n'
    assert from_csv(Lone, to_csv([Lone(t) for t in TRICKY])) == [Lone(t) for t in TRICKY]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(",\"\r\n{}' ab"), st.lists(st.text(",\"\n'b", max_size=3), max_size=3), st.floats()), min_size=1, max_size=4))
def test_csv_lines_match_csv_writer_on_any_text(cells):
    rows = [Texts(t, tuple(w), {"n,1": t, "": "".join(w)}, x, (), False) for t, w, x in cells]
    assert to_csv(rows) == _writer_csv(rows)
    lone = [Lone(t) for t, _, _ in cells]
    assert to_csv(lone) == _writer_csv(lone)
    assert from_csv(Lone, to_csv(lone)) == lone


@pytest.mark.parametrize("ls", [(2.1234567,), (1.0, 1.0000001), (2.0, 3.0, 1e-7 + 2.0)])
def test_float_keys_keep_every_digit(ls):
    # format(k, "g") keeps 6 significant digits; a key it cannot read back
    # is written by repr, so columns stay distinct and read back exactly.
    rows = [survey_row(p, ls) for p in (3, 7, 577)]
    header = to_csv(rows).split("\r\n")[0].split(",")
    omega_columns = [h for h in header if h.startswith("omega_l_")]
    assert len(omega_columns) == len(set(omega_columns)) == len(ls)
    for text, read in ((to_csv(rows), lambda t: from_csv(type(rows[0]), t)), (to_json(rows), lambda t: from_json(type(rows[0]), t))):
        back = read(text)
        assert [sorted(r.omega_l) for r in back] == [sorted(ls)] * 3
        assert [r.omega_l for r in back] == [r.omega_l for r in rows]
        assert [r.h_exact for r in back] == [r.h_exact for r in rows]


def test_float_keys_that_g_reads_back_keep_their_bytes():
    assert [_key(float)(k) for k in (1.0, 2.0, 3.0, 5.0, 150.0, 200.0, 0.5, -0.0)] == ["1", "2", "3", "5", "150", "200", "0.5", "-0"]
    assert [_key(float)(k) for k in (2.1234567, 1.0000001, 1e-7)] == ["2.1234567", "1.0000001", "1e-07"]
