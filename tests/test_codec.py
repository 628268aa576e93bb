import csv
import io
import json
import math
import re
import typing
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from smallgen.anatomy import anatomy_record, dyadic_schedule
from smallgen.codec import _fields, _key, from_csv, from_json, to_csv, to_json
from smallgen.experiments import SurveyRow, density_experiment, survey_row
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
class Keyed:
    counts: dict[int, int]
    flags: tuple[bool, ...]
    weights: dict[float, float]


def test_csv_keeps_keys_and_text_out_of_the_generated_source(monkeypatch):
    # The codec builds its row functions with eval.  to_csv writes no text,
    # but from_csv's header comes from outside: a key that looks like code
    # is refused as a key, and nothing in it runs.
    calls = []
    monkeypatch.setattr("os.getcwd", lambda: calls.append("getcwd"))
    for header in (
        "counts_1,flags,weights___import__('os').getcwd()",
        "counts___import__('os').getcwd(),flags,weights_0.5",
        'counts_0,flags,"weights_0)]; raise SystemExit(",h0',
    ):
        with pytest.raises(ValueError):
            from_csv(Keyed, header + "\r\n1,true,2\r\n")
    assert calls == []
    # A key that g cannot read back is written by repr and reads back exactly;
    # csv.reader also reads a header that another program quoted.
    rows = [Keyed({-3: 1, 7: 2}, (True, False), {1e-07: 1.25, 2.1234567: -3.0}), Keyed({-3: 0, 7: -1}, (), {1e-07: 0.0, 2.1234567: 1e300})]
    text = to_csv(rows)
    assert text.split("\r\n")[0] == "counts_-3,counts_7,flags,weights_1e-07,weights_2.1234567"
    assert from_csv(Keyed, text) == rows
    assert from_csv(Keyed, '"counts_-3","weights_1e-07",flags\r\n4,0.5,true\r\n') == [Keyed({-3: 4}, (True,), {1e-07: 0.5})]


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
    keyed = [Keyed({1: 1}, (True,), {0.5: 1.0}), Keyed({1: 2}, (), {0.5: 2.0})]
    other = [Keyed({2: 1}, (True,), {2.0: 1.0, 1e-07: 3.0})]
    assert from_csv(Keyed, to_csv(keyed)) == keyed
    assert from_csv(Keyed, to_csv(other)) == other


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
    reference for its own line encoder, which quotes nothing."""
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


FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 2.5, 1 / 3]


def test_csv_lines_match_csv_writer():
    for records in (
        [Cells((), (x,)) for x in FLOATS] + [Cells((), ()), Cells((), (-0.0, math.nan))],
        [Cells((i, -i), tuple(FLOATS[i:])) for i in range(len(FLOATS))],
        [Keyed({0: 1}, (), {0.5: -0.0, 2.0: math.inf}), Keyed({0: -1}, (False, True), {0.5: math.nan, 2.0: 1e-300})],
    ):
        assert to_csv(records) == _writer_csv(records), records


@dataclass(frozen=True)
class Mixed:
    x: float
    ints: tuple[int, ...]
    flag: bool
    floats: tuple[float, ...]
    weights: dict[float, float]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False), unique=True, max_size=3),
    st.lists(st.tuples(st.floats(), st.lists(st.integers(), max_size=3), st.booleans(), st.lists(st.floats(), max_size=3), st.floats()), min_size=1, max_size=4),
)
def test_csv_lines_match_csv_writer_on_any_text(keys, cells):
    # Every cell type a record may have, nan, inf and empty tuples included:
    # csv.writer never quotes one, and the text reads back to the same text.
    rows = [Mixed(x, tuple(ints), flag, tuple(fs), {k: w + i for i, k in enumerate(keys)}) for x, ints, flag, fs, w in cells]
    text = to_csv(rows)
    assert text == _writer_csv(rows)
    assert to_csv(from_csv(Mixed, text)) == text


@dataclass(frozen=True)
class Named:
    name: str


@dataclass(frozen=True)
class Worded:
    counts: dict[str, int]


@dataclass(frozen=True)
class Words:
    words: tuple[str, ...]


@dataclass(frozen=True)
class Nested:
    p: int
    certificate: Certificate


@dataclass(frozen=True)
class Lists:
    runs: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Pair:
    pair: tuple[int, str]


def test_csv_refuses_cells_that_could_need_quotes():
    # Only int, float and bool cells, tuples of one of them and int or float
    # dict keys are written; any other type is refused before a row is.
    for rows, named in [
        ([Named("a,b")], "<class 'str'>"),
        ([Worded({"x,y": 1})], "dict keys of type int or float, not <class 'str'>"),
        ([Words(("a",))], "tuple[str, ...]"),
        ([Nested(41, Certificate(11, 40))], "Certificate"),
        ([RECORDS["GenSetResult"]()], "<class 'str'>"),
        ([Lists(((1,), (2, 3)))], "tuple[tuple[int, ...], ...]"),
        ([Pair((1, "a,b"))], "tuple[int, str]"),
    ]:
        with pytest.raises(TypeError, match=re.escape(named)):
            to_csv(rows)


@dataclass(frozen=True)
class BoolKeyed:
    m: dict[bool, int]


def test_codec_refuses_dict_keys_other_than_int_or_float():
    # A bool key is written "False" and would read back as bool("False"),
    # True; a str key could need quotes.  The record class is refused by
    # every entry point before a row is written or read.
    for x, key_type, json_text, csv_text in [
        (BoolKeyed({False: 1, True: 2}), bool, '{"m": {"False": 1, "True": 2}}', "m_False,m_True\r\n1,2\r\n"),
        (Worded({"x": 1}), str, '{"counts": {"x": 1}}', "counts_x\r\n1\r\n"),
    ]:
        cls = type(x)
        for call in (
            lambda: to_json(x),
            lambda: to_json([x]),
            lambda: to_csv([x]),
            lambda: from_json(cls, json_text),
            lambda: from_csv(cls, csv_text),
        ):
            with pytest.raises(TypeError, match=re.escape(f"dict keys of type int or float, not {key_type!r}")):
                call()


def test_csv_reader_refuses_a_header_without_a_field_column():
    text = to_csv([survey_row(p) for p in (3, 7, 577)])
    with pytest.raises(ValueError, match="CSV header has no column 'h_exact'"):
        from_csv(SurveyRow, text.replace("h_exact,", "", 1))


def test_csv_reader_refuses_a_row_without_a_cell_per_column():
    lines = to_csv([survey_row(p) for p in (3, 7, 577)]).split("\r\n")
    short = lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]
    long = lines[:3] + [lines[3] + ",1"] + lines[4:]
    blank = lines[:3] + [""] + lines[3:]
    for edited, line in ((short, 3), (long, 4), (blank, 4)):
        with pytest.raises(ValueError, match=f"CSV line {line} does not have the header's 14 cells"):
            from_csv(SurveyRow, "\r\n".join(edited))


def test_json_reader_refuses_an_object_without_a_field():
    rows = [survey_row(p) for p in (3, 7)]
    data = json.loads(to_json(rows))
    del data[1]["omega"]
    with pytest.raises(ValueError, match="JSON object has no field 'omega'"):
        from_json(SurveyRow, json.dumps(data))
    with pytest.raises(ValueError, match="JSON object has no field 'omega'"):
        from_json(SurveyRow, json.dumps(data[1]))


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
