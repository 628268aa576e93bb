"""One CSV/JSON codec for every persisted record, driven by its type hints.

A record is a dataclass or a NamedTuple; its wire format follows from
``dataclasses.fields`` and ``typing.get_type_hints`` alone.  Dict keys are
written as str(k) for ints, and for floats as format(k, "g") where that reads
back as k, else repr(k), in sorted order.  The JSON plan for each type is
built once, so the loop over rows does no reflection.  A float that is not
finite goes to JSON as the string "nan", "inf" or "-inf", its CSV spelling,
so the text is strict JSON (RFC 8259).  CSV cells are ints, floats, bools or
tuples of one of them, as in survey and density rows; none can hold a
comma, a quote or a line end, so to_csv quotes nothing and refuses any other
type with TypeError.  Dict keys are ints or floats in both formats: _fields,
built once per record class, refuses any other key type with TypeError, so
all four functions refuse such a class before a row is written or read.
Both readers raise ValueError on text that lacks a field or a cell.  Each
to_csv and from_csv call generates one function that encodes or decodes a
whole row, with eval as dataclasses and namedtuple do; to_csv's is one
f-string that writes the row's CRLF line.  The source is made of field names
(identifiers, as dataclasses and NamedTuple require), fixed templates and
generated names; every dict key and type it needs is bound in its namespace,
so no data is ever part of the source.  Element lists repeat across rows, so each call's
function also holds one dict per tuple column: a distinct cell is parsed,
or a distinct int tuple formatted, once per call.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import typing
from functools import cache


def _is_record(tp) -> bool:
    return dataclasses.is_dataclass(tp) or hasattr(tp, "_fields")


@cache
def _fields(cls) -> tuple[tuple[str, object, str], ...]:
    """(name, type, CSV column) of each field of a record class, in order.

    A dict field whose keys are not ints or floats raises TypeError: a bool
    key's text "False" would read back as True, and a str key could need
    CSV quotes.
    """
    hints = typing.get_type_hints(cls)
    for name, tp in hints.items():
        if typing.get_origin(tp) is dict and typing.get_args(tp)[0] not in (int, float):
            raise TypeError(f"{cls.__name__}.{name}: dict keys of type int or float, not {typing.get_args(tp)[0]!r}")
    if dataclasses.is_dataclass(cls):
        return tuple((f.name, hints[f.name], f.metadata.get("csv", f.name)) for f in dataclasses.fields(cls))
    return tuple((name, hints[name], name) for name in cls._fields)


def _key(key_type):
    """Key to text: str, or for a float format(k, "g") where that reads back as k, else repr(k)."""
    return (lambda k: format(k, "g") if float(format(k, "g")) == k else repr(k)) if key_type is float else str


@cache
def _json_encoder(tp):
    """Function from a value of type tp to its JSON form; None when it is the value itself."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if _is_record(tp):
        plan = [(name, _json_encoder(t)) for name, t, _ in _fields(tp)]
        return lambda obj: {
            name: getattr(obj, name) if enc is None else enc(getattr(obj, name)) for name, enc in plan
        }
    if origin is tuple:
        enc = _json_encoder(args[0])
        return list if enc is None else (lambda v: [enc(x) for x in v])
    if origin is dict:
        key, enc = _key(args[0]), _json_encoder(args[1])
        return lambda d: {key(k): v if enc is None else enc(v) for k, v in sorted(d.items())}
    if tp is float:
        return _json_float
    return None


def _json_float(x: float):
    """x, or "nan", "inf" or "-inf" (its CSV spelling) where JSON has no number for it."""
    return x if math.isfinite(x) else str(x)


@cache
def _json_decoder(tp):
    """Function from the JSON form of a tp value back to the value; None for as-is."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if _is_record(tp):
        plan = [(name, _json_decoder(t)) for name, t, _ in _fields(tp)]
        return lambda obj: tp(*[obj[name] if dec is None else dec(obj[name]) for name, dec in plan])
    if origin is tuple:
        dec = _json_decoder(args[0])
        return tuple if dec is None else (lambda v: tuple(dec(x) for x in v))
    if origin is dict:
        key, dec = args[0], _json_decoder(args[1])
        return lambda d: {key(k): v if dec is None else dec(v) for k, v in d.items()}
    if tp is float:
        return float
    return None


def to_json(obj) -> str:
    """JSON text (2-space indent, trailing newline) of a record or a list of records.

    A record is an object of its fields in order, a nested record an object
    and a tuple a list.  A float that is not finite is the string "nan",
    "inf" or "-inf", so the text is strict JSON.
    """
    if isinstance(obj, list):
        enc = _json_encoder(type(obj[0])) if obj else None
        data = [enc(row) for row in obj]
    else:
        data = _json_encoder(type(obj))(obj)
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def from_json(cls, text: str):
    """Records of class cls from to_json text: a list for a list, else one record.

    Keys that are not fields of cls are ignored; a missing field raises ValueError.
    """
    data = json.loads(text)
    dec = _json_decoder(cls)
    try:
        return [dec(obj) for obj in data] if isinstance(data, list) else dec(data)
    except KeyError as exc:
        raise ValueError(f"JSON object has no field {exc.args[0]!r}") from None


def _bind(env: dict, value) -> str:
    """A fresh name under which generated source reaches value: env holds it."""
    name = f"_{len(env)}"
    env[name] = value
    return name


def _memo(v: str, compute: str, env: dict) -> str:
    """Source that computes compute once per distinct value of v, in a dict bound in env."""
    memo = _bind(env, {})
    return f"({memo}[{v}] if {v} in {memo} else {memo}.setdefault({v}, {compute}))"


_CELLS = {int: "str({})", float: 'format({}, ".12g")', bool: '("true" if {} else "false")'}


def _cell(tp, v: str, env: dict) -> str:
    """Source of the CSV cell of the value expression v, which has type tp: a
    key of _CELLS or a tuple[X, ...] of one, joined by ";"; else TypeError."""
    tuple_of = typing.get_origin(tp) is tuple and typing.get_args(tp)[1:] == (...,)
    item = typing.get_args(tp)[0] if tuple_of else tp
    if item not in _CELLS:
        raise TypeError(f"to_csv writes int, float and bool cells and tuples of one of them, not {tp!r}")
    if not tuple_of:
        return _CELLS[tp].format(v)
    cell = f'";".join([{_CELLS[item].format("x")} for x in {v}])'
    # Only int tuples: a float key would find the cell of 0.0 for -0.0.
    return _memo(v, cell, env) if item is int else cell


def _parse(tp, v: str, env: dict) -> str:
    """Source of the value of type tp read from the CSV cell expression v."""
    if tp is bool:
        return f'({v} == "true")'
    if typing.get_origin(tp) is tuple:
        value = f'(tuple([{_parse(typing.get_args(tp)[0], "x", env)} for x in {v}.split(";")]) if {v} else ())'
        return _memo(v, value, env)
    return f"{_bind(env, tp)}({v})"


def to_csv(rows) -> str:
    """RFC-4180 CSV text (CRLF, header row) of records of one class; "" for no rows.

    A field's column is its name, or the "csv" name in its metadata.  A dict
    field has one column <column>_<key> per key of the first row.  Floats get
    12 significant digits, booleans are true/false, tuples are joined by ";".
    A cell of any other type raises TypeError before any row is written, as
    _fields does for a dict key that is not an int or a float; no cell needs
    quotes.  One f-string per call, generated from the fields and those keys,
    writes a row's CRLF line.
    """
    if not rows:
        return ""
    header, cells, env = [], [], {}
    for name, tp, column in _fields(type(rows[0])):
        if typing.get_origin(tp) is dict:
            key_type, value_type = typing.get_args(tp)
            for k in sorted(getattr(rows[0], name)):
                header.append(f"{column}_{_key(key_type)(k)}")
                cells.append(_cell(value_type, f"row.{name}[{_bind(env, k)}]", env))
        else:
            header.append(column)
            cells.append(_cell(tp, f"row.{name}", env))
    line = ",".join("{" + cell + "}" for cell in cells)  # cell sources hold no ' and no braces
    encode = eval(f"lambda row: f'{line}\\r\\n'", env)
    buf = io.StringIO()  # one line at a time: no list of every line
    buf.write(",".join(header) + "\r\n")
    buf.writelines(map(encode, rows))
    return buf.getvalue()


def from_csv(cls, text: str) -> list:
    """Records of class cls from to_csv text; [] for empty text.

    csv.reader reads it, so quoted text from elsewhere reads too.  One decoder
    per call, generated from the fields and the header, takes a row's cells
    as its arguments h0, h1, ... in header order.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return []
    index = {h: i for i, h in enumerate(header)}
    env = {"cls": cls}
    args = []
    for _, tp, column in _fields(cls):
        if typing.get_origin(tp) is dict:
            key_type, value_type = typing.get_args(tp)
            prefix = column + "_"
            items = [
                f"{_bind(env, key_type(h[len(prefix) :]))}: {_parse(value_type, f'h{i}', env)}"
                for h, i in index.items()
                if h.startswith(prefix)
            ]
            args.append(f"{{{', '.join(items)}}}")
        elif column in index:
            args.append(_parse(tp, f"h{index[column]}", env))
        else:
            raise ValueError(f"CSV header has no column {column!r}")
    params = ", ".join(f"h{i}" for i in range(len(header)))
    decode = eval(f"lambda {params}: cls({', '.join(args)})", env)
    try:
        return list(itertools.starmap(decode, reader))
    except TypeError:  # decode's arity: a row without one cell per column
        raise ValueError(f"CSV line {reader.line_num} does not have the header's {len(header)} cells") from None
