"""One CSV/JSON codec for every persisted record, driven by its type hints.

A record is a dataclass or a NamedTuple; its wire format follows from
``dataclasses.fields`` and ``typing.get_type_hints`` alone.  Dict keys are
written as str(k) for ints, and for floats as format(k, "g") where that reads
back as k, else repr(k), in sorted order.  The JSON plan for each type is
built once, so the loop over rows does no reflection.  A float that is not
finite goes to JSON as the string "nan", "inf" or "-inf", its CSV spelling,
so the text is strict JSON (RFC 8259).  Each to_csv and from_csv call
generates one function that encodes or decodes a whole row, with eval as
dataclasses and namedtuple do; to_csv's is one f-string that writes the
row's CRLF line.  It quotes as csv.writer (QUOTE_MINIMAL) does: a cell that
holds , " CR or LF goes in quotes with its quotes doubled, and a record's
lone empty cell is written "".  No int, float or bool cell can need that, so
only the header, text cells and a lone cell are looked at.  The source is
made of field names (identifiers, as dataclasses and NamedTuple require),
fixed templates and generated names; every dict key and type it needs is
bound in its namespace, so no data is ever part of the source.  Element
lists repeat across rows, so each call's function also holds one dict per
tuple column: a distinct cell is parsed, or a distinct int tuple formatted,
once per call.
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
    """(name, type, CSV column) of each field of a record class, in order."""
    hints = typing.get_type_hints(cls)
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


def to_json(obj, **lead) -> str:
    """JSON text (2-space indent, trailing newline) of a record or a list of records.

    A nested record is an object and a tuple a list.  A float that is not
    finite is the string "nan", "inf" or "-inf", so the text is strict JSON.
    lead holds extra top-level keys written before the fields of a single record.
    """
    if isinstance(obj, list):
        enc = _json_encoder(type(obj[0])) if obj else None
        data = [enc(row) for row in obj]
    else:
        data = {**lead, **_json_encoder(type(obj))(obj)}
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def from_json(cls, text: str):
    """Records of class cls from to_json text: a list for a list, else one record.

    Keys that are not fields of cls, such as to_json's lead keys, are ignored.
    """
    data = json.loads(text)
    dec = _json_decoder(cls)
    return [dec(obj) for obj in data] if isinstance(data, list) else dec(data)


def _bind(env: dict, value) -> str:
    """A fresh name under which generated source reaches value: env holds it."""
    name = f"_{len(env)}"
    env[name] = value
    return name


def _memo(v: str, compute: str, env: dict) -> str:
    """Source that computes compute once per distinct value of v, in a dict bound in env."""
    memo = _bind(env, {})
    return f"({memo}[{v}] if {v} in {memo} else {memo}.setdefault({v}, {compute}))"


def _cell(tp, v: str, env: dict) -> str:
    """Source of the CSV cell of the value expression v, which has type tp."""
    if tp is bool:
        return f'("true" if {v} else "false")'
    if tp is float:
        return f'format({v}, ".12g")'
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        cell = f'";".join([{_cell(item, "x", env)} for x in {v}])'
        # Only int tuples: a float key would find the cell of 0.0 for -0.0.
        return _memo(v, cell, env) if item is int else cell
    return f"str({v})"


def _parse(tp, v: str, env: dict) -> str:
    """Source of the value of type tp read from the CSV cell expression v."""
    if tp is bool:
        return f'({v} == "true")'
    if typing.get_origin(tp) is tuple:
        value = f'(tuple([{_parse(typing.get_args(tp)[0], "x", env)} for x in {v}.split(";")]) if {v} else ())'
        return _memo(v, value, env)
    return f"{_bind(env, tp)}({v})"


def _quote(cell: str, lone: bool = False) -> str:
    """cell as csv.writer (QUOTE_MINIMAL) writes it: quoted, its quotes doubled,
    where it holds , " CR or LF; "" where it is empty and its record's lone cell."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return '""' if lone and not cell else cell


def to_csv(rows) -> str:
    """RFC-4180 CSV text (CRLF, header row) of records of one class; "" for no rows.

    A field's column is its name, or the "csv" name in its metadata.  A dict
    field has one column <column>_<key> per key of the first row.  Floats get
    12 significant digits, booleans are true/false, tuples are joined by ";".
    One f-string per call, generated from the fields and those keys, writes a
    row's CRLF line.  A header cell, a record's lone cell and a cell that can
    hold text (of any type but int, float, bool or a tuple of them) go
    through _quote, csv.writer's rule; no other cell can need quotes.
    """
    if not rows:
        return ""
    header, cells, env = [], [], {"_quote": _quote}
    for name, tp, column in _fields(type(rows[0])):
        if typing.get_origin(tp) is dict:
            key_type, value_type = typing.get_args(tp)
            for k in sorted(getattr(rows[0], name)):
                header.append(f"{column}_{_key(key_type)(k)}")
                cells.append((value_type, f"row.{name}[{_bind(env, k)}]"))
        else:
            header.append(column)
            cells.append((tp, f"row.{name}"))
    lone = len(cells) == 1
    fields = []
    for tp, v in cells:
        cell = _cell(tp, v, env)  # cell sources hold no ' and no braces
        fields.append(f"{{_quote({cell}, {lone})}}" if lone or _holds_text(tp) else f"{{{cell}}}")
    encode = eval(f"lambda row: f'{','.join(fields)}\\r\\n'", env)
    buf = io.StringIO()  # one line at a time: no list of every line
    buf.write(",".join(_quote(h, lone) for h in header) + "\r\n")
    buf.writelines(map(encode, rows))
    return buf.getvalue()


def _holds_text(tp) -> bool:
    """Whether a cell of type tp can hold text, which may need quotes."""
    if typing.get_origin(tp) is tuple:
        tp = typing.get_args(tp)[0]
    return tp not in (int, float, bool)


def from_csv(cls, text: str) -> list:
    """Records of class cls from to_csv text; [] for empty text.

    One decoder per call, generated from the fields and the header, takes a
    row's cells as its arguments h0, h1, ... in header order.
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
        else:
            args.append(_parse(tp, f"h{index[column]}", env))
    params = ", ".join(f"h{i}" for i in range(len(header)))
    decode = eval(f"lambda {params}: cls({', '.join(args)})", env)
    return list(itertools.starmap(decode, reader))
