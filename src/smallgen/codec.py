"""One CSV/JSON codec for every persisted record, driven by its type hints.

A record is a dataclass or a NamedTuple; its wire format follows from
``dataclasses.fields`` and ``typing.get_type_hints`` alone.  Dict keys are
written as format(k, "g") for floats and str(k) for ints, in sorted order.
The plan for each type is built once, so the loop over rows does no reflection.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import types
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
    return (lambda k: format(k, "g")) if key_type is float else str


@cache
def _json_encoder(tp):
    """Function from a value of type tp to its JSON form; None when it is the value itself."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        enc = _json_encoder(args[0])
        return None if enc is None else (lambda v: None if v is None else enc(v))
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
    return None


@cache
def _json_decoder(tp):
    """Function from the JSON form of a tp value back to the value; None for as-is."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        dec = _json_decoder(args[0])
        return None if dec is None else (lambda v: None if v is None else dec(v))
    if _is_record(tp):
        plan = [(name, _json_decoder(t)) for name, t, _ in _fields(tp)]
        return lambda obj: tp(*[obj[name] if dec is None else dec(obj[name]) for name, dec in plan])
    if origin is tuple:
        dec = _json_decoder(args[0])
        return tuple if dec is None else (lambda v: tuple(dec(x) for x in v))
    if origin is dict:
        key, dec = args[0], _json_decoder(args[1])
        return lambda d: {key(k): v if dec is None else dec(v) for k, v in d.items()}
    return None


def to_json(obj, **lead) -> str:
    """JSON text (2-space indent, trailing newline) of a record or a list of records.

    A nested record is an object and a tuple a list.  lead holds extra
    top-level keys written before the fields of a single record.
    """
    if isinstance(obj, list):
        enc = _json_encoder(type(obj[0])) if obj else None
        data = [enc(row) for row in obj]
    else:
        data = {**lead, **_json_encoder(type(obj))(obj)}
    return json.dumps(data, indent=2) + "\n"


def from_json(cls, text: str):
    """Records of class cls from to_json text: a list for a list, else one record.

    Keys that are not fields of cls, such as to_json's lead keys, are ignored.
    """
    data = json.loads(text)
    dec = _json_decoder(cls)
    return [dec(obj) for obj in data] if isinstance(data, list) else dec(data)


@cache
def _cell(tp):
    """Formatter of one CSV cell of type tp."""
    if tp is bool:
        return lambda v: "true" if v else "false"
    if tp is float:
        return lambda v: format(v, ".12g")
    if typing.get_origin(tp) is tuple:
        fmt = _cell(typing.get_args(tp)[0])
        return lambda v: ";".join(map(fmt, v))
    return str


@cache
def _parse(tp):
    """Parser of one CSV cell of type tp."""
    if tp is bool:
        return "true".__eq__
    if typing.get_origin(tp) is tuple:
        parse = _parse(typing.get_args(tp)[0])
        return lambda s: tuple(map(parse, s.split(";"))) if s else ()
    return tp


def to_csv(rows) -> str:
    """RFC-4180 CSV text (CRLF, header row) of records of one class; "" for no rows.

    A field's column is its name, or the "csv" name in its metadata.  A dict
    field has one column <column>_<key> per key of the first row.  Floats get
    12 significant digits, booleans are true/false, tuples are joined by ";".
    """
    if not rows:
        return ""
    header, columns = [], []  # columns: (field name, dict key or None, formatter)
    for name, tp, column in _fields(type(rows[0])):
        if typing.get_origin(tp) is dict:
            key_type, value_type = typing.get_args(tp)
            for k in sorted(getattr(rows[0], name)):
                header.append(f"{column}_{_key(key_type)(k)}")
                columns.append((name, k, _cell(value_type)))
        else:
            header.append(column)
            columns.append((name, None, _cell(tp)))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [fmt(getattr(row, name)) if k is None else fmt(getattr(row, name)[k]) for name, k, fmt in columns]
        )
    return buf.getvalue()


def from_csv(cls, text: str) -> list:
    """Records of class cls from to_csv text; [] for empty text."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return []
    index = {h: i for i, h in enumerate(header)}
    getters = []
    for _, tp, column in _fields(cls):
        if typing.get_origin(tp) is dict:
            key_type, value_type = typing.get_args(tp)
            prefix = column + "_"
            cells = [(key_type(h[len(prefix) :]), i) for h, i in index.items() if h.startswith(prefix)]
            getters.append(lambda rec, cells=cells, parse=_parse(value_type): {k: parse(rec[i]) for k, i in cells})
        else:
            getters.append(lambda rec, i=index[column], parse=_parse(tp): parse(rec[i]))
    return [cls(*[get(rec) for get in getters]) for rec in reader]
