"""Reading and writing frames and signals as JSON or CSV text.

Floats are written with 17 significant digits, enough to reproduce
every IEEE double bit-exactly on read-back.  The JSON frame format is

    {"n": 2, "m": 3, "field": "real", "columns": [[[re, im], ...], ...]}

with one inner list of [re, im] pairs per column.  The CSV format has
one matrix row per line of comma-separated "re+imj" tokens.  Vectors
use {"n": len, "entries": [[re, im], ...]} and a single CSV line.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .frames import FrameMatrix


def _fmt17(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize a non-finite number")
    return format(x, ".17g")


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(o, out):
    if isinstance(o, bool) or o is None:
        out.append("null" if o is None else ("true" if o else "false"))
    elif isinstance(o, (int, np.integer)):
        out.append(str(int(o)))
    elif isinstance(o, (float, np.floating)):
        out.append(_fmt17(float(o)))
    elif isinstance(o, str):
        out.append(json.dumps(o))
    elif isinstance(o, (list, tuple)):
        out.append("[")
        for i, item in enumerate(o):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    elif isinstance(o, dict):
        out.append("{")
        for i, (key, val) in enumerate(o.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(val, out)
        out.append("}")
    else:
        raise TypeError("cannot serialize %r" % type(o))


def _pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _token(z: complex) -> str:
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return "%s%s%sj" % (_fmt17(z.real), sign, _fmt17(abs(z.imag)))


def frame_to_json_obj(phi: FrameMatrix) -> dict:
    return {
        "n": phi.n,
        "m": phi.m,
        "field": phi.field,
        "columns": [_pairs(phi.entries[:, k]) for k in range(phi.m)],
    }


def _required(obj, key: str, kind: type, what: str):
    """obj[key] after checking that obj is a JSON object holding it as
    ``kind``; raises ValueError naming the field otherwise."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object, got %s" % type(obj).__name__)
    if key not in obj:
        raise ValueError("missing field %r" % key)
    val = obj[key]
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ValueError("field %r must be %s" % (key, what))
    return val


def frame_from_json_obj(obj) -> FrameMatrix:
    n = _required(obj, "n", int, "an integer")
    m = _required(obj, "m", int, "an integer")
    field = _required(obj, "field", str, "a string")
    columns = _required(obj, "columns", list, "a list of columns")
    try:
        if len(columns) != m or any(len(c) != n for c in columns):
            raise ValueError("column data does not match the declared n, m")
    except TypeError:
        raise ValueError("field 'columns' must be a list of lists") from None
    entries = np.empty((n, m), dtype=np.complex128)
    try:
        for k, col in enumerate(columns):
            for t, pair in enumerate(col):
                re, im = pair
                entries[t, k] = complex(float(re), float(im))
    except (TypeError, ValueError):
        raise ValueError("field 'columns' must hold [re, im] number "
                         "pairs") from None
    return FrameMatrix(entries, field)


def frame_to_csv(phi: FrameMatrix) -> str:
    lines = []
    for t in range(phi.n):
        lines.append(",".join(_token(z) for z in phi.entries[t]))
    return "\n".join(lines) + "\n"


def frame_from_csv(text: str) -> FrameMatrix:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([complex(tok.strip()) for tok in line.split(",")])
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("CSV rows are empty or have unequal lengths")
    return FrameMatrix.from_array(np.array(rows, dtype=np.complex128))


def vector_to_json_obj(vec) -> dict:
    vec = np.asarray(vec, dtype=np.complex128)
    return {"n": int(vec.shape[0]), "entries": _pairs(vec)}


def vector_from_json_obj(obj) -> np.ndarray:
    n = _required(obj, "n", int, "an integer")
    entries = _required(obj, "entries", list, "a list of [re, im] pairs")
    if n != len(entries):
        raise ValueError("entry count does not match the declared length")
    try:
        return np.array([complex(float(re), float(im)) for re, im in entries],
                        dtype=np.complex128)
    except (TypeError, ValueError):
        raise ValueError("field 'entries' must hold [re, im] number "
                         "pairs") from None


def vector_to_csv(vec) -> str:
    vec = np.asarray(vec, dtype=np.complex128)
    return ",".join(_token(z) for z in vec) + "\n"


def vector_from_csv(text: str) -> np.ndarray:
    line = text.strip()
    if not line:
        raise ValueError("empty vector text")
    return np.array([complex(tok.strip()) for tok in line.split(",")],
                    dtype=np.complex128)


def _format_of(path: str, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("json", "csv"):
            raise ValueError("format must be 'json' or 'csv'")
        return fmt
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        return "json"
    if ext == ".csv":
        return "csv"
    raise ValueError("cannot infer format from %r; pass fmt" % path)


def write_frame(phi: FrameMatrix, path: str, fmt: str | None = None):
    kind = _format_of(path, fmt)
    text = dumps(frame_to_json_obj(phi)) + "\n" if kind == "json" else frame_to_csv(phi)
    with open(path, "w") as handle:
        handle.write(text)


def read_frame(path: str, fmt: str | None = None) -> FrameMatrix:
    kind = _format_of(path, fmt)
    with open(path) as handle:
        text = handle.read()
    if kind == "json":
        return frame_from_json_obj(json.loads(text))
    return frame_from_csv(text)


def write_vector(vec, path: str, fmt: str | None = None):
    kind = _format_of(path, fmt)
    text = dumps(vector_to_json_obj(vec)) + "\n" if kind == "json" else vector_to_csv(vec)
    with open(path, "w") as handle:
        handle.write(text)


def read_vector(path: str, fmt: str | None = None) -> np.ndarray:
    kind = _format_of(path, fmt)
    with open(path) as handle:
        text = handle.read()
    if kind == "json":
        return vector_from_json_obj(json.loads(text))
    return vector_from_csv(text)
