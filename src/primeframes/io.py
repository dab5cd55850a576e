"""Reading and writing frames and signals as JSON or CSV text.

Floats are written with 17 significant digits, enough to reproduce
every IEEE double bit-exactly on read-back.  The JSON frame format is

    {"n": 2, "m": 3, "field": "real", "columns": [[[re, im], ...], ...]}

with one inner list of [re, im] pairs per column.  The CSV format has
one matrix row per line of comma-separated "re+imj" tokens.  Vectors
use {"n": len, "entries": [[re, im], ...]} and a single CSV line.

The writers format each distinct float once (``_texts``), and the CSV
readers parse each distinct token once when a sample of the tokens
repeats (``_complexes``); the text and the values are those of
``format(x, ".17g")`` and ``complex()`` per number.  The JSON readers
convert lists of [re, im] int or float pairs in one flat pass and refuse
anything else.  A -0.0 is written "-0", and the JSON readers keep its
sign.  The readers raise ``ValueError``, naming the field where there is
one, on malformed text, non-finite entries, integers beyond the float
range and JSON nested too deep to parse.

A file's extension, .json or .csv in any case, names its form:
``form_of`` is the one lookup, and refuses any other extension before a
file is opened.  Files are written as UTF-8 and read as UTF-8 with or
without a byte-order mark, whatever the locale.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain

import numpy as np

from .frames import FrameMatrix


def _texts(values, spec: str) -> np.ndarray:
    """``spec % x`` for each float x of ``values`` in C order, as a flat
    object array.  Each distinct bit pattern is formatted once: the
    17-digit format calls are most of a write's cost, and a harmonic
    frame repeats its entries (740 distinct floats among the 16,384 of
    ``htf(16, 512)``)."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(values).all():
        raise ValueError("cannot serialize a non-finite number")
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([spec % x for x in bits.view(np.float64).tolist()],
                     dtype=object)
    return texts[inverse.ravel()]


def _json_array(arr: np.ndarray) -> str:
    """The float array ``arr`` as nested JSON lists, in one format pass
    over a template built from its shape."""
    template = "%s"
    for size in reversed(arr.shape):
        template = "[" + ", ".join([template] * size) + "]"
    return template % tuple(_texts(arr, "%.17g").tolist())


def _csv_text(entries: np.ndarray) -> str:
    """One line of comma-separated "re+imj" tokens per row of the 2-d
    complex ``entries``."""
    n, m = entries.shape
    tokens = np.empty((n * m, 2), dtype=object)
    tokens[:, 0] = _texts(entries.real, "%.17g")
    tokens[:, 1] = _texts(entries.imag, "%+.17g")
    row = ",".join(["%s%sj"] * m)
    return ("\n".join([row] * n) + "\n") % tuple(tokens.ravel().tolist())


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits; a real float
    ``ndarray`` is written as nested lists."""
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return "null" if obj is None else ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError("cannot serialize a non-finite number")
        return "%.17g" % obj
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        return _json_array(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(dumps, obj)) + "]"
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be strings")
        return "{" + ", ".join(json.dumps(key) + ": " + dumps(val)
                               for key, val in obj.items()) + "}"
    raise TypeError("cannot serialize %r" % type(obj))


# json reads "-0", the text of a -0.0, as the integer 0; this decoder
# keeps the sign.
_SIGNED_ZERO_JSON = json.JSONDecoder(
    parse_int=lambda token: -0.0 if token == "-0" else int(token))


def _loads(text: str):
    try:
        return _SIGNED_ZERO_JSON.decode(text)
    except RecursionError:
        raise ValueError("JSON nesting is too deep") from None


def _frame_floats(phi: FrameMatrix) -> np.ndarray:
    """The columns as an (m, n, 2) array of [re, im] pairs."""
    return np.ascontiguousarray(phi.entries.T).view(np.float64).reshape(
        phi.m, phi.n, 2)


def _frame_obj(phi: FrameMatrix, columns) -> dict:
    return {"n": phi.n, "m": phi.m, "field": phi.field, "columns": columns}


def frame_to_json_obj(phi: FrameMatrix) -> dict:
    return _frame_obj(phi, _frame_floats(phi).tolist())


def frame_to_json(phi: FrameMatrix) -> str:
    """The JSON text of ``frame_to_json_obj``, newline-terminated."""
    return dumps(_frame_obj(phi, _frame_floats(phi))) + "\n"


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


def _pair_array(rows, shape: tuple, key: str) -> np.ndarray:
    """Nested JSON lists ``rows`` as a finite float array of ``shape``,
    whose last axis holds [re, im]; raises ValueError naming ``key``.

    Rows and pairs must be lists or tuples and each pair two ints or
    floats, not bools; they are flattened and converted in one pass.
    Anything else is refused unconverted."""
    pairs = rows if len(shape) == 2 else list(chain.from_iterable(rows))
    items = None
    if ((set(map(type, rows)) | set(map(type, pairs))) <= {list, tuple}
            and set(map(len, pairs)) == {2}):
        items = list(chain.from_iterable(pairs))
    if items is None or not set(map(type, items)) <= {int, float}:
        raise ValueError("field %r must hold [re, im] number pairs" % key)
    try:
        arr = np.array(items, dtype=np.float64)
    except OverflowError:
        raise ValueError("field %r holds a number beyond the float "
                         "range" % key) from None
    if not np.isfinite(arr).all():
        raise ValueError("field %r must hold finite numbers" % key)
    return arr.reshape(shape)


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
    if n < 1 or m < 1:
        raise ValueError("fields 'n' and 'm' must be at least 1")
    pairs = _pair_array(columns, (m, n, 2), "columns")
    return FrameMatrix(pairs.view(np.complex128)[..., 0].T, field)


def frame_to_csv(phi: FrameMatrix) -> str:
    return _csv_text(phi.entries)


def _complexes(tokens: list) -> np.ndarray:
    """``complex(tok.strip())`` of each token, in order, as a complex128
    array; the first malformed token raises complex()'s ValueError.

    When at most 3/4 of a sample of every fourth token are distinct,
    each distinct token is parsed once, in order of first appearance, and
    the values are mapped back.  Otherwise each token is parsed in turn,
    which is cheaper when few tokens repeat."""
    sample = tokens[::4]
    if 4 * len(set(sample)) > 3 * len(sample):
        values = map(complex, map(str.strip, tokens))
    else:
        value = {tok: complex(tok.strip()) for tok in dict.fromkeys(tokens)}
        values = map(value.__getitem__, tokens)
    return np.fromiter(values, np.complex128, len(tokens))


def frame_from_csv(text: str) -> FrameMatrix:
    rows = [line.split(",") for line in map(str.strip, text.splitlines())
            if line]
    entries = _complexes(list(chain.from_iterable(rows)))
    if not rows or len(set(map(len, rows))) != 1:
        raise ValueError("CSV rows are empty or have unequal lengths")
    return FrameMatrix.from_array(entries.reshape(len(rows), -1))


def _vector_floats(vec) -> np.ndarray:
    """The entries as an (n, 2) array of [re, im] pairs."""
    vec = np.asarray(vec, dtype=np.complex128)
    if vec.ndim != 1:
        raise ValueError("a vector must be 1-d")
    return np.ascontiguousarray(vec).view(np.float64).reshape(-1, 2)


def vector_to_json_obj(vec) -> dict:
    pairs = _vector_floats(vec)
    return {"n": len(pairs), "entries": pairs.tolist()}


def vector_to_json(vec) -> str:
    """The JSON text of ``vector_to_json_obj``, newline-terminated."""
    pairs = _vector_floats(vec)
    return dumps({"n": len(pairs), "entries": pairs}) + "\n"


def vector_from_json_obj(obj) -> np.ndarray:
    n = _required(obj, "n", int, "an integer")
    entries = _required(obj, "entries", list, "a list of [re, im] pairs")
    if n != len(entries):
        raise ValueError("entry count does not match the declared length")
    if not entries:
        return np.empty(0, dtype=np.complex128)
    return _pair_array(entries, (n, 2), "entries").view(np.complex128)[:, 0]


def vector_to_csv(vec) -> str:
    return _csv_text(_vector_floats(vec).view(np.complex128).reshape(1, -1))


def vector_from_csv(text: str) -> np.ndarray:
    """One line of "re+imj" tokens; one empty line is the empty vector."""
    if text == "\n":
        return np.empty(0, dtype=np.complex128)
    line = text.strip()
    if not line:
        raise ValueError("empty vector text")
    vec = _complexes(line.split(","))
    if not np.isfinite(vec).all():
        raise ValueError("vector entries must be finite (no NaN or inf)")
    return vec


_FORMS = {".json": "json", ".csv": "csv"}


def form_of(path: str) -> str:
    """The form, "json" or "csv", that ``path``'s extension names, in
    any case."""
    form = _FORMS.get(os.path.splitext(path)[1].lower())
    if form is None:
        raise ValueError("cannot infer format from %r: expected a .json or "
                         ".csv extension" % path)
    return form


def write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _read_text(path: str) -> str:
    """The file's text; a UTF-8 byte-order mark is dropped."""
    with open(path, encoding="utf-8-sig") as handle:
        return handle.read()


# each form's text of a frame or vector, and its reader
FRAME_WRITERS = {"json": frame_to_json, "csv": frame_to_csv}
VECTOR_WRITERS = {"json": vector_to_json, "csv": vector_to_csv}
_FRAME_READERS = {"json": lambda text: frame_from_json_obj(_loads(text)),
                  "csv": frame_from_csv}
_VECTOR_READERS = {"json": lambda text: vector_from_json_obj(_loads(text)),
                   "csv": vector_from_csv}


def write_frame(phi: FrameMatrix, path: str):
    write_text(path, FRAME_WRITERS[form_of(path)](phi))


def read_frame(path: str) -> FrameMatrix:
    return _FRAME_READERS[form_of(path)](_read_text(path))


def write_vector(vec, path: str):
    write_text(path, VECTOR_WRITERS[form_of(path)](vec))


def read_vector(path: str) -> np.ndarray:
    return _VECTOR_READERS[form_of(path)](_read_text(path))
