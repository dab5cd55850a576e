import json
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import DATA_DIR
from primeframes import (FrameMatrix, HtfParams, check_equiangular,
                         check_tight, htf, is_prime_bruteforce,
                         random_tight_frame, stf, welch_bound)
from primeframes.io import (_complexes, _pair_array, dumps, frame_from_csv,
                            frame_from_json_obj, frame_to_csv, frame_to_json,
                            frame_to_json_obj, read_frame, read_vector,
                            vector_from_csv, vector_from_json_obj,
                            vector_to_csv, vector_to_json, vector_to_json_obj,
                            write_frame, write_vector)


# The per-number writer that the one-pass writers replaced, kept as the
# oracle for their text: one format(x, ".17g") per float, with the sign
# of each imaginary part taken by copysign.

def oracle_fmt17(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize a non-finite number")
    return format(x, ".17g")


def oracle_dumps(o) -> str:
    if isinstance(o, bool) or o is None:
        return "null" if o is None else ("true" if o else "false")
    if isinstance(o, int):
        return str(o)
    if isinstance(o, float):
        return oracle_fmt17(o)
    if isinstance(o, str):
        return json.dumps(o)
    if isinstance(o, list):
        return "[" + ", ".join(oracle_dumps(item) for item in o) + "]"
    return "{" + ", ".join(json.dumps(k) + ": " + oracle_dumps(v)
                           for k, v in o.items()) + "}"


def oracle_pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def oracle_token(z: complex) -> str:
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return "%s%s%sj" % (oracle_fmt17(z.real), sign, oracle_fmt17(abs(z.imag)))


def oracle_frame_json(phi) -> str:
    obj = {"n": phi.n, "m": phi.m, "field": phi.field,
           "columns": [oracle_pairs(phi.entries[:, k]) for k in range(phi.m)]}
    return oracle_dumps(obj) + "\n"


def oracle_frame_csv(phi) -> str:
    return "\n".join(",".join(oracle_token(z) for z in row)
                     for row in phi.entries) + "\n"


def oracle_vector_json(vec) -> str:
    return oracle_dumps({"n": len(vec), "entries": oracle_pairs(vec)}) + "\n"


def oracle_vector_csv(vec) -> str:
    return ",".join(oracle_token(z) for z in vec) + "\n"


# The per-token readers that the bulk readers replaced, kept as the
# oracle for their values and refusals: one complex() per CSV token, and
# a walk of the JSON pairs' shape and leaf types, then numpy's nested
# conversion.

def oracle_frame_from_csv(text: str) -> FrameMatrix:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([complex(tok.strip()) for tok in line.split(",")])
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("CSV rows are empty or have unequal lengths")
    return FrameMatrix.from_array(np.array(rows, dtype=np.complex128))


def oracle_vector_from_csv(text: str) -> np.ndarray:
    if text == "\n":
        return np.empty(0, dtype=np.complex128)
    line = text.strip()
    if not line:
        raise ValueError("empty vector text")
    vec = np.array([complex(tok.strip()) for tok in line.split(",")],
                   dtype=np.complex128)
    if not np.isfinite(vec).all():
        raise ValueError("vector entries must be finite (no NaN or inf)")
    return vec


def oracle_pair_array(rows, shape: tuple, key: str) -> np.ndarray:
    def well_formed(item, dims) -> bool:
        if not dims:
            return type(item) in (int, float)
        return (type(item) in (list, tuple) and len(item) == dims[0]
                and all(well_formed(x, dims[1:]) for x in item))

    if not well_formed(rows, shape):
        raise ValueError("field %r must hold [re, im] number pairs" % key)
    try:
        arr = np.array(rows, dtype=np.float64)
    except OverflowError:
        raise ValueError("field %r holds a number beyond the float "
                         "range" % key) from None
    if not np.isfinite(arr).all():
        raise ValueError("field %r must hold finite numbers" % key)
    return arr


def outcome(read, *args):
    """What a reader returns, as comparable bytes, or its refusal."""
    try:
        got = read(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(got, FrameMatrix):
        return got.field, got.entries.shape, got.entries.tobytes()
    return got.dtype, got.shape, got.tobytes()


# every finite double, with the edges drawn often: signed zeros, the
# smallest subnormal and normal, and the largest magnitude
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308)
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))
finite_complex = st.builds(complex, finite_floats, finite_floats)


@st.composite
def frames(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    if draw(st.booleans()):
        entries = draw(st.lists(finite_complex, min_size=n * m,
                                max_size=n * m))
    else:
        # real frames: imaginary parts are zeros of either sign
        entries = [complex(x, draw(st.sampled_from((0.0, -0.0))))
                   for x in draw(st.lists(finite_floats, min_size=n * m,
                                          max_size=n * m))]
    return FrameMatrix.from_array(np.array(entries).reshape(n, m))


vectors = st.lists(finite_complex, max_size=8).map(
    lambda v: np.array(v, dtype=np.complex128))

# CSV tokens: numbers and complex forms that complex() reads, whitespace
# that str.strip removes but complex() alone does not (\x1f), and, in
# half the grids, malformed, non-finite and ragged input
NUMBERS = ("0", "-0", "+0", "1", "-1.5", ".5", "0.25", "1e-300", "5e-324",
           "1_000", "1_0.2_5", "0.33333333333333331")
BAD_NUMBERS = ("1__0", "_1", "1_", "x", "", "1e", "--1", "0x1", "1e400",
               "nan", "-nan", "inf", "-inf", "Infinity")
CORES = ("{re}", "{re}j", "{re}J", "{re}+{im}j", "{re}-{im}J", "{im}j", "j",
         "-J")
BAD_CORES = ("{re} + {im}j", "{re}+{im}j+1", "({re}")
WRAPS = ("%s", "%s", "(%s)", "( %s )")
SPACES = ("", "", " ", "\t", "\xa0", "\u2003", "\u3000", "\x1f", "\x0b",
          "\x85")


@st.composite
def csv_tokens(draw, bad):
    numbers = st.sampled_from(NUMBERS + (BAD_NUMBERS if bad else ()))
    re, im = draw(numbers), draw(numbers).lstrip("+-")
    core = draw(st.sampled_from(CORES + (BAD_CORES if bad else ())))
    return (draw(st.sampled_from(SPACES))
            + draw(st.sampled_from(WRAPS)) % core.format(re=re, im=im)
            + draw(st.sampled_from(SPACES)))


@st.composite
def csv_texts(draw):
    """Token grids from a small pool, so tokens repeat, with blank lines."""
    bad = draw(st.booleans())
    pool = draw(st.lists(csv_tokens(bad), min_size=1, max_size=6))
    width = draw(st.integers(1, 8))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(SPACES)))
        size = width + (draw(st.sampled_from((0, 0, 0, 1, -1))) if bad else 0)
        lines.append(",".join(draw(st.lists(st.sampled_from(pool),
                                            min_size=size, max_size=size))))
    sep = draw(st.sampled_from(("\n", "\r\n", "\n\n", "\u2028")))
    return sep.join(lines) + draw(st.sampled_from(("", "\n")))


# JSON [re, im] data as a file reads: number pairs with, now and then, a
# pair of another length, a nested pair, a tuple, or a string, boolean,
# null, non-finite or out-of-range leaf
ODD_LEAVES = ("1", "", "ab", True, False, None, math.nan, -math.inf,
              10 ** 400, -10 ** 400, 2 ** 64 + 1, [], {})
numbers = st.one_of(finite_floats, st.integers(-2 ** 70, 2 ** 70))
number_pairs = st.lists(numbers, min_size=2, max_size=2)
odd_pairs = st.one_of(
    st.lists(st.one_of(numbers, st.sampled_from(ODD_LEAVES)),
             min_size=0, max_size=3),
    st.tuples(numbers, numbers),
    st.lists(number_pairs, min_size=2, max_size=2),
    st.sampled_from(ODD_LEAVES))


@st.composite
def pair_grids(draw):
    """(rows, shape) for a vector's entries or a frame's columns."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def pair():
        return draw(odd_pairs if draw(st.integers(0, 5)) == 0
                    else number_pairs)

    if draw(st.booleans()):
        return [pair() for _ in range(n)], (n, 2)
    columns = [[pair() for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        columns[0] = tuple(columns[0])
    return columns, (m, n, 2)


def test_dumps_formats_floats_at_17_digits():
    assert dumps({"x": 1 / 3}) == '{"x": 0.33333333333333331}'
    assert dumps([1.0, 2, True, False, None]) == "[1, 2, true, false, null]"
    assert dumps([np.True_, np.False_]) == "[true, false]"
    assert dumps("a\"b") == '"a\\"b"'
    assert dumps({"k": [1e-300]}) == '{"k": [1e-300]}'
    assert dumps(1.5e-300) == "1.5000000000000001e-300"
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(TypeError):
        dumps({1: "x"})
    with pytest.raises(TypeError):
        dumps(object())


def test_dumps_output_is_valid_json():
    obj = {"a": [1.5, -2.25, [True, None]], "b": {"c": "text"}}
    assert json.loads(dumps(obj)) == obj


def test_frame_json_roundtrip_is_bit_exact():
    for phi in (htf(HtfParams(3, 7)), stf(4, 11), random_tight_frame(2, 6, 9)):
        back = frame_from_json_obj(frame_to_json_obj(phi))
        assert back.field == phi.field
        assert np.array_equal(back.entries, phi.entries)


def test_frame_csv_roundtrip_is_bit_exact():
    for phi in (htf(HtfParams(3, 7)), stf(4, 11), random_tight_frame(2, 6, 9)):
        back = frame_from_csv(frame_to_csv(phi))
        assert np.array_equal(back.entries, phi.entries)


def test_csv_tokens_preserve_tricky_values():
    raw = np.array([[1 / 3 + 0j, complex(1.0, -0.0)],
                    [complex(-1e-300, 2e17), complex(0.1, -0.1)]])
    phi = FrameMatrix.from_array(raw)
    text = frame_to_csv(phi)
    assert "0.33333333333333331+0j" in text
    assert "1-0j" in text
    back = frame_from_csv(text)
    assert np.array_equal(back.entries, phi.entries)


def test_vector_roundtrips():
    vec = np.array([1 / 3 + 2j, -5.0, complex(0.0, -0.75)])
    assert np.array_equal(vector_from_json_obj(vector_to_json_obj(vec)), vec)
    assert np.array_equal(vector_from_csv(vector_to_csv(vec)), vec)


def test_frame_json_obj_shape():
    obj = frame_to_json_obj(htf(HtfParams(2, 3)))
    assert obj["n"] == 2 and obj["m"] == 3 and obj["field"] == "complex"
    assert len(obj["columns"]) == 3
    assert all(len(col) == 2 and len(col[0]) == 2 for col in obj["columns"])


def test_frame_json_obj_validation():
    obj = frame_to_json_obj(htf(HtfParams(2, 3)))
    obj["m"] = 4
    with pytest.raises(ValueError):
        frame_from_json_obj(obj)
    obj = frame_to_json_obj(htf(HtfParams(2, 3)))
    obj["field"] = "real"
    with pytest.raises(ValueError):
        frame_from_json_obj(obj)
    obj = frame_to_json_obj(htf(HtfParams(2, 3)))
    obj["field"] = "integer"
    with pytest.raises(ValueError):
        frame_from_json_obj(obj)


def test_frame_json_obj_schema_errors_name_the_field():
    good = frame_to_json_obj(htf(HtfParams(2, 3)))
    cases = [
        ({"m": 2}, "'n'"),
        ([1, 2], "JSON object"),
        ("frame", "JSON object"),
        (dict(good, n="2"), "'n'"),
        (dict(good, m=None), "'m'"),
        (dict(good, n=True), "'n'"),
        ({k: v for k, v in good.items() if k != "field"}, "'field'"),
        (dict(good, field=1), "'field'"),
        (dict(good, columns={"a": 1}), "'columns'"),
        (dict(good, columns=[1, 2, 3]), "'columns'"),
        (dict(good, columns=[[[1, 0], 5]] * 3), "'columns'"),
        (dict(good, columns=[[[1, 0], [1, 2, 3]]] * 3), "'columns'"),
        (dict(good, columns=[[[1, 0], ["a", 0]]] * 3), "'columns'"),
        (dict(good, columns=[[[1, 0], [[1], 0]]] * 3), "'columns'"),
        ({"n": 1, "m": 1, "field": "real", "columns": [[["1", "0"]]]},
         "'columns' must hold"),
        ({"n": 1, "m": 1, "field": "real", "columns": [[[True, False]]]},
         "'columns' must hold"),
        (dict(good, columns=[[[1, 0], [0, False]]] * 3), "'columns' must hold"),
    ]
    for obj, field in cases:
        with pytest.raises(ValueError, match=field):
            frame_from_json_obj(obj)


def test_json_pair_refusals_keep_their_messages():
    pairs = "'columns' must hold"
    deep = [[[[1, 0], [0, 0]]]]
    cases = [
        ([[[1, 0], [1]]], pairs),                     # ragged pairs
        ([[[1, 0, 0], [1, 0, 0]]], pairs),            # pairs of 3
        ([[[1, 0], [1, 0, 0]]], pairs),
        (deep, pairs),                                # nested too deep
        ([[[[10 ** 400, 0], [0, 0]]]], pairs),        # too deep, then big
        ([[["1", None]]], pairs),                     # string and null
        ([[[None, "a"]]], pairs),
        ([[[True, 10 ** 400]]], pairs),               # bool, then a big int
        ([[[False, 0.5]]], pairs),
        ([["ab"]], pairs),                            # a string pair
        ([[{"a": 1, "b": 2}]], pairs),                # an object pair
        ([[[0.5, {}]]], pairs),
        ([[[1e308 * 10, 0]]], "'columns' must hold finite"),
    ]
    for columns, message in cases:
        obj = {"n": len(columns[0]), "m": len(columns), "field": "complex",
               "columns": columns}
        with pytest.raises(ValueError, match=message):
            frame_from_json_obj(obj)
        with pytest.raises(ValueError, match=message.replace("columns",
                                                             "entries")):
            vector_from_json_obj({"n": len(columns[0]),
                                  "entries": columns[0]})


def test_json_readers_take_tuples_as_lists():
    phi = htf(HtfParams(2, 3))
    obj = frame_to_json_obj(phi)
    obj["columns"] = [tuple(tuple(p) for p in col) for col in obj["columns"]]
    assert frame_from_json_obj(obj).entries.tobytes() == phi.entries.tobytes()


def test_vector_json_obj_schema_errors_name_the_field():
    cases = [
        ({"entries": [[1, 0]]}, "'n'"),
        ([[1, 0]], "JSON object"),
        ({"n": 1}, "'entries'"),
        ({"n": 1.5, "entries": [[1, 0]]}, "'n'"),
        ({"n": 1, "entries": "ab"}, "'entries'"),
        ({"n": 1, "entries": [3]}, "'entries'"),
        ({"n": 1, "entries": [[1, {}]]}, "'entries'"),
        ({"n": 1, "entries": [[False, True]]}, "'entries' must hold"),
        ({"n": 1, "entries": [["1", 0]]}, "'entries' must hold"),
    ]
    for obj, field in cases:
        with pytest.raises(ValueError, match=field):
            vector_from_json_obj(obj)


def test_frame_readers_reject_non_finite_entries():
    obj = frame_to_json_obj(htf(HtfParams(2, 3)))
    obj["columns"][1][0] = [float("inf"), 0.0]
    with pytest.raises(ValueError, match="finite"):
        frame_from_json_obj(obj)
    with pytest.raises(ValueError, match="finite"):
        frame_from_csv("1+0j,nan+0j\n0+0j,1+0j\n")


def test_frame_csv_validation():
    with pytest.raises(ValueError):
        frame_from_csv("")
    with pytest.raises(ValueError):
        frame_from_csv("1+0j,2+0j\n1+0j\n")
    with pytest.raises(ValueError):
        vector_from_csv("   ")


def test_vector_json_validation():
    obj = vector_to_json_obj(np.ones(3))
    obj["n"] = 2
    with pytest.raises(ValueError):
        vector_from_json_obj(obj)


@pytest.mark.parametrize("bad", [2.0, 1 + 1j, np.float64(3.0),
                                 np.array(4.0), np.ones((2, 2))])
def test_vector_writers_refuse_non_vectors(bad):
    for writer in (vector_to_json, vector_to_json_obj, vector_to_csv):
        with pytest.raises(ValueError, match="1-d"):
            writer(bad)


def test_file_io_infers_format_from_extension(tmp_path):
    phi = stf(2, 5)
    jpath = os.path.join(tmp_path, "frame.json")
    cpath = os.path.join(tmp_path, "frame.csv")
    write_frame(phi, jpath)
    write_frame(phi, cpath)
    assert np.array_equal(read_frame(jpath).entries, phi.entries)
    assert np.array_equal(read_frame(cpath).entries, phi.entries)
    with open(jpath) as handle:
        json.load(handle)
    with pytest.raises(ValueError):
        write_frame(phi, os.path.join(tmp_path, "frame.txt"))


def test_vector_file_io(tmp_path):
    vec = np.array([0.5 + 0.25j, -2.0 + 0j])
    for name in ("v.json", "v.csv"):
        path = os.path.join(tmp_path, name)
        write_vector(vec, path)
        assert np.array_equal(read_vector(path), vec)


BOM = "\ufeff"


@pytest.mark.parametrize("ext, text", [
    ("csv", frame_to_csv(stf(2, 5))),
    ("json", frame_to_json(stf(2, 5))),
], ids=["csv", "json"])
def test_frame_files_read_alike_with_a_byte_order_mark(tmp_path, ext, text):
    # an editor may save UTF-8 with a BOM; complex() and json refused it
    paths = [os.path.join(tmp_path, name + "." + ext) for name in ("a", "b")]
    for path, prefix in zip(paths, ("", BOM)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(prefix + text)
    plain, marked = map(read_frame, paths)
    assert np.array_equal(marked.entries, stf(2, 5).entries)
    assert marked.field == plain.field and np.array_equal(marked.entries,
                                                          plain.entries)


@pytest.mark.parametrize("ext, text", [
    ("json", vector_to_json(np.array([0.5 + 0.25j, -2.0]))),
    ("csv", vector_to_csv(np.array([0.5 + 0.25j, -2.0]))),
    ("csv", "\n"),
], ids=["json", "csv", "csv-empty"])
def test_vector_files_read_alike_with_a_byte_order_mark(tmp_path, ext, text):
    paths = [os.path.join(tmp_path, name + "." + ext) for name in ("a", "b")]
    for path, prefix in zip(paths, ("", BOM)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(prefix + text)
    plain, marked = map(read_vector, paths)
    assert marked.dtype == np.complex128 and np.array_equal(marked, plain)


def test_files_are_written_as_utf8_without_a_byte_order_mark(tmp_path):
    for name, write, value in (("f.json", write_frame, stf(2, 5)),
                               ("f.csv", write_frame, stf(2, 5)),
                               ("v.json", write_vector, np.ones(3)),
                               ("v.csv", write_vector, np.ones(3))):
        path = os.path.join(tmp_path, name)
        write(value, path)
        with open(path, "rb") as handle:
            raw = handle.read()
        assert not raw.startswith(BOM.encode()) and raw.decode("utf-8")


def test_bundled_etf_frame():
    phi = read_frame(os.path.join(DATA_DIR, "etf_3_6.json"))
    assert (phi.n, phi.m, phi.field) == (3, 6, "real")
    assert np.max(np.abs(phi.column_norms() - 1.0)) < 1e-12
    rep = check_tight(phi)
    assert rep.is_tight and abs(rep.bound - 2.0) < 1e-12
    angles = check_equiangular(phi)
    assert angles.is_unit_norm and angles.is_equiangular
    assert abs(angles.common_angle - welch_bound(3, 6)) < 1e-12
    assert abs(angles.common_angle - 1 / math.sqrt(5)) < 1e-12
    assert is_prime_bruteforce(phi)


@given(phi=frames())
def test_frame_text_equals_the_per_number_writer(tmp_path_factory, phi):
    assert frame_to_json(phi) == oracle_frame_json(phi)
    assert dumps(frame_to_json_obj(phi)) + "\n" == oracle_frame_json(phi)
    assert frame_to_csv(phi) == oracle_frame_csv(phi)
    folder = tmp_path_factory.mktemp("frames")
    for name in ("frame.json", "frame.csv"):
        path = os.path.join(folder, name)
        write_frame(phi, path)
        back = read_frame(path)
        assert back.field == phi.field
        assert back.entries.tobytes() == phi.entries.tobytes()


@given(vec=vectors)
def test_vector_text_equals_the_per_number_writer(tmp_path_factory, vec):
    assert vector_to_json(vec) == oracle_vector_json(vec)
    assert dumps(vector_to_json_obj(vec)) + "\n" == oracle_vector_json(vec)
    assert vector_to_csv(vec) == oracle_vector_csv(vec)
    folder = tmp_path_factory.mktemp("vectors")
    for name in ("v.json", "v.csv"):
        path = os.path.join(folder, name)
        write_vector(vec, path)
        assert read_vector(path).tobytes() == vec.tobytes()


def test_dumps_writes_float_arrays_as_nested_lists():
    arr = np.array([[1 / 3, -0.0], [5e-324, 2.0]])
    assert dumps({"a": arr}) == oracle_dumps({"a": arr.tolist()})
    assert dumps(np.zeros((2, 0))) == "[[], []]"
    assert dumps(np.array(0.5)) == "0.5"
    assert dumps(np.array([0.1], dtype=np.float32)) == oracle_dumps(
        [float(np.float32(0.1))])
    with pytest.raises(ValueError, match="non-finite"):
        dumps(np.array([1.0, np.inf]))
    with pytest.raises(TypeError):
        dumps(np.array([1, 2]))


def test_json_readers_keep_the_sign_of_zero(tmp_path):
    # a -0.0 is written "-0", which json alone reads as the integer 0
    zero = complex(-0.0, -0.0)
    phi = FrameMatrix(np.array([[zero, 1.0]]))
    path = os.path.join(tmp_path, "f.json")
    write_frame(phi, path)
    with open(path) as handle:
        assert "[[[-0, -0]], [[1, 0]]]" in handle.read()
    assert read_frame(path).entries.tobytes() == phi.entries.tobytes()
    path = os.path.join(tmp_path, "v.json")
    write_vector(np.array([zero, complex(-1.0, -0.0)]), path)
    assert np.signbit(read_vector(path).view(np.float64)).all()


def test_json_readers_reject_null_entries():
    good = frame_to_json_obj(htf(HtfParams(2, 3)))
    good["columns"][2][1] = [0.5, None]
    with pytest.raises(ValueError, match=r"'columns' must hold \[re, im\]"):
        frame_from_json_obj(good)
    with pytest.raises(ValueError, match=r"'entries' must hold \[re, im\]"):
        vector_from_json_obj({"n": 2, "entries": [[float("nan"), 0],
                                                  [None, 1]]})


def test_readers_reject_out_of_range_integers():
    big = 10 ** 400
    obj = {"n": 1, "m": 1, "field": "real", "columns": [[[big, 0]]]}
    with pytest.raises(ValueError, match="'columns'.*float range"):
        frame_from_json_obj(obj)
    with pytest.raises(ValueError, match="'entries'.*float range"):
        vector_from_json_obj({"n": 1, "entries": [[0, -big]]})


def test_readers_reject_over_deep_json(tmp_path):
    for name, read in (("f.json", read_frame), ("v.json", read_vector)):
        path = os.path.join(tmp_path, name)
        with open(path, "w") as handle:
            handle.write("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="nesting is too deep"):
            read(path)


def test_vector_readers_reject_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        vector_from_json_obj({"n": 2, "entries": [[1, 0], [float("nan"), 0]]})
    with pytest.raises(ValueError, match="finite"):
        vector_from_json_obj({"n": 1, "entries": [[0, float("-inf")]]})
    with pytest.raises(ValueError, match="finite"):
        vector_from_csv("1+0j,nan+0j\n")
    with pytest.raises(ValueError, match="finite"):
        vector_from_csv("1+infj\n")


def test_frame_json_needs_positive_sizes():
    for obj in ({"n": 0, "m": 1, "field": "real", "columns": [[]]},
                {"n": 1, "m": 0, "field": "real", "columns": []}):
        with pytest.raises(ValueError, match="at least 1"):
            frame_from_json_obj(obj)


@given(text=csv_texts())
def test_csv_readers_agree_with_the_per_token_reader(text):
    assert outcome(frame_from_csv, text) == outcome(oracle_frame_from_csv,
                                                    text)
    assert outcome(vector_from_csv, text) == outcome(oracle_vector_from_csv,
                                                     text)


@given(bad=st.booleans(), data=st.data())
def test_bulk_parse_agrees_with_complex_per_token(bad, data):
    # every token of a line, the first and last too, keeps its whitespace
    pool = data.draw(st.lists(csv_tokens(bad), min_size=1, max_size=8))
    tokens = data.draw(st.lists(st.sampled_from(pool), max_size=40))
    assert outcome(_complexes, tokens) == outcome(
        lambda toks: np.array([complex(t.strip()) for t in toks],
                              dtype=np.complex128), tokens)


@pytest.mark.parametrize("phi", [htf(HtfParams(16, 512)), stf(16, 512),
                                 random_tight_frame(16, 512, 0)],
                         ids=["htf", "stf", "random"])
def test_csv_reader_agrees_on_large_frames(phi):
    # the repeated entries of htf and stf take the parse-once path, the
    # random frame's distinct entries the per-token path
    text = frame_to_csv(phi)
    assert outcome(frame_from_csv, text) == outcome(oracle_frame_from_csv,
                                                    text)
    assert outcome(frame_from_csv, text)[2] == phi.entries.tobytes()


@given(grid=pair_grids())
def test_pair_array_agrees_with_the_nested_conversion(grid):
    rows, shape = grid
    assert (outcome(_pair_array, rows, shape, "k")
            == outcome(oracle_pair_array, rows, shape, "k"))
