import json
import math
import os

import numpy as np
import pytest

from conftest import DATA_DIR
from primeframes import (FrameMatrix, HtfParams, check_equiangular,
                         check_tight, htf, is_prime_bruteforce,
                         random_tight_frame, stf, welch_bound)
from primeframes.io import (dumps, frame_from_csv, frame_from_json_obj,
                            frame_to_csv, frame_to_json_obj, read_frame,
                            read_vector, vector_from_csv, vector_from_json_obj,
                            vector_to_csv, vector_to_json_obj, write_frame,
                            write_vector)


def test_dumps_formats_floats_at_17_digits():
    assert dumps({"x": 1 / 3}) == '{"x": 0.33333333333333331}'
    assert dumps([1.0, 2, True, False, None]) == "[1, 2, true, false, null]"
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
    ]
    for obj, field in cases:
        with pytest.raises(ValueError, match=field):
            frame_from_json_obj(obj)


def test_vector_json_obj_schema_errors_name_the_field():
    cases = [
        ({"entries": [[1, 0]]}, "'n'"),
        ([[1, 0]], "JSON object"),
        ({"n": 1}, "'entries'"),
        ({"n": 1.5, "entries": [[1, 0]]}, "'n'"),
        ({"n": 1, "entries": "ab"}, "'entries'"),
        ({"n": 1, "entries": [3]}, "'entries'"),
        ({"n": 1, "entries": [[1, {}]]}, "'entries'"),
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


def test_file_io_explicit_format_override(tmp_path):
    phi = htf(HtfParams(2, 4))
    path = os.path.join(tmp_path, "frame.dat")
    write_frame(phi, path, fmt="csv")
    assert np.array_equal(read_frame(path, fmt="csv").entries, phi.entries)
    with pytest.raises(ValueError):
        write_frame(phi, path, fmt="yaml")


def test_vector_file_io(tmp_path):
    vec = np.array([0.5 + 0.25j, -2.0 + 0j])
    for name in ("v.json", "v.csv"):
        path = os.path.join(tmp_path, name)
        write_vector(vec, path)
        assert np.array_equal(read_vector(path), vec)


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
