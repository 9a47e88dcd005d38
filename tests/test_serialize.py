import json
import math

import numpy as np
import pytest

from oscillab.errors import ConfigError
from oscillab.family import LimitCurve
from oscillab.grid import Grid, GridFunction
from oscillab.serialize import (
    canonical_json,
    config_hash,
    load_grid_function,
    load_samples,
    save_curves_csv,
    save_grid_function,
    save_json,
    save_samples,
)


def test_canonical_json_is_sorted_and_sanitized():
    s = canonical_json({"b": np.float64(1.5), "a": np.int64(2), "c": math.nan, "d": math.inf})
    doc = json.loads(s)
    assert list(doc) == ["a", "b", "c", "d"]
    assert doc == {"a": 2, "b": 1.5, "c": None, "d": "inf"}
    assert s.endswith("\n")


def test_config_hash_ignores_key_order():
    a = {"x": 1, "y": [1, 2, 3]}
    b = {"y": [1, 2, 3], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "y": [1, 2, 3]})


def test_samples_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(33,))
    vals[3] = np.inf  # +inf survives via the reserved payload
    p = save_samples(tmp_path / "a.json", vals, meta={"note": "x"})
    back, header = load_samples(p)
    assert np.array_equal(back, vals)
    assert header["note"] == "x"
    assert header["shape"] == [33]


def test_samples_reject_negative_inf(tmp_path):
    vals = np.array([1.0, -np.inf])
    with pytest.raises(ConfigError):
        save_samples(tmp_path / "a.json", vals)


def test_samples_path_and_meta_validation(tmp_path):
    with pytest.raises(ConfigError):
        save_samples(tmp_path / "a.bin", np.zeros(3))
    with pytest.raises(ConfigError):
        save_samples(tmp_path / "a.json", np.zeros(3), meta={"shape": [1]})


def test_samples_payload_size_check(tmp_path):
    p = save_samples(tmp_path / "a.json", np.zeros(8))
    (tmp_path / "a.bin").write_bytes(b"\x00" * 16)  # truncate to 2 values
    with pytest.raises(ConfigError):
        load_samples(p)


def test_grid_function_roundtrip(tmp_path):
    g = Grid(halfwidth=4.0, spacing=0.25)
    f = GridFunction.from_callable(g, lambda x: np.tanh(x))
    p = save_grid_function(tmp_path / "f.json", f)
    back = load_grid_function(p)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_grid_function_header_must_be_one_dimensional(tmp_path):
    g = Grid(halfwidth=4.0, spacing=0.25)
    p = save_grid_function(tmp_path / "f.json", GridFunction.constant(g, 1.0))
    header = json.loads(p.read_text())
    assert header["n"] == 1
    header["n"] = 2
    p.write_text(json.dumps(header))
    with pytest.raises(ConfigError):
        load_grid_function(p)


def test_writes_are_byte_identical(tmp_path):
    g = Grid(halfwidth=4.0, spacing=0.25)
    f = GridFunction.from_callable(g, lambda x: np.sin(x))
    p1 = save_grid_function(tmp_path / "one.json", f)
    p2 = save_grid_function(tmp_path / "two.json", f)
    assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()
    assert p1.read_text() == p2.read_text()
    q1 = save_json(tmp_path / "c1.json", {"b": 2, "a": [1.5, None]})
    q2 = save_json(tmp_path / "c2.json", {"a": [1.5, None], "b": 2})
    assert q1.read_text() == q2.read_text()


def test_curves_csv_marks_absent_buckets(tmp_path):
    curve = LimitCurve(
        "small-radius",
        np.array([1.0, 2.0, 4.0]),
        np.array([0.5, np.nan, 2.0]),
        np.array([3, 0, 1]),
    )
    p = save_curves_csv(tmp_path / "c.csv", [curve])
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "mode,a,value,count,present"
    assert lines[2] == "small-radius,2.0,nan,0,0"
    assert lines[3] == "small-radius,4.0,2.0,1,1"

