import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from oscillab.errors import ConfigError
from oscillab.family import LimitCurve
from oscillab.grid import Grid, GridFunction
from oscillab.serialize import canonical_json, config_hash, save_curves_csv, save_grid_function, save_json
from oracles import read_grid_function

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


@pytest.mark.parametrize(
    "config",
    [json.loads(p.read_text(encoding="utf-8")) for p in sorted(CONFIGS.glob("*.json"))]
    + [{"id": "Schrödinger ρ", "note": "Δu = Vu, t ≥ 2⁻⁸ 🌊", "Ω": ["–", "∞"]}],
)
def test_config_hash_is_hashlib_sha256_of_the_canonical_json(config):
    # the built-in sha256 gives hashlib's digest: every shipped config and
    # one with non-ASCII strings
    assert config_hash(config) == hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def test_samples_roundtrip_bit_exact(tmp_path):
    g = Grid(halfwidth=4.0, spacing=0.25)
    vals = np.random.default_rng(0).normal(size=g.shape)
    vals[:4] = [-0.0, 5e-324, -np.finfo(float).max, np.finfo(float).tiny]
    p = save_grid_function(tmp_path / "a.json", GridFunction(g, vals))
    back = read_grid_function(p)
    assert np.array_equal(back.values.view(np.uint64), vals.view(np.uint64))
    assert json.loads(p.read_text())["shape"] == [33]


def test_samples_reject_negative_inf(tmp_path):
    # a GridFunction, the writer's only input, refuses infinities of both
    # signs, so the .bin stream needs no code for them and nothing is written
    g = Grid(halfwidth=0.5, spacing=0.5)
    for bad in (-np.inf, np.inf):
        with pytest.raises(ConfigError):
            save_grid_function(tmp_path / "a.json", GridFunction(g, np.array([1.0, bad, 0.0])))
    assert not any(tmp_path.iterdir())


def test_grid_function_roundtrip(tmp_path):
    g = Grid(halfwidth=4.0, spacing=0.25)
    f = GridFunction.from_callable(g, lambda x: np.tanh(x))
    p = save_grid_function(tmp_path / "f.json", f)
    back = read_grid_function(p)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_grid_function_file_bytes_are_pinned(tmp_path):
    # the header text and the .bin bytes of a five-sample function, as
    # averaged.json and averaged.bin have always been written
    g = Grid(halfwidth=1.0, spacing=0.5)
    p = save_grid_function(tmp_path / "f.json", GridFunction(g, np.array([-1.5, 0.0, 0.25, 2.0, -0.0])))
    assert p.read_text() == (
        '{\n "axis_count": 5,\n "dtype": "<f8",\n "format": "oscillab-gridfn-v1",\n "halfwidth": 1.0,\n'
        ' "inf_nan_payload": "0x7ff80000494e4649",\n "kind": "grid-function",\n "n": 1,\n "order": "C",\n'
        ' "shape": [\n  5\n ],\n "spacing": 0.5\n}\n'
    )
    assert (tmp_path / "f.bin").read_bytes() == bytes.fromhex(
        "000000000000f8bf" "0000000000000000" "000000000000d03f" "0000000000000040" "0000000000000080"
    )


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

