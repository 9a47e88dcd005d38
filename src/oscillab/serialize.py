"""Deterministic on-disk formats.

Grid samples go to a raw little-endian float64 ``.bin`` (row-major) next to a
JSON sidecar describing the geometry.  The binary stream is kept free of IEEE
infinities: +inf is stored as a quiet NaN with the reserved payload below and
restored bit-exactly on load.  Limit curves go to CSV.  All
writers sort keys, use repr-style shortest floats, and never emit timestamps,
so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .errors import ConfigError
from .family import LimitCurve
from .grid import Grid, GridFunction

__all__ = [
    "GRIDFN_FORMAT",
    "INF_PAYLOAD",
    "save_grid_function",
    "load_grid_function",
    "save_samples",
    "load_samples",
    "save_curves_csv",
    "save_json",
    "canonical_json",
    "config_hash",
]

GRIDFN_FORMAT = "oscillab-gridfn-v1"

# Quiet NaN with payload 'INFI'; stands in for +inf inside the .bin stream.
INF_PAYLOAD = np.uint64(0x7FF8_0000_494E_4649)

_PathLike = Union[str, Path]


def _encode_inf(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype="<f8").copy()
    mask = np.isposinf(out)
    if mask.any():
        bits = out.view(np.uint64)
        bits[mask] = INF_PAYLOAD
    if np.isneginf(out).any():
        raise ConfigError("-inf is not representable in the sample format")
    return out


def _decode_inf(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    bits = out.view(np.uint64)
    mask = bits == INF_PAYLOAD
    if mask.any():
        out[mask] = np.inf
    return out


def canonical_json(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False) + "\n"


def _sanitize(obj):
    """Make an object JSON-safe: numpy scalars to python, non-finite to null/str."""
    if isinstance(obj, Mapping):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def save_json(path: _PathLike, obj) -> Path:
    p = Path(path)
    p.write_text(canonical_json(obj), encoding="utf-8")
    return p


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _bin_path(json_path: Path) -> Path:
    return json_path.with_suffix(".bin")


def save_samples(path: _PathLike, values: np.ndarray, meta: Optional[Mapping] = None) -> Path:
    """Write an array (+ JSON header) in the grid-sample format."""
    p = Path(path)
    if p.suffix != ".json":
        raise ConfigError("sample header path must end in .json")
    data = _encode_inf(np.asarray(values, dtype=np.float64))
    header = {
        "format": GRIDFN_FORMAT,
        "dtype": "<f8",
        "order": "C",
        "shape": list(data.shape),
        "inf_nan_payload": f"0x{int(INF_PAYLOAD):016x}",
    }
    if meta:
        for k, v in meta.items():
            if k in header:
                raise ConfigError(f"meta key {k!r} collides with a header field")
            header[k] = _sanitize(v)
    _bin_path(p).write_bytes(data.tobytes(order="C"))
    p.write_text(canonical_json(header), encoding="utf-8")
    return p


def load_samples(path: _PathLike) -> tuple[np.ndarray, dict]:
    p = Path(path)
    header = json.loads(p.read_text(encoding="utf-8"))
    if header.get("format") != GRIDFN_FORMAT:
        raise ConfigError(f"unsupported sample format {header.get('format')!r}")
    raw = np.frombuffer(_bin_path(p).read_bytes(), dtype="<f8")
    shape = tuple(int(s) for s in header["shape"])
    if raw.size != int(np.prod(shape)):
        raise ConfigError("sample payload size does not match the header shape")
    values = _decode_inf(raw.reshape(shape).copy())
    return values, header


def save_grid_function(path: _PathLike, f: GridFunction) -> Path:
    meta = {
        "kind": "grid-function",
        "n": f.grid.n,
        "halfwidth": f.grid.halfwidth,
        "spacing": f.grid.spacing,
        "axis_count": f.grid.axis_count,
    }
    return save_samples(path, f.values, meta)


def load_grid_function(path: _PathLike) -> GridFunction:
    values, header = load_samples(path)
    if int(header["n"]) != 1:
        raise ConfigError(f"stored grid has dimension {header['n']}; only one-dimensional grids load")
    grid = Grid(halfwidth=float(header["halfwidth"]), spacing=float(header["spacing"]))
    if tuple(values.shape) != grid.shape:
        raise ConfigError("sample shape does not match the stored grid")
    return GridFunction(grid, values)


def save_curves_csv(path: _PathLike, curves: Iterable[LimitCurve]) -> Path:
    p = Path(path)
    with p.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["mode", "a", "value", "count", "present"])
        for curve in curves:
            for a, v, c in zip(curve.ladder, curve.values, curve.counts):
                present = int(c) > 0
                w.writerow([curve.mode, repr(float(a)), repr(float(v)) if present else "nan", int(c), int(present)])
    return p
