"""Deterministic on-disk formats.

A grid function goes to a raw little-endian float64 ``.bin`` next to a
JSON header describing the geometry; its values are finite, so the stream
holds no IEEE infinity.  Limit curves and the scenarios' tables go to
CSV, all through save_rows_csv.  All writers sort keys,
use repr-style shortest floats, and never emit timestamps, so identical
inputs give byte-identical files.  The package writes these files and
never reads them back; the tests read them with tests/oracles.py.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Union

import numpy as np

from .family import LimitCurve
from .grid import GridFunction

# CPython's built-in sha256 (_sha2 on 3.12+, _sha256 on 3.10-3.11), the
# one hashlib falls back to: hashlib's OpenSSL backend, _hashlib, maps
# libcrypto, about 3.4 MB of resident memory for a 1 KB digest
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

GRIDFN_FORMAT = "oscillab-gridfn-v1"

# The quiet NaN with payload 'INFI' that the format reserves for +inf.  A
# GridFunction holds finite values only, so no stream written here uses
# it; the header names it so that a reader of the format knows the code.
INF_NAN_PAYLOAD = "0x7ff80000494e4649"

_PathLike = Union[str, Path]


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
    """The SHA-256 hex digest of obj's canonical JSON, UTF-8 encoded."""
    return sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def save_grid_function(path: _PathLike, f: GridFunction) -> Path:
    """Write f's samples as raw little-endian float64 to the .bin beside
    path, then the JSON header of its grid to path."""
    p = Path(path)
    g = f.grid
    header = {
        "format": GRIDFN_FORMAT,
        "dtype": "<f8",
        "order": "C",
        "shape": list(g.shape),
        "inf_nan_payload": INF_NAN_PAYLOAD,
        "kind": "grid-function",
        "n": g.n,
        "halfwidth": g.halfwidth,
        "spacing": g.spacing,
        "axis_count": g.size,
    }
    p.with_suffix(".bin").write_bytes(f.values.astype("<f8", copy=False).tobytes())
    p.write_text(canonical_json(header), encoding="utf-8")
    return p


def save_rows_csv(path: _PathLike, header: list[str], rows: Iterable[Iterable]) -> Path:
    """A header line, then one line per row, comma-separated, each line
    ended by a bare newline."""
    p = Path(path)
    with p.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return p


def save_curves_csv(path: _PathLike, curves: Iterable[LimitCurve]) -> Path:
    return save_rows_csv(path, ["mode", "a", "value", "count", "present"], (
        [curve.mode, repr(float(a)), repr(float(v)) if c > 0 else "nan", int(c), int(c > 0)]
        for curve in curves
        for a, v, c in zip(curve.ladder, curve.values, curve.counts)
    ))
