"""Deterministic CSV/JSON emission shared by the CLI.

Floats go to CSV with 17 significant digits and JSON uses the shortest
round-trip representation, so reruns with the same configuration and seed
produce byte-identical artifacts on the same platform.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["fmt_value", "sha256_file", "write_csv", "write_json"]


def fmt_value(x) -> str:
    if isinstance(x, float):  # np.float64 too: the common value takes one test
        return format(float(x), ".17g")
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> Path:
    """Write each row as it is formatted; ``rows`` may be a generator."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(fmt_value(v) for v in row) + "\n" for row in rows)
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        obj = float(obj)  # a non-finite one becomes null below
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):  # no JSON literal
        return None
    return obj


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")
    return path


def sha256_file(path) -> str:
    """The file's sha256, read in chunks of 64 kB so no artifact is held whole."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
