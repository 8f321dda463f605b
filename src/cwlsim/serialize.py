"""Stable on-disk formats: JSON and CSV with shortest round-trip floats, manifests.

JSON documents are UTF-8, written by the standard library's ``json`` with a
two-space indent and keys in insertion order (configs).  Every float, in JSON
and in CSV alike, is Python's ``repr``: the shortest text that reads back to
the same double, so every value round-trips exactly; non-finite values are
written ``NaN``, ``Infinity`` and ``-Infinity``.  CSV files are
comma-separated with a header row and LF line endings; a text cell holding a
comma, double quote, CR or LF is quoted as RFC 4180 says.  CSV is written
column-wise, each distinct float formatted once, with the bytes of a
cell-by-cell writer.  Density matrices: row-major [re, im] pairs, dim header.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .hilbert import DensityMatrix

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _plain(obj):
    """``obj`` as something ``json`` can write: complex as [re, im], numpy
    scalars and arrays as Python values, dataclasses as dicts."""
    if isinstance(obj, (complex, np.complexfloating)):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.integer, np.floating, np.bool_, np.ndarray)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise ConfigError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, default=_plain) + "\n"


def write_json(obj, path) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8")


def _cell(cell) -> str:
    if isinstance(cell, (float, np.floating)):
        text = repr(float(cell))
        return _NONFINITE.get(text, text)
    text = str(cell)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(cells):
    """One column's texts; floats once per bit pattern (0.0 is not -0.0)."""
    if isinstance(cells, np.ndarray) or set(map(type, cells)) <= {float, np.float64}:
        bits, inverse = np.unique(np.asarray(cells, np.float64).view(np.int64), return_inverse=True)
        texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
        return np.array(list(map(_NONFINITE.get, texts, texts)), dtype=object)[inverse]
    return list(map(_cell, cells))


def write_csv(path, header: list, rows) -> None:
    """Write ``header`` and ``rows``: a sequence of rows, or a 2-D float64 array."""
    if not header:
        raise ConfigError("a CSV table needs at least one column")
    table = isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2
    widths = [rows.shape[1]] * len(rows) if table else list(map(len, rows))
    if widths.count(len(header)) != len(widths):
        i = next(i for i, n in enumerate(widths) if n != len(header))
        raise ConfigError(f"CSV row {i} has {widths[i]} cells, the header {len(header)}")
    lines = map(",".join, zip(*map(_column, rows.T if table else zip(*rows))))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(map(_cell, header)) + "\n")
        while block := list(islice(lines, 4096)):  # a block at a time, never the whole text
            f.write("\n".join(block) + "\n")


def write_density_matrix(dm: DensityMatrix, path) -> None:
    mat = dm.mat
    doc = {
        "kind": "density_matrix",
        "dim": dm.dim,
        "dims": list(dm.dims),
        "layout": "row-major",
        "data": np.stack([mat.real, mat.imag], -1).reshape(-1, 2).tolist(),
    }
    write_json(doc, path)


def read_density_matrix(path) -> DensityMatrix:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("kind") != "density_matrix":
        raise ConfigError(f"{path} is not a density-matrix document")
    dim = int(doc["dim"])
    raw = doc["data"]
    if len(raw) != dim * dim:
        raise ConfigError("density-matrix data length does not match dim^2")
    flat = np.array([complex(re, im) for re, im in raw])
    return DensityMatrix(flat.reshape(dim, dim), tuple(doc["dims"]),
                         positivity_tol=1e-6)
