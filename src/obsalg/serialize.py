"""Text exchange formats: matrix/vector JSON documents and trace CSV.

A matrix document is ``{"dim": d, "entries": [[re, im], ...]}`` with entries
in row-major order and an optional ``"unit_tag"``.  Vectors use
``"amplitudes"`` in place of ``"entries"``.  Every ``re`` and ``im`` is a
finite JSON number, never a bool.  CSV numbers are written in fixed
scientific notation with 17 significant digits so that identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .core import AlgebraError, PseudoObservable
from .states import StateVector


class SchemaError(AlgebraError):
    """A document does not match the expected schema; carries a field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return doc[key]


def _number(value, path: str, positive: bool = False) -> float:
    """A finite JSON number (never a bool), positive when asked."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(path, f"number out of range: {value}") from None
    if not math.isfinite(number):
        raise SchemaError(path, f"expected a finite number, got {number}")
    # subnormal values are too coarse to step with (tau/2 may round to 0)
    if positive and not number >= sys.float_info.min:
        raise SchemaError(path, f"must be a positive normal float, got {number}")
    return number


def _pairs_to_complex(pairs, count: int, path: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != count:
        raise SchemaError(path, f"expected a list of {count} [re, im] pairs")
    out = np.empty(count, dtype=complex)
    for idx, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(f"{path}[{idx}]", "expected an [re, im] pair")
        out[idx] = complex(*(_number(x, f"{path}[{idx}]") for x in pair))
    return out


def matrix_to_doc(p: PseudoObservable) -> dict:
    flat = p.entries.reshape(-1)
    doc = {"dim": p.dim,
           "entries": [[float(z.real), float(z.imag)] for z in flat]}
    if p.unit_tag:
        doc["unit_tag"] = p.unit_tag
    return doc


def matrix_from_doc(doc: dict, path: str = "matrix") -> PseudoObservable:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a matrix document object")
    dim = _require(doc, "dim", path)
    if not isinstance(dim, int) or dim < 2:
        raise SchemaError(f"{path}.dim", f"expected an integer >= 2, got {dim!r}")
    flat = _pairs_to_complex(_require(doc, "entries", path), dim * dim,
                             f"{path}.entries")
    return PseudoObservable(flat.reshape(dim, dim), doc.get("unit_tag"))


def vector_to_doc(psi: StateVector) -> dict:
    return {"dim": psi.dim,
            "amplitudes": [[float(z.real), float(z.imag)] for z in psi.amplitudes]}


def vector_from_doc(doc: dict, path: str = "vector") -> StateVector:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a vector document object")
    dim = _require(doc, "dim", path)
    if not isinstance(dim, int) or dim < 2:
        raise SchemaError(f"{path}.dim", f"expected an integer >= 2, got {dim!r}")
    amps = _pairs_to_complex(_require(doc, "amplitudes", path), dim,
                             f"{path}.amplitudes")
    return StateVector(amps)


def transformation_to_doc(t) -> dict:
    """A transformation serializes as the matrix of its inducing unitary W;
    the generatrix is recomputable and never stored."""
    return matrix_to_doc(t.w)


def transformation_from_doc(doc: dict, path: str = "transformation"):
    from .transforms import from_unitary
    return from_unitary(matrix_from_doc(doc, path))


def load_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(str(path), "file not found") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"invalid JSON: {exc}") from exc


def dump_json(path: str | Path, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def fmt_number(x) -> str:
    """Fixed scientific notation, 17 significant digits, for CSV cells.

    Integers and strings pass through unchanged.
    """
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.16e}"


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise AlgebraError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join(fmt_number(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
