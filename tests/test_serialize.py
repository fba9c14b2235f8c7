import math
import sys

import numpy as np
import pytest

from obsalg.core import AlgebraError
from obsalg.rand import random_matrix, random_state
from obsalg.serialize import (
    SchemaError,
    fmt_number,
    matrix_from_doc,
    matrix_to_doc,
    vector_from_doc,
    vector_to_doc,
    write_csv,
)
from obsalg.states import StateVector


def test_matrix_round_trip(rng):
    p = random_matrix(rng, 3)
    back = matrix_from_doc(matrix_to_doc(p))
    assert back.distance(p) == 0.0


def test_matrix_round_trip_with_unit_tag(rng):
    from obsalg.core import PseudoObservable
    p = PseudoObservable(random_matrix(rng, 2).entries, unit_tag="length")
    doc = matrix_to_doc(p)
    assert doc["unit_tag"] == "length"
    assert matrix_from_doc(doc).unit_tag == "length"


def test_matrix_doc_row_major_order():
    doc = matrix_to_doc(random_matrix(np.random.default_rng(0), 2))
    arr = matrix_from_doc(doc).entries
    assert arr[0, 1] == complex(doc["entries"][1][0], doc["entries"][1][1])


def test_vector_round_trip(rng):
    psi = StateVector(random_state(rng, 4))
    assert vector_from_doc(vector_to_doc(psi)).distance(psi) < 1e-15


def test_schema_errors_carry_paths():
    with pytest.raises(SchemaError, match="matrix.dim"):
        matrix_from_doc({"entries": []})
    with pytest.raises(SchemaError, match=r"matrix.entries\[1\]"):
        matrix_from_doc({"dim": 2, "entries": [[0, 0], [1], [0, 0], [0, 0]]})
    with pytest.raises(SchemaError, match="expected a list of 4"):
        matrix_from_doc({"dim": 2, "entries": [[0, 0]]})


def test_fmt_number_17_significant_digits():
    assert fmt_number(1.0) == "1.0000000000000000e+00"
    assert fmt_number(np.pi) == "3.1415926535897931e+00"
    assert fmt_number(7) == "7"
    assert fmt_number("rabi") == "rabi"


def test_write_csv_deterministic(tmp_path):
    rows = [[0, 0.1, np.float64(0.25)], [1, 0.2, np.float64(0.5)]]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["step", "t", "x"], rows)
    write_csv(b, ["step", "t", "x"], rows)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "step,t,x"


def test_write_csv_cells_read_as_fmt_number(tmp_path):
    # the row format is built from the cell types and kept while they repeat:
    # rows 2 and 3 reuse row 1's, rows 4 and 5 change it (a string cell, as in
    # the convergence sweep, and NumPy scalars)
    rows = [["rabi", 0, math.inf, -0.0],
            ["rabi", 1, -math.inf, 5e-324],
            ["oscillator", 2, math.nan, sys.float_info.max],
            ["oscillator", np.int64(3), np.float64(-2.5), True],
            [np.float64(0.1), "x", 7, np.int64(-7)]]
    path = tmp_path / "mixed.csv"
    write_csv(path, ["scenario", "halving", "a", "b"], rows)
    expected = ["scenario,halving,a,b", *(",".join(map(fmt_number, row)) for row in rows)]
    assert path.read_text(encoding="utf-8").splitlines() == expected
    with pytest.raises(AlgebraError, match="row width 3 != header width 4"):
        write_csv(path, ["scenario", "halving", "a", "b"], [["rabi", 0, 1.0]])


def test_transformation_round_trip(rng):
    from obsalg.rand import random_unitary
    from obsalg.serialize import transformation_from_doc, transformation_to_doc
    from obsalg.transforms import from_unitary

    t = from_unitary(random_unitary(rng, 4))
    doc = transformation_to_doc(t)
    assert set(doc) == {"dim", "entries"}  # generatrix recomputed, not stored
    back = transformation_from_doc(doc)
    assert back.w.distance(t.w) == 0.0
    assert back.generatrix.distance(t.generatrix) < 1e-12
