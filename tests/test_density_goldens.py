"""A driven density run in both pictures against its recorded trace and audit.

``tests/data/density`` holds a d=4 scenario with H = A + cos(nu t) B whose
initial state is a full-rank ``density_file``, once per picture: the
Schroedinger run steps the density with ``von_neumann_step``, and both runs
check picture equivalence and the von Neumann residual.  Each trace column
must match within 1e-12 of max(|column|, 1), each audit verdict exactly and
each audit residual within 1e-12 relative.  After an intended change of
those outputs, record them again with

    PYTHONPATH=src python tests/test_density_goldens.py

and say in CHANGES.md what moved and why.
"""

import contextlib
import csv
import gzip
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from obsalg.cli import main

DATA = Path(__file__).resolve().parent / "data" / "density"
NAMES = ("density_driven_schrodinger", "density_driven_heisenberg")
TOL = 1e-12


def _run(name: str, out: Path) -> tuple[str, str]:
    """The trace CSV and the audit JSON that ``obsalg run`` writes for one config."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(DATA / f"{name}.json"), "--out", str(out)]) == 0
    return (out / f"{name}_trace.csv").read_text(), (out / f"{name}_audit.json").read_text()


def _table(text: str) -> tuple[list[str], np.ndarray]:
    header, *rows = csv.reader(io.StringIO(text))
    return header, np.array(rows, dtype=float)


@pytest.mark.parametrize("name", NAMES)
def test_density_trace_matches_golden(name, tmp_path):
    header, values = _table(_run(name, tmp_path)[0])
    with gzip.open(DATA / f"{name}_trace.csv.gz", "rt") as f:
        golden_header, golden = _table(f.read())
    assert header == golden_header
    assert values.shape == golden.shape
    for j, column in enumerate(header):
        scale = max(1.0, float(np.max(np.abs(golden[:, j]))))
        moved = float(np.max(np.abs(values[:, j] - golden[:, j])))
        assert moved <= TOL * scale, f"{name} column {column!r} moved by {moved:.3e}"


@pytest.mark.parametrize("name", NAMES)
def test_density_audit_matches_golden(name, tmp_path):
    audit = json.loads(_run(name, tmp_path)[1])
    golden = json.loads((DATA / f"{name}_audit.json").read_text())
    assert audit["all_pass"] == golden["all_pass"]
    assert [c["name"] for c in audit["checks"]] == [c["name"] for c in golden["checks"]]
    for check, expected in zip(audit["checks"], golden["checks"]):
        assert check["pass"] == expected["pass"], check["name"]
        assert check["residuals"].keys() == expected["residuals"].keys()
        for key, value in expected["residuals"].items():
            assert abs(check["residuals"][key] - value) <= TOL * abs(value), \
                f"{name} {check['name']}.{key}: {check['residuals'][key]!r} vs {value!r}"


def _record() -> None:
    """Write the current outputs of both density runs into ``DATA``."""
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            text, audit = _run(name, Path(tmp))
            # mtime 0 and no file name: the same trace always gives the same bytes
            with open(DATA / f"{name}_trace.csv.gz", "wb") as raw, \
                    gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as f:
                f.write(text.encode())
            (DATA / f"{name}_audit.json").write_text(audit)


if __name__ == "__main__":
    sys.exit(_record())
