"""The four bundled scenarios and the Weyl sweep against their recorded outputs.

Each trace or sweep column must match within 1e-12 of max(|column|, 1), each
audit verdict exactly and each audit residual within 1e-12 relative.  The data
in ``tests/data/bundled`` is what ``obsalg run <scenario>`` wrote, and
``tests/data/sweep/weyl.csv`` what ``obsalg sweep weyl --n-list 8,16,32,64,128``
wrote; after an intended change of those outputs, record them again with

    PYTHONPATH=src python tests/test_bundled_goldens.py

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

from obsalg.cli import BUNDLED, main

DATA = Path(__file__).resolve().parent / "data" / "bundled"
SWEEP = Path(__file__).resolve().parent / "data" / "sweep" / "weyl.csv"
SWEEP_N_LIST = "8,16,32,64,128"
TOL = 1e-12


def _run(name: str, out: Path) -> tuple[str, str]:
    """The trace CSV and the audit JSON that ``obsalg run`` writes for a bundled scenario."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", name, "--out", str(out)]) == 0
    return (out / f"{name}_trace.csv").read_text(), (out / f"{name}_audit.json").read_text()


def _sweep(out: Path) -> str:
    """The CSV that ``obsalg sweep weyl`` writes for the golden's level counts."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "weyl", "--n-list", SWEEP_N_LIST, "--out", str(out)]) == 0
    return out.read_text()


def _table(text: str) -> tuple[list[str], np.ndarray]:
    header, *rows = csv.reader(io.StringIO(text))
    return header, np.array(rows, dtype=float)


def _assert_columns_match(name: str, text: str, golden_text: str) -> None:
    header, values = _table(text)
    golden_header, golden = _table(golden_text)
    assert header == golden_header
    assert values.shape == golden.shape
    for j, column in enumerate(header):
        scale = max(1.0, float(np.max(np.abs(golden[:, j]))))
        moved = float(np.max(np.abs(values[:, j] - golden[:, j])))
        assert moved <= TOL * scale, f"{name} column {column!r} moved by {moved:.3e}"


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_trace_matches_golden(name, tmp_path):
    text, _ = _run(name, tmp_path)
    with gzip.open(DATA / f"{name}_trace.csv.gz", "rt") as f:
        _assert_columns_match(name, text, f.read())


def test_weyl_sweep_matches_golden(tmp_path):
    _assert_columns_match("sweep weyl", _sweep(tmp_path / "weyl.csv"), SWEEP.read_text())


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_audit_matches_golden(name, tmp_path):
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
    """Write the current outputs of every bundled scenario into ``DATA``, and the sweep's
    into ``SWEEP``."""
    import tempfile
    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in BUNDLED:
            text, audit = _run(name, Path(tmp))
            # mtime 0 and no file name: the same trace always gives the same bytes
            with open(DATA / f"{name}_trace.csv.gz", "wb") as raw, \
                    gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as f:
                f.write(text.encode())
            (DATA / f"{name}_audit.json").write_text(audit)
        SWEEP.parent.mkdir(parents=True, exist_ok=True)
        SWEEP.write_text(_sweep(Path(tmp) / "weyl.csv"))


if __name__ == "__main__":
    sys.exit(_record())
