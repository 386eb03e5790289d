"""numpy and the heavier standard modules stay off the start-up path of
the closed-form CLI subcommands.

``import lapdetect`` loads every module, ``montecarlo`` included, and every
module imports numpy only inside the array, sampling and simulation calls
that need it. The record types are plain ``__slots__`` classes, so neither
``dataclasses`` nor the ``inspect`` it pulls in loads, and ``json`` and
``csv`` load only inside the calls that write JSON or read a CSV dataset.
The guards run in a fresh interpreter, because the test process has numpy
loaded already.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lapdetect
from lapdetect import _csv, montecarlo

GUARD = """
import sys

before = set(sys.modules)
import lapdetect
import lapdetect.cli

out = sys.argv[1]
for argv in (
    ["threshold", "--alpha", "0.1", "--dmu", "1"],
    ["threshold", "--alpha", "0.05", "--tail", "two-sided"],
    ["power", "--alpha", "0.1", "--dmu", "1"],
    ["interval", "--alpha", "0.05", "--beta-bar", "0.8"],
    ["kl", "--dmu", "4"],
    ["roc", "--dmu", "1", "--grid", "99", "--out", out + "/roc.csv"],
    ["kl-sweep", "--eps-list", "0.1,0.5,1", "--out", out + "/kl_sweep.csv"],
    ["kl-sweep", "--out", out + "/kl_default.csv"],
):
    assert lapdetect.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
added = set(sys.modules) - before
assert not added & {"dataclasses", "inspect", "json", "csv"}, sorted(added)
assert lapdetect.cli.main(["simulate", "--dmu", "1", "--samples", "100"]) == 0
assert "numpy" in sys.modules, "simulate"
"""


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_closed_form_subcommands_start_without_numpy(tmp_path):
    proc = _fresh(GUARD, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


LAZY_GUARD = """
import sys

import lapdetect
assert "lapdetect.montecarlo" in sys.modules and "numpy" not in sys.modules
from lapdetect import cli

assert not hasattr(lapdetect, "no_such_name")
import lapdetect.montecarlo
assert lapdetect.SimConfig is lapdetect.montecarlo.SimConfig
assert "numpy" not in sys.modules
"""


def test_lazy_attributes_and_montecarlo_import_without_numpy():
    # ``import lapdetect`` imports montecarlo, so montecarlo itself must not
    # import numpy until a simulation runs.
    proc = _fresh(LAZY_GUARD)
    assert proc.returncode == 0, proc.stderr


def test_numpy_bools_render_as_flags():
    buf = io.StringIO()
    _csv.write_csv(buf, ["flag", "x"], [(np.True_, 1.5), (np.False_, None)])
    assert buf.getvalue() == "flag,x\ntrue,1.5\nfalse,\n"


def test_star_import_binds_the_lazy_names():
    namespace = {}
    exec("from lapdetect import *", namespace)
    assert namespace["run_grid"] is montecarlo.run_grid
    assert namespace["GRID_CSV_HEADER"] == montecarlo.GRID_CSV_HEADER


def test_lazy_module_is_the_imported_one():
    assert lapdetect.montecarlo is sys.modules["lapdetect.montecarlo"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lapdetect.no_such_name
