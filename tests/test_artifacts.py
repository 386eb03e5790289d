"""CSV artifacts: the full text of every writer against a csv.writer rendering.

Each expected text is built here from the same rows with the standard
``csv`` module, floats at 17 significant digits, so a change to quoting,
number formatting, line endings, the empty k2 cell or the append rule
shows up as a difference in the text.
"""

import csv
import io
import os

import numpy as np
import pytest

from lapdetect import (
    AttackSpec,
    MechanismConfig,
    RocCurve,
    RocPoint,
    TailDirection,
    _csv,
    kl_sweep,
    roc_curve,
    run_grid,
    write_grid_csv,
    write_kl_sweep_csv,
    write_roc_csv,
)


def _g(x: float) -> str:
    return format(x, ".17g")


def _flag(b: bool) -> str:
    return "true" if b else "false"


def _render(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("direction", list(TailDirection))
def test_roc_csv_text(tmp_path, direction):
    cfg = MechanismConfig(s=1.3, eps=0.7, theta=1.5, mu0=-1.7)
    curve = roc_curve(cfg, AttackSpec(0.9), direction, grid=49)
    path = tmp_path / "roc.csv"
    write_roc_csv(curve, path)
    expected = _render(
        ["alpha", "k1", "k2", "power"],
        [
            [_g(p.alpha), _g(p.k1), "" if p.k2 is None else _g(p.k2), _g(p.power)]
            for p in curve.points
        ],
    )
    assert path.read_text() == expected
    # One-sided curves leave k2 empty; two-sided ones fill it.
    k2_cells = {line.split(",")[2] == "" for line in expected.splitlines()[1:]}
    assert k2_cells == {direction.one_sided}


def test_kl_sweep_csv_text(tmp_path):
    rows = kl_sweep(
        eps_grid=[0.1, 0.5, 1.0, 2.0], thetas=[1.0, 1.5], dmu_over_s=[0.5, 4.0],
        s=1.3, mu0=-0.4,
    )
    assert {r["violated"] for r in rows} == {True, False}
    path = tmp_path / "kl.csv"
    write_kl_sweep_csv(rows, path)
    expected = _render(
        ["epsilon", "theta", "dmu_over_s", "kl", "bound", "violated"],
        [
            [_g(r["epsilon"]), _g(r["theta"]), _g(r["dmu_over_s"]), _g(r["kl"]),
             _g(r["bound"]), _flag(r["violated"])]
            for r in rows
        ],
    )
    assert path.read_text() == expected


class TestGridCsv:
    HEADER = ["eps", "theta", "dmu", "alpha", "alpha_hat", "power", "power_hat", "pass"]

    @pytest.fixture(scope="class")
    def rows(self):
        grid = [(1.0, 1.0, 1.0, 0.1), (0.5, 1.5, 4.0, 0.7), (2.0, 1.0, 0.5, 0.3)]
        return run_grid(grid=grid, s=0.8, n_trials=2_000, seed=17)

    def _body(self, rows) -> str:
        return _render(
            self.HEADER,
            [[*(_g(r[k]) for k in self.HEADER[:-1]), _flag(r["pass"])] for r in rows],
        ).split("\n", 1)[1]

    def test_two_appends_to_a_path_write_one_header(self, tmp_path, rows):
        path = tmp_path / "grid.csv"
        write_grid_csv(rows, path)
        write_grid_csv(rows, path)
        body = self._body(rows)
        assert path.read_text() == ",".join(self.HEADER) + "\n" + body + body

    def test_stream_with_text_gets_no_header(self, rows):
        buf = io.StringIO()
        buf.write("earlier\n")
        write_grid_csv(rows, buf)
        assert buf.getvalue() == "earlier\n" + self._body(rows)

    def test_empty_stream_gets_the_header(self, rows):
        buf = io.StringIO()
        write_grid_csv(rows, buf)
        assert buf.getvalue() == ",".join(self.HEADER) + "\n" + self._body(rows)

    def test_unseekable_stream_gets_the_header(self, rows):
        # A pipe has no position to test, so it counts as a new target.
        read_fd, write_fd = os.pipe()
        with open(write_fd, "w", newline="") as writer:
            assert not writer.seekable()
            write_grid_csv(rows, writer)
        with open(read_fd) as reader:
            text = reader.read()
        assert text == ",".join(self.HEADER) + "\n" + self._body(rows)


class TestSink:
    """Rows every column template must keep: empty, None-only, mixed types."""

    HEADER = ["a", "b", "c"]

    def test_zero_rows_give_the_header_only(self):
        buf = io.StringIO()
        _csv.write_csv(buf, self.HEADER, [])
        assert buf.getvalue() == _render(self.HEADER, [])

    def test_all_none_rows(self):
        buf = io.StringIO()
        _csv.write_csv(buf, self.HEADER, [(None, None, None), (None, None, None)])
        assert buf.getvalue() == _render(self.HEADER, [["", "", ""], ["", "", ""]])

    def test_int_numpy_float_and_numpy_bool_cells(self):
        rows = [
            (3, np.float64(0.1), np.bool_(True)),
            (-7, np.float64(-2.5e-300), np.bool_(False)),
        ]
        buf = io.StringIO()
        _csv.write_csv(buf, self.HEADER, rows)
        expected = _render(
            self.HEADER, [[_g(i), _g(x), _flag(bool(b))] for i, x, b in rows]
        )
        assert buf.getvalue() == expected
        assert expected.splitlines()[1:] == ["3,0.10000000000000001,true", "-7,-2.5e-300,false"]

    def test_k2_column_mixing_none_and_floats(self):
        points = (RocPoint(0.25, 1.5, None, 0.5), RocPoint(0.5, 0.75, -0.75, 0.625))
        curve = RocCurve(TailDirection.TWO_SIDED, points, 0.5)
        buf = io.StringIO()
        write_roc_csv(curve, buf)
        expected = _render(
            ["alpha", "k1", "k2", "power"],
            [[_g(0.25), _g(1.5), "", _g(0.5)], [_g(0.5), _g(0.75), _g(-0.75), _g(0.625)]],
        )
        assert buf.getvalue() == expected

    def test_append_to_a_non_empty_stream(self):
        first, second = [(0.1, None, True)], [(1 / 3, -0.0, False), (1e308, None, True)]
        buf = io.StringIO()
        _csv.write_csv(buf, self.HEADER, first, append=True)
        _csv.write_csv(buf, self.HEADER, second, append=True)
        expected = _render(
            self.HEADER,
            [[_g(x), "" if y is None else _g(y), _flag(b)] for x, y, b in first + second],
        )
        assert buf.getvalue() == expected

    @pytest.mark.parametrize(
        "rows",
        [[(None,), (None,)], [(None,), (0.5,), (None,)], [(True,), (None,), (False,)]],
        ids=["none-only", "none-and-floats", "none-and-flags"],
    )
    def test_one_column_keeps_its_empty_rows(self, rows):
        buf = io.StringIO()
        _csv.write_csv(buf, ["x"], rows)
        cells = [
            ["" if v is None else _flag(v) if isinstance(v, bool) else _g(v)] for (v,) in rows
        ]
        assert buf.getvalue() == _render(["x"], cells)
        assert list(csv.reader(io.StringIO(buf.getvalue()))) == [["x"], *cells]
