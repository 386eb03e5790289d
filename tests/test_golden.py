"""Golden bytes of the CLI at mu0 = 0.

Every case runs one ``lapdetect`` call in process and compares its stdout,
and the artifact it writes, with text recorded from an earlier version:
short scalar output verbatim, CSV and JSON as SHA-256 digests. A change to
any digit, header, line ending or append rule fails here. At mu0 = 0 the
threshold offset from mu0 is the threshold itself, so these bytes must not
move when only the representation of a threshold changes.
"""

import hashlib

import pytest

from lapdetect.cli import main


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _run(capsys, *argv: str) -> str:
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 0, out.err
    assert out.err == ""
    return out.out


SCALAR = [
    (["threshold", "--alpha", "0.25"], "0.6931472\n"),
    (["threshold", "--alpha", "0.7", "--tail", "left", "--s", "1.3"], "0.6640733\n"),
    (["threshold", "--alpha", "0.05", "--tail", "two-sided", "--eps", "0.4"], "(7.489331, -7.489331)\n"),
    (
        ["threshold", "--alpha", "0.25", "--dmu", "1"],
        "0.6931472\nkappa = 1.471518\nlr_at_k = 1.471518\n",
    ),
    (
        ["threshold", "--alpha", "0.3", "--tail", "left", "--dmu", "-0.7", "--theta", "1.5"],
        "-0.5108256\nkappa = 0.9794582\nlr_at_k = 0.9794582\n",
    ),
    (
        ["threshold", "--alpha", "0.1", "--tail", "two-sided", "--dmu", "1"],
        "(2.302585, -2.302585)\n",
    ),
    (["power", "--alpha", "0.1", "--dmu", "1", "--theta", "1.5"], "0.3330578\n"),
    (["power", "--alpha", "0.2", "--dmu", "-1.3", "--tail", "left", "--eps", "0.7"], "0.4968645\n"),
    (["power", "--alpha", "0.05", "--dmu", "2", "--tail", "two-sided", "--theta", "1.2"], "0.2258528\n"),
    (["interval", "--alpha", "0.05", "--beta-bar", "0.8", "--theta", "1.5"], "(-3.330448, 3.330448)\n"),
]


@pytest.mark.parametrize("argv, expected", SCALAR, ids=[" ".join(a) for a, _ in SCALAR])
def test_scalar_stdout(capsys, argv, expected):
    assert _run(capsys, *argv) == expected


ROC_CSV = {
    "right": "cada44fda10b54184656a730d079cc57626885fd5d6757029cf9f9cbf9346554",
    "left": "7fdc4e3d98cf75376ed50833c6e957809723dbd34f3292358726f3218a40ef17",
    "two-sided": "b133cf0b543237cef33a98e383bd86bfe987963b7fbbe7ac977d1c1761ffc640",
}
ROC_AUC = {"right": "0.6849943", "left": "0.3150057", "two-sided": "0.6781172"}


@pytest.mark.parametrize("tail", list(ROC_CSV))
def test_roc_csv(capsys, tmp_path, tail):
    path = tmp_path / "roc.csv"
    out = _run(capsys, "roc", "--dmu", "1", "--tail", tail, "--grid", "99", "--out", str(path))
    assert out == f"wrote 99 points (AUC = {ROC_AUC[tail]}) to {path}\n"
    assert _sha(path.read_text()) == ROC_CSV[tail]


def test_kl_sweep_csv(capsys, tmp_path):
    path = tmp_path / "kl.csv"
    assert _run(capsys, "kl-sweep", "--out", str(path)) == f"wrote 234 rows to {path}\n"
    assert _sha(path.read_text()) == (
        "6bccd9b1aa6501344159f866cd80bc66d4b9319ccaed1d2e6e293637441f3b17"
    )


# One digest per tail: the report must not depend on the worker count.
SIMULATE_JSON = {
    "right": "75dc83716e190e5c6933762768ce84c6ee2c7b3433533898af8343630f56fe29",
    "left": "7887857426eaf79074d8c752c79eb222dd20389c1c2d0e5912a9611030146e05",
    "two-sided": "356b330f697e402e2bfcb9edba8ecb3c5137803e0cae42e758da7f98a31d55c9",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("tail", list(SIMULATE_JSON))
def test_simulate_json(capsys, tail, workers):
    out = _run(
        capsys, "simulate", "--alpha", "0.1", "--dmu", "-1" if tail == "left" else "1",
        "--tail", tail, "--samples", "150001", "--seed", "7", "--workers", workers,
    )
    assert _sha(out) == SIMULATE_JSON[tail]


# The release pipeline ((q + z) + x_a) - q on a records file, one digest per
# tail at any worker count; "quantized" is the one case where ulp(q) = 2^-23
# is close to b0 = 1e-7, so rounding q + z moves alpha_hat to about 0.084
# and the report fails its band.
SIMULATE_DATA_JSON = {
    "right": "f6f1c7938a697b4caa28bd38b10c8d6f33fbc85bb3d782cb2695c6a4aaaa85d8",
    "left": "8f24b8d1fb6bfe03816228bc1a6eaae821e19d1fbebfffe2c180c316045ec6b8",
    "two-sided": "af0b93058f12a8fa6734d61d4788ff19c8bb694a3602ba01622c61ebc491b6b6",
    "quantized": "9dd000e9d256fb0313b4db23eadbed9c3035b6641d658ab2ce1812506e66e427",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", list(SIMULATE_DATA_JSON))
def test_simulate_data_json(capsys, tmp_path, case, workers):
    records = tmp_path / "records.txt"
    if case == "quantized":
        records.write_text("1e6\n" * 1000)
        args = ["--bound", "1e6", "--s", "1e6", "--eps", "1e13", "--dmu=1e-7"]
    else:
        records.write_text("0.5\n1.125\n0.25\n")
        args = ["--bound", "1.2", "--s", "1.2", "--dmu", "-1" if case == "left" else "1"]
        args += ["--tail", case]
    out = _run(
        capsys, "simulate", "--data", str(records), *args, "--alpha", "0.1",
        "--samples", "150001", "--seed", "7", "--workers", workers,
    )
    assert _sha(out) == SIMULATE_DATA_JSON[case]


def test_sweep_grid_csv_appended_twice(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    for seed in ("5", "6"):
        out = _run(
            capsys, "simulate", "--sweep", "--samples", "300", "--seed", seed, "--out", str(path)
        )
        assert out == f"appended 216 grid rows to {path}\n"
    assert _sha(path.read_text()) == (
        "dab775b7fdbb0d8cd42f4a86a0b7b68959ff259f1375818ee444df5ca08385e0"
    )
