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
    "right": "689ae95e983a305bfa73b57207a1606b9f5820ac5b02cace2563c0e2029a91b8",
    "left": "f4408f0c74a385a883beb4709631ffb3e092cd074645c9ec2a96965d356b9e6f",
    "two-sided": "d4660eaa39eda01a6435868db63a1e37f5f62149b495bdfbdc869e52bf544b64",
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
    "right": "856c10151c8a1000b6c65215f49c676f50353ed285a72aad057591655ebc52ef",
    "left": "cd2b550215895b2384f0dbb48eafe8fc229f61528ed0b1e812eed6221f16fa99",
    "two-sided": "af06749e5255655886198e17805d2874f5310a5b06eb1a935f5060d9598d02ed",
    "quantized": "194868a11df87588864dfdfe0388fc10379c502b3f6efe7e806cebd24f8435b0",
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
        "8aa586c8bcdf30d1d1da67bf63dec6e398166f1ee25153e0602fdce9de4ce94d"
    )
