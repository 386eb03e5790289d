"""Golden bytes of the CLI away from mu0 = 0.

``test_golden.py`` runs at mu0 = 0, where a region's offsets from mu0 are
its thresholds, so it cannot see a change in how mu0 and an offset are
combined. These cases run at mu0 = -1.7, 1e8 and 2.5 and compare SHA-256
digests of stdout, and of the CSV written, with bytes recorded from an
earlier version. Powers and simulate reports do not depend on mu0, so
several digests here repeat.
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


ROC_AUC = {"right": "0.6850746", "left": "0.3149254", "two-sided": "0.6782011"}
ROC_CSV = {
    ("-1.7", "right"): "4774a593a21fadf4832564faa7f1ccce53531908f27f93c6d94a62d771841b07",
    ("-1.7", "left"): "89c2fa18e70b1b12b7ea674581a11b5a1317af9b74b555562e433c4539f018e0",
    ("-1.7", "two-sided"): "af9ba69e65c24ca0b515fa5cdf014509db32751103b4738068a5f80322a4f802",
    ("1e8", "right"): "c2fb189e8afa180d2a20008733486de13cb81f5b77abdcb51f5947f8599a2e5d",
    ("1e8", "left"): "5552072b7c5f35bb8b54a658ac1f166c85a853b1b69477ef64b0e33bb972df70",
    ("1e8", "two-sided"): "8d950a3722cf92fd7756145b3fd726e0acb0d64451eb425f291d8213b3e67e94",
}


@pytest.mark.parametrize("mu0, tail", list(ROC_CSV), ids=[" ".join(k) for k in ROC_CSV])
def test_roc_csv(capsys, tmp_path, mu0, tail):
    path = tmp_path / "roc.csv"
    out = _run(capsys, "roc", "--dmu", "1", "--mu0", mu0, "--tail", tail, "--out", str(path))
    assert out == f"wrote 999 points (AUC = {ROC_AUC[tail]}) to {path}\n"
    assert _sha(path.read_text()) == ROC_CSV[(mu0, tail)]


THRESHOLD = [
    (
        ["--tail", "left", "--dmu", "-0.7", "--mu0", "-1.7", "--theta", "1.5"],
        "a23f6c2069501e762e42b4ea42d09f3b35588f84c86678e9220742b03dcf14cd",
    ),
    (
        ["--tail", "left", "--dmu", "-1", "--mu0", "1e8"],
        "3c96b32370fea54e16dc3cebe080d98f232865ef6ea836ba44132a6abd53c7d5",
    ),
    (
        ["--tail", "two-sided", "--dmu", "1", "--mu0", "-1.7"],
        "24dd0411a53013660c3b6a170c92e80d14aac5f397ee3c8614fc132f2991f27b",
    ),
    (
        ["--tail", "two-sided", "--dmu", "1", "--mu0", "1e8"],
        "6498c17c20af012885c17e4e0fe8689b3c5b0a396cd868c5aea6aac2c9a45b93",
    ),
]


@pytest.mark.parametrize("argv, digest", THRESHOLD, ids=[" ".join(a) for a, _ in THRESHOLD])
def test_threshold_stdout(capsys, argv, digest):
    assert _sha(_run(capsys, "threshold", "--alpha", "0.3", *argv)) == digest


POWER = {
    ("right", "1"): "d1f8663618aa88d0dd2b3a44c1cd4a270a5f40397fa659da044002936f92762a",
    ("left", "-1.3"): "1c4c1bd73f887bfcceb02254e1f73d37f40448b2cfbc5b4a4c438940d46832e5",
    ("two-sided", "2"): "82b22b91a242bedd62d8471d1230f2b0358bc9c601243bc9f329ff444fa92481",
}


@pytest.mark.parametrize("mu0", ["-1.7", "1e8"])
@pytest.mark.parametrize("tail, dmu", list(POWER))
def test_power_stdout(capsys, tail, dmu, mu0):
    out = _run(
        capsys, "power", "--alpha", "0.2", "--dmu", dmu, "--tail", tail, "--mu0", mu0,
        "--theta", "1.2",
    )
    assert _sha(out) == POWER[(tail, dmu)]


SIMULATE_JSON = {
    "right": "75dc83716e190e5c6933762768ce84c6ee2c7b3433533898af8343630f56fe29",
    "left": "7887857426eaf79074d8c752c79eb222dd20389c1c2d0e5912a9611030146e05",
    "two-sided": "356b330f697e402e2bfcb9edba8ecb3c5137803e0cae42e758da7f98a31d55c9",
}


@pytest.mark.parametrize("tail", list(SIMULATE_JSON))
def test_simulate_json(capsys, tail):
    out = _run(
        capsys, "simulate", "--alpha", "0.1", "--dmu", "-1" if tail == "left" else "1",
        "--tail", tail, "--mu0", "2.5", "--samples", "150001", "--seed", "7",
    )
    assert _sha(out) == SIMULATE_JSON[tail]
