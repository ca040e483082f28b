"""Byte-level pins of CLI output.

Each case runs one CLI command at a fixed seed and compares the sha256 of
its stdout with a stored digest. The digests pin the random streams, the
estimators and the number formatting together, so a speed-up that claims
byte-identical output is checked here. A change that moves a digest on
purpose replaces it and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from adaptgap.cli import run

GOLDEN = {
    "gap": (
        ["gap", "--trials", "4", "--seed", "3"],
        "91ac4a1f71b2c2c57ed2f7074e833ad9db452ff0f88c24796f621ee35ec4e269",
    ),
    "rates": (
        ["rates", "--regime", "p-lt-2-lt-u", "--trials", "4",
         "--budgets", "2^8,2^10,2^12,2^14", "--seed", "3"],
        "01b7f13ec1364d3f862b5f6dfc829e3d4ff0e0cac0de6bd02b0c4a3be415622e",
    ),
    "ds": (
        ["ds", "--k0", "4,5", "--delta", "0.2", "--trials", "4", "--seed", "3"],
        "2184ef4acf334ce80baddc7486f25345e1aa1f35ee45b034c57dc6d6589e637a",
    ),
    "norm-est": (
        ["norm-est", "--trials", "50", "--seed", "3"],
        "0ca41c79309bb6b02c06afe1f00bb1a74a82ba76228799df5b636202f4a207ea",
    ),
    "estimate-a2": (
        ["estimate", "--family", "mu2", "--alg", "a2", "--n1", "64", "--n2",
         "64", "--p", "2", "--u", "2", "--n", "4096", "--seed", "3"],
        "4ae6ffdbf3be845d62d8563d9a7d09f88ecb33785e37d7e17969e26b7f860ca0",
    ),
    "estimate-a3": (
        ["estimate", "--family", "mu4", "--alg", "a3", "--n1", "64", "--n2",
         "64", "--p", "1", "--u", "inf", "--n", "4096", "--seed", "3"],
        "9c64996dcf768efe1bf8a155c99ee50cd482d08428d46f77a4503a8eb05c197a",
    ),
    # Single spikes are stored as one row; rates p-ge-u samples dense mu3.
    "estimate-mu1-a2": (
        ["estimate", "--family", "mu1", "--alg", "a2", "--n1", "64", "--n2",
         "64", "--p", "1", "--u", "inf", "--n", "4096", "--seed", "3"],
        "50542c0a352a144e730acdab13b19495a45761b18cf9dfe9c9cda63258bd6050",
    ),
    "rates-p-ge-u": (
        ["rates", "--regime", "p-ge-u", "--trials", "4",
         "--budgets", "2^6,2^7,2^8,2^9", "--seed", "3"],
        "d448b2406312e89e9602ec5d664bd2ec17c867d9a5f14bd2843969818a968c03",
    ),
    # Entries of +-60^(2/3) are not integers, so a3's sums round and their
    # order shows in the digest (64^(2/3) = 16 would be exact in any order).
    "estimate-a3-p1.5": (
        ["estimate", "--family", "mu4", "--alg", "a3", "--n1", "60", "--n2",
         "64", "--p", "1.5", "--u", "inf", "--n", "4096", "--seed", "3"],
        "b68cab6b16a7ef857e0b0682b96b52dea796a74d210ddfd585032c39e6ab48cb",
    ),
    # The two regimes with one a2 curve each, so every row of the rates
    # table is pinned.
    "rates-p-lt-u-le-2": (
        ["rates", "--regime", "p-lt-u-le-2", "--trials", "4",
         "--budgets", "2^6,2^7,2^8,2^9", "--seed", "3"],
        "4a15abb8d1e26f7f96f59813d728f3ca98f426a6fb2a3f8ebc51202839e9660f",
    ),
    "rates-two-le-p-lt-u": (
        ["rates", "--regime", "two-le-p-lt-u", "--trials", "4",
         "--budgets", "2^6,2^7,2^8,2^9", "--seed", "3"],
        "6d41cc30bc98ffcdadb302703679dc470fa15b5dec5ba74af6992e05e09e300b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(name, capsys):
    argv, digest = GOLDEN[name]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["rates", "ds"])
def test_worker_count_keeps_the_bytes(name, capsys):
    # Every trial of every cell goes through one pool; its chunking must not
    # reach the output. The rates case holds the saturated check, whose
    # cells run 16x the trials of the others.
    argv, _ = GOLDEN[name]
    outputs = []
    for workers in ("1", "2"):
        assert run([*argv, "--workers", workers]) == 0
        lines = capsys.readouterr().out.splitlines()
        outputs.append([line for line in lines if not line.startswith("# workers=")])
    assert outputs[0] == outputs[1]


def test_dense_input_digest(tmp_path, monkeypatch, capsys):
    # A fixed dense matrix from a file, run through a3. The file is named
    # relative to tmp_path, so the "family=file:m.npy" header is stable.
    monkeypatch.chdir(tmp_path)
    np.save("m.npy", np.arange(48, dtype=np.float64).reshape(6, 8) % 7 - 3.0)
    assert run(["estimate", "--input", "m.npy", "--alg", "a3", "--p", "1",
                "--u", "inf", "--n", "64", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b7e68390907ea2f5886a2d286088ada7f63e61a2bf92897c55b77b17f394eb3a"
    )


@pytest.mark.parametrize(
    "alg, digest",
    [
        ("a2", "279c47bf51e82174b36ecf21fb630e0b96fb1b142df50d201173b7ed0e5a594c"),
        ("a3", "fc9ff1d98b8da70ee72f4ecabff10f2cde8893b594ffca2ffe1205b600e54470"),
    ],
    ids=["a2", "a3"],
)
def test_dense_irrational_input_digest(alg, digest, tmp_path, monkeypatch, capsys):
    # Square roots round in every sum, so this pins the order of the
    # estimators' reductions (means, medians, allocation) on a dense input.
    monkeypatch.chdir(tmp_path)
    np.save("m.npy", np.sqrt(np.arange(48.0)).reshape(6, 8) - 3)
    assert run(["estimate", "--input", "m.npy", "--alg", alg, "--p", "1.5",
                "--u", "inf", "--n", "64", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
