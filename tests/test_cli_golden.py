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
        "9ec9c161aad5105347da6e97416d78be88befae767907e1e20e6e38ef2c7a02b",
    ),
    "rates": (
        ["rates", "--regime", "p-lt-2-lt-u", "--trials", "4",
         "--budgets", "2^8,2^10,2^12,2^14", "--seed", "3"],
        "758fb0c2f8abe1c1392d3c7039ddd08b6d0ae122b6dcaa51dab9d4e0f40b82c4",
    ),
    "ds": (
        ["ds", "--k0", "4,5", "--delta", "0.2", "--trials", "4", "--seed", "3"],
        "d7f8180a3883c28954b61ac5b38ca92fe691f7da752a7296e21cbdf41a22f3fd",
    ),
    "norm-est": (
        ["norm-est", "--trials", "50", "--seed", "3"],
        "0ca41c79309bb6b02c06afe1f00bb1a74a82ba76228799df5b636202f4a207ea",
    ),
    "estimate-a2": (
        ["estimate", "--family", "mu2", "--alg", "a2", "--n1", "64", "--n2",
         "64", "--p", "2", "--u", "2", "--n", "4096", "--seed", "3"],
        "dce986af430c7eadd1c4eb9e49349721c75c509c102cb6fa12562f6a1c8a2fc6",
    ),
    "estimate-a3": (
        ["estimate", "--family", "mu4", "--alg", "a3", "--n1", "64", "--n2",
         "64", "--p", "1", "--u", "inf", "--n", "4096", "--seed", "3"],
        "6036e8903d7021d0d9a7ac8b70858caa9bee2974e61041d890245154b0b115ba",
    ),
    # Single spikes are stored as one row; rates p-ge-u samples dense mu3.
    "estimate-mu1-a2": (
        ["estimate", "--family", "mu1", "--alg", "a2", "--n1", "64", "--n2",
         "64", "--p", "1", "--u", "inf", "--n", "4096", "--seed", "3"],
        "ef6fd28c5cc794e57e4957810aadfdf0c8fff1625ec6e3f38b4dce8f763c496c",
    ),
    "rates-p-ge-u": (
        ["rates", "--regime", "p-ge-u", "--trials", "4",
         "--budgets", "2^6,2^7,2^8,2^9", "--seed", "3"],
        "66363dbe6f7792ef5a0cbfe851f4c0c1a16ed946015367a0d5b29fc186b7d31e",
    ),
    # Entries of +-60^(2/3) are not integers, so a3's sums round and their
    # order shows in the digest (64^(2/3) = 16 would be exact in any order).
    "estimate-a3-p1.5": (
        ["estimate", "--family", "mu4", "--alg", "a3", "--n1", "60", "--n2",
         "64", "--p", "1.5", "--u", "inf", "--n", "4096", "--seed", "3"],
        "682ca6e3ba4a339a5e49cbf9fd559b708eef1b7393e12b867d8e26ab1d59c127",
    ),
    # The same instance at a budget whose stage 1 runs in 20 probe-major
    # blocks and stage 2 in 7, with the active row's 100,000 samples
    # spanning 4 of them: a row's sums cut by block boundaries are pinned.
    "estimate-a3-multiblock": (
        ["estimate", "--family", "mu4", "--alg", "a3", "--n1", "60", "--n2",
         "64", "--p", "1.5", "--u", "inf", "--n", "100000", "--seed", "3"],
        "00b5478ef6b8690eefb0df4c8a7f4f8f884c0579b24ab9747971a3d7999f57cc",
    ),
    # The two regimes with one a2 curve each, so every row of the rates
    # table is pinned.
    "rates-p-lt-u-le-2": (
        ["rates", "--regime", "p-lt-u-le-2", "--trials", "4",
         "--budgets", "2^6,2^7,2^8,2^9", "--seed", "3"],
        "c08320b485f777e97966284c31fdf4e9d589cc6bc5801922a1d70009710a2f9e",
    ),
    "rates-two-le-p-lt-u": (
        ["rates", "--regime", "two-le-p-lt-u", "--trials", "4",
         "--budgets", "2^6,2^7,2^8,2^9", "--seed", "3"],
        "47bebd442fd07450c265265b25603bbb6dd3d868609dd358d0db4fbdd50c0f57",
    ),
    # One case per remaining branch of the table output: TSV with the
    # default budget ladder, fits that are not available with an explicit
    # m, a single ds mode (no ratio lines), a3's allocation summary, and a
    # norm-est population given on the command line.
    "rates-tsv": (
        ["rates", "--regime", "p-ge-u", "--trials", "4", "--seed", "3",
         "--format", "tsv"],
        "8c7cb680bd6c4f9ec84a7db65eecd8483b77ee3c654ebdb607c7df66ee583e28",
    ),
    "gap-no-fit": (
        ["gap", "--budgets", "256,512", "--m", "3", "--trials", "4", "--seed", "3"],
        "db8c546635bd569b527a54a03870e36fe8f3fc01363398a42985c4f3e04c23a0",
    ),
    "ds-nonadaptive": (
        ["ds", "--k0", "4", "--delta", "0.2", "--trials", "4", "--mode",
         "nonadaptive", "--m", "3", "--k-max", "8", "--seed", "3"],
        "783a2ed6e89624820d14232543b9d244f8395bd5f9c63c1a734f60a98e67b5a6",
    ),
    "estimate-allocation-summary": (
        ["estimate", "--family", "mu4", "--alg", "a3", "--n1", "80", "--n2",
         "16", "--p", "1", "--u", "inf", "--n", "1024", "--seed", "3"],
        "f1c1f6de491e39c90933d9a7fd67376fba0663081784733c1d6641f2c792c093",
    ),
    "norm-est-population": (
        ["norm-est", "--population", "1,2", "--v", "1.5", "--budgets",
         "16,32,64,128", "--trials", "10", "--seed", "3"],
        "3cc5844f89055a01580cefd2bc42936fa782acb4041280cc0785d2aa04444c19",
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
        "a764d9bd2300d996d2a0c3c32071bfc690dec3e64516d0e28952c5113143a1fc"
    )


@pytest.mark.parametrize(
    "alg, n, digest",
    [
        ("a2", 64, "eb32dc3cbf4bdd04828b82af353cde2776a5634a51eacb74d6c318240b432d3b"),
        ("a3", 64, "812b9bc2336bbbff26c65ca063298a5b0fbacbb8f65347dae244658f9e9dedb9"),
        # Stage 2 in several blocks, each row's samples cut by their bounds.
        ("a3", 100000,
         "c1c6d4669f938b2dad5ae223c0c364c13ecbd8b05962d573648ec8fdab2b1fb9"),
    ],
    ids=["a2", "a3", "a3-multiblock"],
)
def test_dense_irrational_input_digest(alg, n, digest, tmp_path, monkeypatch, capsys):
    # Square roots round in every sum, so this pins the order of the
    # estimators' reductions (means, medians, allocation) on a dense input.
    monkeypatch.chdir(tmp_path)
    np.save("m.npy", np.sqrt(np.arange(48.0)).reshape(6, 8) - 3)
    assert run(["estimate", "--input", "m.npy", "--alg", alg, "--p", "1.5",
                "--u", "inf", "--n", str(n), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
