"""Byte-level pins of CLI output.

Each case runs one CLI command at a fixed seed and compares the sha256 of
its stdout with a stored digest. The digests pin the random streams, the
estimators and the number formatting together, so a speed-up that claims
byte-identical output is checked here. A change that moves a digest on
purpose replaces it and says why in CHANGES.md.
"""

import hashlib

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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(name, capsys):
    argv, digest = GOLDEN[name]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
