import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adaptgap.cli import (
    DEFAULT_SEED,
    build_parser,
    fmt_exponent,
    parse_budgets,
    run,
)
from adaptgap.estimators import run_a2
from adaptgap.rng import RngStream
from adaptgap.spaces import MixedMatrix, ProblemSpec, scalar_mean


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_budget_tokens(self):
        assert parse_budgets("64,2^8,1024") == [64, 256, 1024]

    def test_budget_must_increase(self):
        with pytest.raises(Exception):
            parse_budgets("64,64")

    def test_exponent_formatting(self):
        assert fmt_exponent(float("inf")) == "inf"
        assert fmt_exponent(2.0) == "2"
        assert fmt_exponent(1.5) == "1.5"

    def test_unknown_regime_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["rates", "--regime", "bogus"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("command", ["estimate", "rates", "gap", "ds", "norm-est"])
    def test_workers_below_one_is_usage_error(self, command, workers, capsys):
        argv = [command, "--workers", workers]
        if command == "rates":
            argv += ["--regime", "p-lt-2-lt-u"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "workers must be at least 1" in out.err


class TestEstimate:
    ARGS = [
        "estimate", "--family", "mu2", "--alg", "a2", "--n1", "16",
        "--n2", "16", "--p", "2", "--u", "2", "--n", "128", "--seed", "7",
    ]

    def test_deterministic_report(self, capsys):
        code1, out1, _ = capture(capsys, self.ARGS)
        code2, out2, _ = capture(capsys, self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "value=" in out1 and "true_mean=" in out1 and "card=128" in out1

    def test_a3_reports_allocation(self, capsys):
        code, out, _ = capture(
            capsys,
            ["estimate", "--family", "mu4", "--alg", "a3", "--n1", "8",
             "--n2", "8", "--p", "1", "--u", "inf", "--n", "64", "--seed", "3"],
        )
        assert code == 0
        assert "stage_cards=" in out
        assert "allocation=" in out

    def test_a3_budget_below_rows_fails(self, capsys):
        code, _, err = capture(
            capsys,
            ["estimate", "--alg", "a3", "--family", "mu4", "--n", "10",
             "--n1", "64", "--n2", "64", "--p", "1", "--u", "inf"],
        )
        assert code == 3
        assert "error" in err

    def test_a3_needs_u_above_two(self, capsys):
        code, _, err = capture(
            capsys,
            ["estimate", "--family", "mu4", "--alg", "a3", "--n1", "8",
             "--n2", "8", "--p", "1", "--u", "2.0", "--n", "64"],
        )
        assert code == 3
        assert "u" in err

    def test_matrix_from_file(self, capsys, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.ones((4, 4)))
        code, out, _ = capture(
            capsys,
            ["estimate", "--input", str(path), "--alg", "a2", "--p", "1",
             "--u", "inf", "--n", "32", "--seed", "1"],
        )
        assert code == 0
        assert "true_mean=1.0" in out
        assert "abs_error=0.0" in out

    @pytest.mark.parametrize("shape", [(16,), (2, 4, 4)])
    def test_input_must_be_2d(self, capsys, tmp_path, shape):
        path = tmp_path / "f.npy"
        np.save(path, np.ones(shape))
        code, out, err = capture(
            capsys, ["estimate", "--input", str(path), "--n", "8"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_complex_input_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "c.npy"
        np.save(path, np.full((3, 4), 1 + 5j))
        code, out, err = capture(
            capsys, ["estimate", "--input", str(path), "--n", "10"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a3_input_near_overflow(self, capsys, tmp_path):
        entries = np.where(np.arange(64).reshape(8, 8) % 3 == 0, 1e200, -1e200)
        path = tmp_path / "f.npy"
        argv = ["estimate", "--input", str(path), "--alg", "a3", "--p", "1",
                "--u", "inf", "--n", "64", "--seed", "1"]

        def report(matrix):
            np.save(path, matrix)
            code, out, err = capture(capsys, argv)
            assert code == 0, err
            return dict(l.split("=", 1) for l in out.splitlines() if l[0] != "#")

        big = report(entries)
        small = report(np.ldexp(entries, -600))
        # Same stream, exactly scaled input: exactly scaled estimate, same
        # cost and allocation.
        assert float(big["value"]) == math.ldexp(float(small["value"]), 600)
        for key in ("card", "stage_cards", "allocation"):
            assert big[key] == small[key]

    def test_a3_input_whose_powers_overflow(self, capsys, tmp_path):
        # a_tilde**p is past the float range at p = 1.9; the allocation is
        # taken on a_tilde scaled down by a power of two.
        entries = np.where(np.arange(64).reshape(8, 8) % 3 == 0, 1e200, -1e200)
        path = tmp_path / "f.npy"
        np.save(path, entries)
        code, out, err = capture(
            capsys,
            ["estimate", "--input", str(path), "--alg", "a3", "--p", "1.9",
             "--u", "inf", "--n", "64"],
        )
        assert code == 0, err
        values = dict(l.split("=", 1) for l in out.splitlines() if l[0] != "#")
        assert math.isfinite(float(values["value"]))

    @pytest.mark.filterwarnings("error")
    def test_input_whose_mean_overflows_is_usage_error(self, capsys, tmp_path):
        # The exact mean of these entries overflows, so there is nothing to
        # measure an estimate against.
        entries = np.where(np.arange(64).reshape(8, 8) % 2 == 0, 1.7e308, -1.7e308)
        path = tmp_path / "f.npy"
        np.save(path, entries)
        code, out, err = capture(
            capsys,
            ["estimate", "--input", str(path), "--alg", "a3", "--p", "1",
             "--u", "inf", "--n", "64"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_estimate_that_overflows_is_reported(self, capsys, tmp_path):
        entries = np.array([[1.7e308, -1.7e308], [1.7e308, -1.7e308]])
        path = tmp_path / "f.npy"
        np.save(path, entries)
        f = MixedMatrix(ProblemSpec(2, 2, 2.0, 2.0), entries)
        assert scalar_mean(f) == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_a2(f, 64, RngStream(1).child(1))
        assert not math.isfinite(report.value)
        code, out, err = capture(
            capsys,
            ["estimate", "--input", str(path), "--alg", "a2", "--n", "64",
             "--seed", "1"],
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_module_runs_as_a_script():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "adaptgap.cli", "estimate", "--n", "16",
         "--n1", "4", "--n2", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("value=") for line in proc.stdout.splitlines())


class TestGap:
    SMALL = ["gap", "--budgets", "256,512", "--c3", "5", "--trials", "30",
             "--seed", "5"]

    def test_roundtrip_bytes(self, capsys):
        code1, out1, _ = capture(capsys, self.SMALL)
        code2, out2, _ = capture(capsys, self.SMALL)
        assert code1 == code2 == 0
        assert out1 == out2
        header = [l for l in out1.splitlines() if l.startswith("#")]
        assert any("c3=5.0" in l for l in header)
        assert any("seed=5" in l for l in header)

    def test_workers_agree(self, capsys):
        _, serial, _ = capture(capsys, self.SMALL + ["--workers", "1"])
        _, parallel, _ = capture(capsys, self.SMALL + ["--workers", "2"])
        serial = [l for l in serial.splitlines() if "workers" not in l]
        parallel = [l for l in parallel.splitlines() if "workers" not in l]
        assert serial == parallel

    def test_small_c3_violates_regime(self, capsys):
        code, _, err = capture(
            capsys, ["gap", "--budgets", "1024", "--c3", "0.1", "--trials", "30"]
        )
        assert code == 3
        assert "n < c0*N1*N2" in err

    def test_tsv_output(self, capsys):
        code, out, _ = capture(capsys, self.SMALL + ["--format", "tsv"])
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert all("\t" in l for l in data)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "gap.csv"
        code, out, _ = capture(capsys, self.SMALL + ["--out", str(path)])
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("# adaptgap gap")


class TestOtherCommands:
    def test_rates_smoke(self, capsys):
        code, out, _ = capture(
            capsys,
            ["rates", "--regime", "p-ge-u", "--budgets", "64,128,256,512",
             "--trials", "40", "--seed", "2"],
        )
        assert code == 0
        assert "family,estimator" in out
        assert "fit row-spike mean" in out

    def test_ds_smoke(self, capsys):
        code, out, _ = capture(
            capsys,
            ["ds", "--k0", "4", "--delta", "0.2", "--trials", "5",
             "--seed", "3"],
        )
        assert code == 0
        assert "adaptive" in out and "nonadaptive" in out
        assert "ratio k0=4" in out

    def test_ds_single_mode(self, capsys):
        code, out, _ = capture(
            capsys,
            ["ds", "--k0", "4", "--delta", "0.2", "--trials", "5",
             "--mode", "nonadaptive", "--seed", "3"],
        )
        assert code == 0
        assert "ratio" not in out

    def test_norm_est_smoke(self, capsys):
        code, out, _ = capture(
            capsys,
            ["norm-est", "--v", "2", "--u", "inf",
             "--budgets", "16,32,64,128", "--trials", "50", "--seed", "4"],
        )
        assert code == 0
        assert "rms_dev" in out
        assert "true norm: 1.0" in out


class TestSeedResolution:
    def test_default_seed_in_header(self, capsys, monkeypatch):
        monkeypatch.delenv("ADAPTGAP_SEED", raising=False)
        _, out, _ = capture(
            capsys, ["estimate", "--n1", "4", "--n2", "4", "--n", "8"]
        )
        assert f"seed={DEFAULT_SEED}" in out

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ADAPTGAP_SEED", "99")
        _, out, _ = capture(
            capsys, ["estimate", "--n1", "4", "--n2", "4", "--n", "8"]
        )
        assert "seed=99" in out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ADAPTGAP_SEED", "99")
        _, out, _ = capture(
            capsys,
            ["estimate", "--n1", "4", "--n2", "4", "--n", "8", "--seed", "1"],
        )
        assert "seed=1" in out
