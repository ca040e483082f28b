import argparse
import math
import os
import platform
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
from adaptgap.hard_instances import Variant
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
        if command == "estimate":
            # estimate runs in one process and takes no --workers at all.
            assert f"unrecognized arguments: --workers {workers}" in out.err
        else:
            assert "workers must be at least 1" in out.err

    @pytest.mark.parametrize(
        "option", [["--format", "tsv"], ["--workers", "2"]], ids=["format", "workers"]
    )
    def test_estimate_takes_no_table_options(self, option, capsys):
        # estimate prints one report, not a table, and runs in one process.
        with pytest.raises(SystemExit) as exc:
            run(["estimate", "--alg", "a2", "--n", "16", *option])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in out.err


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

    @pytest.mark.parametrize("family", [v.value for v in Variant])
    def test_every_family_runs_and_is_echoed(self, family, capsys):
        code, out, _ = capture(
            capsys, ["estimate", "--family", family, "--alg", "a2", "--n", "64"]
        )
        assert code == 0
        assert f"# family={family}\n" in out

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["estimate", "--family", "mu9", "--alg", "a2", "--n", "64"])
        assert exc.value.code == 2
        assert "invalid choice: 'mu9'" in capsys.readouterr().err

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


def test_budget_beyond_memory_is_usage_error(capsys):
    # a2's plan is drawn as it is answered, so nothing refuses 2^62 queries
    # for lack of memory: draw_plan refuses any count above 2^53 at once.
    code, out, err = capture(capsys, ["estimate", "--n", str(2**62)])
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert str(2**62) in err


def test_entries_beyond_int64_flat_indices_are_usage_error(capsys):
    # One active row of 4 entries stands for 2^64 entries, which a plan's
    # int64 flat indices cannot address.
    argv = ["estimate", "--alg", "a2", "--family", "mu4", "--n1", str(2**62),
            "--n2", "4", "--n", "8"]
    code, out, err = capture(capsys, argv)
    assert code == 2
    assert out == "" and err.startswith("error: ") and str(2**64) in err
    # A gap budget of 2^1000 gives N1 = N2 = 5 * 2^500: its spec is refused
    # before any trial runs.
    code, out, err = capture(capsys, ["gap", "--budgets", "2^1000", "--trials", "2"])
    assert code == 2
    assert out == "" and err.startswith("error: N1*N2 = ") and err.count("\n") == 1
    assert "N1*N2 = 2^502 or more*2^502 or more = 2^1004 or more " in err


def test_huge_sides_are_named_by_a_power_of_two(capsys):
    # N1 = ceil(1e300 * 32) exceeds the budget 1024, and is named as 2^1001
    # or more rather than in its 302 digits.
    code, out, err = capture(capsys, ["gap", "--c3", "1e300", "--trials", "2"])
    assert code == 3
    assert out == "" and err == "error: budget n = 1024 is below N1 = 2^1001 or more\n"
    # So is a budget that fails the regime guard.
    argv = ["gap", "--budgets", "2^1000", "--c0", "1e-300", "--trials", "2"]
    code, out, err = capture(capsys, argv)
    assert code == 3
    assert out == "" and err.startswith("error: budget n = 2^1000 or more violates ")
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--budgets", "2^2000", "--trials", "2"],
        ["rates", "--regime", "p-lt-2-lt-u", "--budgets", "2^2000,2^2001",
         "--trials", "2"],
        ["gap", "--c3", "1e308", "--budgets", "1024", "--trials", "2"],
    ],
    ids=["gap-budget", "rates-budgets", "gap-c3"],
)
def test_instance_sides_beyond_floats_are_precondition_violations(argv, capsys):
    code, out, err = capture(capsys, argv)
    assert code == 3
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "beyond the float range" in err


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (subs,) = [action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    return subs.choices


#: A small run of each subcommand.
SMALL_RUNS = {
    "estimate": ["--n1", "4", "--n2", "4", "--n", "8"],
    "rates": ["--regime", "p-ge-u", "--budgets", "64,128,256,512", "--trials", "2"],
    "gap": ["--budgets", "256", "--trials", "2"],
    "ds": ["--k0", "4", "--delta", "0.2", "--mode", "adaptive", "--trials", "2"],
    "norm-est": ["--budgets", "16", "--trials", "2"],
}


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_header_echoes_every_option(command, capsys):
    # --input is echoed as the family it stands in for.
    options = {
        action.dest for action in _subcommands()[command]._actions
        if action.option_strings
        and action.dest not in {"help", "out", "format", "input"}
    }
    code, out, err = capture(capsys, [command, *SMALL_RUNS[command]])
    assert code == 0, err
    echoed = {line[2:].split("=", 1)[0] for line in out.splitlines()
              if line.startswith("# ")}
    assert options - echoed == set()


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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc")
def test_block_temporaries_stay_on_the_heap():
    # A fresh process runs one gap cell twice, through the CLI and through
    # the library. The second run reuses the heap the first one left,
    # instead of faulting its block temporaries in again block by block
    # (some 2,000 faults with glibc's default thresholds).
    src = Path(__file__).resolve().parents[1] / "src"
    runs = (
        "from adaptgap.cli import run\n"
        "argv = ['gap', '--budgets', '16384', '--trials', '4', '--seed', '1']\n"
        "def once():\n"
        "    assert run(argv) == 0\n",
        "from adaptgap.harness import gap_experiment\n"
        "def once():\n"
        "    gap_experiment([16384], 5.0, 4, 1)\n",
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        env.pop(name, None)
    for setup in runs:
        script = setup + (
            "import contextlib, io, resource\n"
            "for _ in range(2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        once()\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        first, second = map(int, proc.stdout.split())
        assert second < 200, (setup, first, second)


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

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "gap.csv"
        code, out, err = capture(
            capsys, ["gap", "--trials", "2", "--budgets", "256", "--out", str(path)]
        )
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_infinite_c3_is_precondition_violation(self, capsys):
        code, _, err = capture(
            capsys, ["gap", "--trials", "2", "--budgets", "256", "--c3", "inf"]
        )
        assert code == 3
        assert err == "error: c3 must be finite\n"


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

    def test_ds_runs_at_its_defaults(self, capsys):
        # At delta = (alpha - 1) / 2 = 0.25, level 10 was scheduled 1023
        # samples, below N_10 = 1024, and ds exited 3.
        code, out, err = capture(capsys, ["ds", "--trials", "2"])
        assert code == 0 and err == ""
        assert "# delta=0.24\n" in out
        assert "ratio k0=6" in out

    def test_norm_est_smoke(self, capsys):
        code, out, _ = capture(
            capsys,
            ["norm-est", "--v", "2", "--u", "inf",
             "--budgets", "16,32,64,128", "--trials", "50", "--seed", "4"],
        )
        assert code == 0
        assert "rms_dev" in out
        assert "true norm: 1.0" in out

    @pytest.mark.parametrize(
        "argv, norm",
        [
            (["--v", "1e308"], "2.0"),
            (["--population", "1e-200,0", "--v", "2"], "7.071067811865475e-201"),
        ],
    )
    def test_norm_est_at_extreme_powers(self, argv, norm, capsys):
        code, out, _ = capture(
            capsys, ["norm-est", *argv, "--budgets", "16,32,64,128", "--trials", "2"]
        )
        assert code == 0
        assert f"# true norm: {norm}\n" in out
        assert "nan" not in out

    def test_norm_est_deviations_below_the_normal_range(self, capsys):
        # Deviations of about 1e-201 square to 0 in float64.
        code, out, _ = capture(
            capsys, ["norm-est", "--population", "1e-200,0", "--v", "2",
                     "--budgets", "16,32,64,128", "--trials", "2"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()
                if line and not line.startswith(("#", "v,"))]
        assert len(rows) == 4
        assert all(0.0 < float(row[5]) < 1e-200 for row in rows)
        assert "# fit rms deviation: slope=" in out

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_ds_nonfinite_alpha_is_precondition_violation(self, alpha, capsys):
        code, out, err = capture(capsys, ["ds", "--alpha", alpha, "--trials", "2"])
        assert code == 3
        assert out == ""
        assert err == f"error: alpha must be finite and exceed 1, got {alpha}\n"

    def test_ds_k0_above_the_levels_is_precondition_violation(self, capsys):
        code, out, err = capture(capsys, ["ds", "--k0", "600", "--trials", "2"])
        assert code == 3
        assert out == ""
        assert err == "error: k0 must be a positive integer at most 12, got 600\n"

    @pytest.mark.parametrize("population", ["nan,1", "inf,1"])
    def test_norm_est_nonfinite_population(self, population, capsys):
        code, out, err = capture(
            capsys, ["norm-est", "--population", population, "--trials", "2",
                     "--budgets", "16"],
        )
        assert code == 3
        assert out == "" and err == "error: population entries must be finite\n"


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
