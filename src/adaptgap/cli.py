"""Command-line front end.

Subcommands: ``estimate`` (one estimator run on one sampled or loaded
instance), ``rates`` (regime rate curves), ``gap`` (adaptive vs non-adaptive
at matched budgets), ``ds`` (direct-sum composites), and ``norm-est``
(norm-estimation deviation curve).

Outputs are plot-ready CSV (or TSV) on stdout or ``--out``; every run echoes
its full effective configuration as ``#`` header lines and contains no
timestamps, so a rerun with the same seed reproduces the output byte for
byte. The master seed defaults to a fixed constant, overridable by the
``ADAPTGAP_SEED`` environment variable and then by ``--seed``.

Exit status: 0 on success, 2 on usage errors (an ``--input`` matrix whose
exact mean is not finite included), 3 on regime or precondition violations
and on an estimate that is not finite.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from .errors import AdaptGapError, NonfiniteError
from .estimators import run_a2, run_a3
from .hard_instances import HardFamily, Variant
from .oracle import Mode
from .rng import RngStream
from .spaces import INF, MixedMatrix, ProblemSpec, as_exponent, scalar_mean

__all__ = ["DEFAULT_SEED", "run", "main"]

#: Published default master seed; see module docstring for overrides.
DEFAULT_SEED = 0x5EED

MEASUREMENT_COLUMNS = (
    "family", "estimator", "p", "u", "n1", "n2", "n", "trials",
    "rms", "stderr", "mean_card", "seed", "mae",
)

GAP_COLUMNS = (
    "n", "n1", "n2", "trials", "rms_a2", "stderr_a2", "rms_a3", "stderr_a3",
    "ratio", "mean_card_a2", "mean_card_a3", "seed",
)

DS_COLUMNS = ("k0", "mode", "trials", "rms", "stderr", "mean_card", "seed")

NORM_COLUMNS = ("v", "u", "pop_size", "n", "trials", "rms_dev", "stderr", "seed")


def fmt_float(x: float) -> str:
    return repr(float(x))


def fmt_exponent(e: float) -> str:
    if e == INF:
        return "inf"
    e = float(e)
    return str(int(e)) if e.is_integer() else repr(e)


def parse_exponent(text: str):
    try:
        value = INF if text.strip().lower() == "inf" else float(text)
        return as_exponent(value)
    except (AdaptGapError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_budgets(text: str) -> list[int]:
    """Comma-separated budgets; each token is an integer or ``2^k``."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if "^" in token:
            base, _, exp = token.partition("^")
            out.append(int(base) ** int(exp))
        else:
            out.append(int(token))
    if not out or any(b < 1 for b in out):
        raise argparse.ArgumentTypeError("budgets must be positive integers")
    if any(b2 <= b1 for b1, b2 in zip(out, out[1:])):
        raise argparse.ArgumentTypeError("budgets must be strictly increasing")
    return out


def parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def parse_workers(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {workers}")
    return workers


def parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("ADAPTGAP_SEED")
    if env:
        return int(env)
    return DEFAULT_SEED


def _render(columns, data_rows, header_lines, footer_lines, sep) -> str:
    lines = [f"# {h}" for h in header_lines]
    lines.append(sep.join(columns))
    lines.extend(sep.join(row) for row in data_rows)
    lines.extend(f"# {f}" for f in footer_lines)
    return "\n".join(lines) + "\n"


def _config_header(command: str, params: dict) -> list[str]:
    lines = [f"adaptgap {command}"]
    for key in sorted(params):
        lines.append(f"{key}={params[key]}")
    return lines


def _fit_lines(label: str, fit, target=None) -> list[str]:
    if fit is None:
        return [f"fit {label}: not available"]
    line = (
        f"fit {label}: slope={fmt_float(fit.slope)} "
        f"intercept={fmt_float(fit.intercept)} r2={fmt_float(fit.r_squared)}"
    )
    if target is not None:
        line += f" target={fmt_float(target)}"
    return [line]


def measurement_data_rows(rows) -> list[list[str]]:
    return [
        [
            r.family,
            r.estimator,
            fmt_exponent(r.p),
            fmt_exponent(r.u),
            str(r.n1),
            str(r.n2),
            str(r.n),
            str(r.trials),
            fmt_float(r.rms),
            fmt_float(r.stderr),
            fmt_float(r.mean_card),
            str(r.seed),
            fmt_float(r.mae),
        ]
        for r in rows
    ]


def render_rates(report: harness.RateReport, header: list[str], sep: str) -> str:
    rows = []
    footer = []
    for check in report.checks:
        rows.extend(measurement_data_rows(check.rows))
        footer.extend(
            _fit_lines(
                f"{check.label} [{check.estimator}]", check.fit, check.target_slope
            )
        )
        if check.predicted is not None:
            pairs = " ".join(
                f"n={r.n}:{fmt_float(pred)}"
                for r, pred in zip(check.rows, check.predicted)
            )
            footer.append(f"predicted {check.label}: {pairs}")
    return _render(MEASUREMENT_COLUMNS, rows, header, footer, sep)


def render_gap(result: harness.GapResult, header: list[str], sep: str) -> str:
    rows = [
        [
            str(r.n),
            str(r.n1),
            str(r.n2),
            str(r.trials),
            fmt_float(r.rms_a2),
            fmt_float(r.stderr_a2),
            fmt_float(r.rms_a3),
            fmt_float(r.stderr_a3),
            fmt_float(r.ratio),
            fmt_float(r.mean_card_a2),
            fmt_float(r.mean_card_a3),
            str(result.seed),
        ]
        for r in result.rows
    ]
    footer = []
    footer.extend(_fit_lines("ratio rms_a2/rms_a3", result.ratio_fit, 0.25))
    footer.extend(_fit_lines("rms_a2", result.a2_fit, -0.25))
    footer.extend(_fit_lines("rms_a3", result.a3_fit, -0.5))
    return _render(GAP_COLUMNS, rows, header, footer, sep)


def render_ds(result: harness.DsResult, header: list[str], sep: str) -> str:
    rows = [
        [
            str(r.k0),
            r.mode,
            str(r.trials),
            fmt_float(r.rms),
            fmt_float(r.stderr),
            fmt_float(r.mean_card),
            str(result.seed),
        ]
        for r in result.rows
    ]
    footer = [
        f"ratio k0={k0}: nonadaptive/adaptive={fmt_float(ratio)}"
        for k0, ratio in result.ratios
    ]
    return _render(DS_COLUMNS, rows, header, footer, sep)


def render_norm(result: harness.NormEstResult, header: list[str], sep: str) -> str:
    rows = [
        [
            fmt_exponent(result.v),
            fmt_exponent(result.u),
            str(result.population_size),
            str(r.n),
            str(r.trials),
            fmt_float(r.rms_dev),
            fmt_float(r.stderr),
            str(result.seed),
        ]
        for r in result.rows
    ]
    footer = _fit_lines("rms deviation", result.fit, result.target_slope)
    footer.append(f"true norm: {fmt_float(result.true_norm)}")
    return _render(NORM_COLUMNS, rows, header, footer, sep)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_FAMILIES = {
    "mu1": Variant.SINGLE_SPIKE,
    "mu2": Variant.FULL_BERNOULLI,
    "mu3": Variant.ROW_SPIKES,
    "mu4": Variant.ACTIVE_ROW_BERNOULLI,
}


def _cmd_estimate(args) -> str:
    seed = resolve_seed(args.seed)
    stream = RngStream(seed)
    if args.input:
        entries = np.load(args.input)
        if entries.ndim != 2:
            raise ValueError(
                f"--input must hold a 2-D matrix, got shape {entries.shape}"
            )
        spec = ProblemSpec(entries.shape[0], entries.shape[1], args.p, args.u)
        f = MixedMatrix(spec, entries)
        family_name = f"file:{args.input}"
    else:
        spec = ProblemSpec(args.n1, args.n2, args.p, args.u)
        family = HardFamily(_FAMILIES[args.family], spec)
        f = family.sample(stream.child(0))
        family_name = args.family
    # Sums of entries near the float maximum can overflow; both results are
    # checked below, so numpy's warnings would only repeat the error line.
    with np.errstate(over="ignore", invalid="ignore"):
        truth = scalar_mean(f)
        if not math.isfinite(truth):
            raise ValueError(f"the mean of the instance is not finite: {truth}")
        if args.alg == "a2":
            report = run_a2(f, args.n, stream.child(1))
        else:
            report = run_a3(f, args.n, args.m, stream.child(1))
    if not math.isfinite(report.value):
        raise NonfiniteError(
            f"the {args.alg} estimate is not finite ({report.value}) "
            "although the mean is; the entries are too close to overflow"
        )

    lines = [f"# {h}" for h in _config_header(
        "estimate",
        {
            "alg": args.alg,
            "family": family_name,
            "n": args.n,
            "n1": spec.n1,
            "n2": spec.n2,
            "p": fmt_exponent(spec.p),
            "u": fmt_exponent(spec.u),
            "seed": seed,
        },
    )]
    lines.append(f"value={fmt_float(report.value)}")
    lines.append(f"true_mean={fmt_float(truth)}")
    lines.append(f"abs_error={fmt_float(abs(report.value - truth))}")
    lines.append(f"card={report.cards}")
    if report.stage_cards is not None:
        lines.append(f"stage_cards={report.stage_cards[0]},{report.stage_cards[1]}")
    if report.allocation is not None:
        alloc = report.allocation
        if alloc.size <= 64:
            lines.append("allocation=" + ",".join(str(int(v)) for v in alloc))
        else:
            lines.append(
                f"allocation_summary=min:{int(alloc.min())},"
                f"max:{int(alloc.max())},sum:{int(alloc.sum())}"
            )
    return "\n".join(lines) + "\n"


def _cmd_rates(args) -> str:
    seed = resolve_seed(args.seed)
    report = harness.rate_experiment(
        harness.Regime(args.regime),
        budgets=args.budgets,
        trials=args.trials,
        seed=seed,
        c0=args.c0,
        workers=args.workers,
    )
    header = _config_header(
        "rates",
        {
            "budgets": ",".join(str(b) for b in (args.budgets or [])) or "default",
            "c0": fmt_float(args.c0),
            "regime": args.regime,
            "seed": seed,
            "trials": args.trials,
            "workers": args.workers,
        },
    )
    return render_rates(report, header, args.sep)


def _cmd_gap(args) -> str:
    seed = resolve_seed(args.seed)
    result = harness.gap_experiment(
        args.budgets,
        args.c3,
        args.trials,
        seed,
        m=args.m,
        c0=args.c0,
        workers=args.workers,
    )
    header = _config_header(
        "gap",
        {
            "budgets": ",".join(str(b) for b in args.budgets),
            "c0": fmt_float(args.c0),
            "c3": fmt_float(args.c3),
            "m": "default" if args.m is None else args.m,
            "seed": seed,
            "trials": args.trials,
            "workers": args.workers,
        },
    )
    return render_gap(result, header, args.sep)


def _cmd_ds(args) -> str:
    seed = resolve_seed(args.seed)
    modes = {
        "adaptive": (Mode.ADAPTIVE,),
        "nonadaptive": (Mode.NONADAPTIVE,),
        "both": (Mode.ADAPTIVE, Mode.NONADAPTIVE),
    }[args.mode]
    result = harness.ds_experiment(
        k0_values=args.k0,
        trials=args.trials,
        seed=seed,
        alpha=args.alpha,
        p=args.p,
        u=args.u,
        p1=args.p1,
        delta=args.delta,
        c0=args.c0,
        m=args.m,
        k_max=args.k_max,
        modes=modes,
        workers=args.workers,
    )
    header = _config_header(
        "ds",
        {
            "alpha": fmt_float(result.alpha),
            "c0": fmt_float(result.c0),
            "delta": fmt_float(result.delta),
            "k0": ",".join(str(k) for k in args.k0),
            "k_max": result.k_max,
            "m": "default" if result.m is None else result.m,
            "mode": args.mode,
            "p": fmt_exponent(result.p),
            "p1": fmt_exponent(args.p1),
            "seed": seed,
            "trials": args.trials,
            "u": fmt_exponent(result.u),
            "workers": args.workers,
        },
    )
    return render_ds(result, header, args.sep)


def _cmd_norm_est(args) -> str:
    seed = resolve_seed(args.seed)
    result = harness.norm_deviation_experiment(
        args.population,
        args.v,
        args.budgets,
        args.trials,
        seed,
        u=args.u,
        workers=args.workers,
    )
    header = _config_header(
        "norm-est",
        {
            "budgets": ",".join(str(b) for b in args.budgets),
            "population": ",".join(fmt_float(x) for x in args.population),
            "seed": seed,
            "trials": args.trials,
            "u": fmt_exponent(args.u),
            "v": fmt_exponent(args.v),
            "workers": args.workers,
        },
    )
    return render_norm(result, header, args.sep)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (default: ADAPTGAP_SEED or %(default)s)")
    sub.add_argument("--out", type=Path, default=None,
                     help="write output to this path instead of stdout")
    sub.add_argument("--format", choices=("csv", "tsv"), default="csv")
    sub.add_argument("--workers", type=parse_workers, default=1,
                     help="parallel trial workers (any count is bitwise equivalent)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptgap",
        description="Randomized mean estimation benchmarks on mixed-norm spaces",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="run one estimator on one instance")
    est.add_argument("--family", choices=sorted(_FAMILIES), default="mu2")
    est.add_argument("--alg", choices=("a2", "a3"), default="a2")
    est.add_argument("--n1", type=int, default=64)
    est.add_argument("--n2", type=int, default=64)
    est.add_argument("--p", type=parse_exponent, default=2.0)
    est.add_argument("--u", type=parse_exponent, default=2.0)
    est.add_argument("--n", type=int, default=1024, help="sample budget")
    est.add_argument("--m", type=int, default=None,
                     help="stage-one repetitions (a3 only; default log2(N1+1))")
    est.add_argument("--input", type=Path, default=None,
                     help="load the instance from a .npy matrix instead of sampling")
    _add_common(est)
    est.set_defaults(func=_cmd_estimate)

    rates = subs.add_parser("rates", help="rate curves per exponent regime")
    rates.add_argument("--regime", required=True,
                       choices=[r.value for r in harness.Regime])
    rates.add_argument("--budgets", type=parse_budgets, default=None)
    rates.add_argument("--trials", type=int, default=300)
    rates.add_argument("--c0", type=float, default=harness.REGIME_GUARD_DEFAULT,
                       help="regime guard constant in n < c0*N1*N2")
    _add_common(rates)
    rates.set_defaults(func=_cmd_rates)

    gap = subs.add_parser("gap", help="adaption-gap experiment (p=1, u=inf)")
    gap.add_argument("--budgets", type=parse_budgets,
                     default=[2**10, 2**12, 2**14, 2**16])
    gap.add_argument("--c3", type=float, default=5.0,
                     help="dimension rule N1 = N2 = ceil(c3*sqrt(n))")
    gap.add_argument("--trials", type=int, default=200)
    gap.add_argument("--m", type=int, default=None)
    gap.add_argument("--c0", type=float, default=harness.REGIME_GUARD_DEFAULT)
    _add_common(gap)
    gap.set_defaults(func=_cmd_gap)

    ds = subs.add_parser("ds", help="direct-sum composite experiment")
    ds.add_argument("--alpha", type=float, default=1.5)
    ds.add_argument("--p", type=parse_exponent, default=1.0)
    ds.add_argument("--u", type=parse_exponent, default=INF)
    ds.add_argument("--p1", type=parse_exponent, default=1.0)
    ds.add_argument("--k0", type=parse_int_list, default=[4, 5, 6])
    ds.add_argument("--delta", type=float, default=None,
                    help="decay of level budgets (default (alpha-1)/2)")
    ds.add_argument("--c0", type=float, default=0.5,
                    help="level budget scale constant in (0, 1)")
    ds.add_argument("--m", type=int, default=None)
    ds.add_argument("--k-max", type=int, default=None, dest="k_max")
    ds.add_argument("--mode", choices=("adaptive", "nonadaptive", "both"),
                    default="both")
    ds.add_argument("--trials", type=int, default=200)
    _add_common(ds)
    ds.set_defaults(func=_cmd_ds)

    ne = subs.add_parser("norm-est", help="norm-estimation deviation curve")
    ne.add_argument("--v", type=parse_exponent, default=2.0)
    ne.add_argument("--u", type=parse_exponent, default=INF,
                    help="population regularity label; sets the target exponent")
    ne.add_argument("--population", type=parse_floats, default=[2.0, 0.0, 0.0, 0.0])
    ne.add_argument("--budgets", type=parse_budgets,
                    default=[2**k for k in range(4, 13)])
    ne.add_argument("--trials", type=int, default=1000)
    _add_common(ne)
    ne.set_defaults(func=_cmd_norm_est)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "format"):
        args.sep = "\t" if args.format == "tsv" else ","
    try:
        output = args.func(args)
    except AdaptGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.write_text(output)
    else:
        sys.stdout.write(output)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
