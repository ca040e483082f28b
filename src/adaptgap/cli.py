"""Command-line front end.

Subcommands: ``estimate`` (one estimator run on one sampled or loaded
instance), ``rates`` (regime rate curves), ``gap`` (adaptive vs non-adaptive
at matched budgets), ``ds`` (direct-sum composites), and ``norm-est``
(norm-estimation deviation curve).

Outputs are plot-ready CSV (or TSV) on stdout or ``--out``; every run echoes
its full effective configuration as ``#`` header lines and contains no
timestamps, so a rerun with the same seed reproduces the output byte for
byte. Each command is called with exactly the options its header echoes.
The four table commands are harness experiments, whose :class:`harness.Table`
one function, :func:`render`, prints. The master seed defaults to a fixed
constant, overridable by ``ADAPTGAP_SEED`` and then by ``--seed``.

Exit status: 0 on success, 2 on usage errors (an ``--input`` matrix whose
exact mean is not finite, an instance of 2^63 or more entries, an ``--out``
path that cannot be written and an allocation that fails included), 3 on
regime or precondition violations (instance sides beyond the float range
included) and on an estimate that is not finite.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import harness
from .errors import AdaptGapError, NonfiniteError, PreconditionViolated
from .estimators import run_a2, run_a3
from .hard_instances import HardFamily, Variant
from .rng import RngStream
from .spaces import INF, MixedMatrix, ProblemSpec, as_exponent, scalar_mean

__all__ = ["DEFAULT_SEED", "render", "run", "main"]

#: Published default master seed; see module docstring for overrides.
DEFAULT_SEED = 0x5EED

#: Header parameters and columns that hold an exponent.
_EXPONENT_KEYS = frozenset({"p", "u", "v"})

#: Parsed options that are neither passed to a command nor echoed.
_NOT_ECHOED = frozenset({"command", "func", "out", "format"})


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
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"ADAPTGAP_SEED must be an integer seed, got {env!r}") from None
    return DEFAULT_SEED


def fmt(key: str, value) -> str:
    """A header parameter or table cell as printed."""
    if value is None:
        return "default"
    if isinstance(value, list):
        return ",".join(fmt(key, v) for v in value)
    if key in _EXPONENT_KEYS:
        return fmt_exponent(value)
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _config_header(command: str, params: dict) -> list[str]:
    # An --input path is echoed as the family it stands in for.
    lines = [f"adaptgap {command}"]
    lines.extend(f"{key}={fmt(key, params[key])}" for key in sorted(params)
                 if key != "input")
    return lines


def _footer_line(kind: str, label: str, value) -> str:
    if kind == "fit":
        fit, target = value
        text = "not available" if fit is None else (
            f"slope={fmt_float(fit.slope)} intercept={fmt_float(fit.intercept)} "
            f"r2={fmt_float(fit.r_squared)} target={fmt_float(target)}"
        )
    elif kind == "predicted":
        text = " ".join(f"n={n}:{fmt_float(rms)}" for n, rms in value)
    elif kind == "ratio":
        text = f"nonadaptive/adaptive={fmt_float(value)}"
    else:
        text = fmt_float(value)
    return f"{kind} {label}".rstrip() + f": {text}"


def render(table: harness.Table, header: list[str], sep: str) -> str:
    """The header lines, the column line, the rows and the footer lines."""
    lines = [f"# {h}" for h in header]
    lines.append(sep.join(table.columns))
    for row in table.rows:
        lines.append(sep.join(fmt(key, v) for key, v in zip(table.columns, row)))
    lines.extend(f"# {_footer_line(*item)}" for item in table.footer)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

#: estimate's ``key=value`` lines, and the settings it resolved.
_Report = namedtuple("_Report", "lines settings")


def _cmd_estimate(*, family, alg, n1, n2, p, u, n, m, input, seed) -> _Report:
    if m is not None and m < 1:  # a2 never reads m, but the header echoes it
        raise PreconditionViolated("m must be a positive integer")
    stream = RngStream(seed)
    if input:
        entries = np.load(input)
        if entries.ndim != 2:
            raise ValueError(
                f"--input must hold a 2-D matrix, got shape {entries.shape}"
            )
        spec = ProblemSpec(entries.shape[0], entries.shape[1], p, u)
        f = MixedMatrix(spec, entries)
        family = f"file:{input}"
    else:
        spec = ProblemSpec(n1, n2, p, u)
        f = HardFamily(Variant(family), spec).sample(stream.child(0))
    # Sums of entries near the float maximum can overflow; both results are
    # checked below, so numpy's warnings would only repeat the error line.
    with np.errstate(over="ignore", invalid="ignore"):
        truth = scalar_mean(f)
        if not math.isfinite(truth):
            raise ValueError(f"the mean of the instance is not finite: {truth}")
        if alg == "a2":
            report = run_a2(f, n, stream.child(1))
        else:
            report = run_a3(f, n, m, stream.child(1))
    if not math.isfinite(report.value):
        raise NonfiniteError(
            f"the {alg} estimate is not finite ({report.value}) "
            "although the mean is; the entries are too close to overflow"
        )

    lines = [
        f"value={fmt_float(report.value)}",
        f"true_mean={fmt_float(truth)}",
        f"abs_error={fmt_float(abs(report.value - truth))}",
        f"card={report.cards}",
    ]
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
    return _Report(lines, {"family": family, "n1": spec.n1, "n2": spec.n2})


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_seed_and_out(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (default: ADAPTGAP_SEED or %(default)s)")
    sub.add_argument("--out", type=Path, default=None,
                     help="write output to this path instead of stdout")


def _add_table_options(sub: argparse.ArgumentParser) -> None:
    """The options of the four table commands."""
    _add_seed_and_out(sub)
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
    est.add_argument("--family", choices=[v.value for v in Variant], default="mu2")
    est.add_argument("--alg", choices=[k.value for k in harness.EstimatorKind],
                     default="a2")
    est.add_argument("--n1", type=int, default=64)
    est.add_argument("--n2", type=int, default=64)
    est.add_argument("--p", type=parse_exponent, default=2.0)
    est.add_argument("--u", type=parse_exponent, default=2.0)
    est.add_argument("--n", type=int, default=1024, help="sample budget")
    est.add_argument("--m", type=int, default=None,
                     help="stage-one repetitions (a3 only; default log2(N1+1))")
    est.add_argument("--input", type=Path, default=None,
                     help="load the instance from a .npy matrix instead of sampling")
    _add_seed_and_out(est)
    est.set_defaults(func=_cmd_estimate)

    rates = subs.add_parser("rates", help="rate curves per exponent regime")
    rates.add_argument("--regime", required=True,
                       choices=[r.value for r in harness.Regime])
    rates.add_argument("--budgets", type=parse_budgets, default=None)
    rates.add_argument("--trials", type=int, default=300)
    rates.add_argument("--c0", type=float, default=harness.REGIME_GUARD_DEFAULT,
                       help="regime guard constant in n < c0*N1*N2")
    _add_table_options(rates)
    rates.set_defaults(func=harness.rate_experiment)

    gap = subs.add_parser("gap", help="adaption-gap experiment (p=1, u=inf)")
    gap.add_argument("--budgets", type=parse_budgets,
                     default=[2**10, 2**12, 2**14, 2**16])
    gap.add_argument("--c3", type=float, default=5.0,
                     help="dimension rule N1 = N2 = ceil(c3*sqrt(n))")
    gap.add_argument("--trials", type=int, default=200)
    gap.add_argument("--m", type=int, default=None)
    gap.add_argument("--c0", type=float, default=harness.REGIME_GUARD_DEFAULT)
    _add_table_options(gap)
    gap.set_defaults(func=harness.gap_experiment)

    ds = subs.add_parser("ds", help="direct-sum composite experiment")
    ds.add_argument("--alpha", type=float, default=1.5)
    ds.add_argument("--p", type=parse_exponent, default=1.0)
    ds.add_argument("--u", type=parse_exponent, default=INF)
    ds.add_argument("--k0", type=parse_int_list, default=[4, 5, 6])
    ds.add_argument("--delta", type=float, default=None,
                    help="decay of level budgets (default: the largest multiple "
                         "of 0.01 up to (alpha-1)/2 that gives every level at "
                         "least N_k samples)")
    ds.add_argument("--c0", type=float, default=0.5,
                    help="level budget scale constant in (0, 1)")
    ds.add_argument("--m", type=int, default=None)
    ds.add_argument("--k-max", type=int, default=None, dest="k_max")
    ds.add_argument("--mode", choices=("adaptive", "nonadaptive", "both"),
                    default="both")
    ds.add_argument("--trials", type=int, default=200)
    _add_table_options(ds)
    ds.set_defaults(func=harness.ds_experiment)

    ne = subs.add_parser("norm-est", help="norm-estimation deviation curve")
    ne.add_argument("--v", type=parse_exponent, default=2.0)
    ne.add_argument("--u", type=parse_exponent, default=INF,
                    help="population regularity label; sets the target exponent")
    ne.add_argument("--population", type=parse_floats, default=[2.0, 0.0, 0.0, 0.0])
    ne.add_argument("--budgets", type=parse_budgets,
                    default=[2**k for k in range(4, 13)])
    ne.add_argument("--trials", type=int, default=1000)
    _add_table_options(ne)
    ne.set_defaults(func=harness.norm_deviation_experiment)

    return parser


def run(argv=None) -> int:
    """Run one command; return its exit status.

    The command is called with its parsed options, the seed resolved, and
    its header echoes those options and the settings it resolved itself.
    """
    args = build_parser().parse_args(argv)
    try:
        args.seed = resolve_seed(args.seed)
        params = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
        output = args.func(**params)
        header = _config_header(args.command, params | output.settings)
        if isinstance(output, harness.Table):
            output = render(output, header, "\t" if args.format == "tsv" else ",")
        else:
            output = "\n".join([*(f"# {h}" for h in header), *output.lines]) + "\n"
        if args.out is not None:
            args.out.write_text(output)
        else:
            sys.stdout.write(output)
    except AdaptGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
