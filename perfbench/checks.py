"""Correctness checks on experiment outputs, and a digest of their data rows.

Each check returns a list of problems; an empty list means the output
passed. The expected query counts are worked out here from the estimators'
documented cost rules, not taken from the package.
"""

from __future__ import annotations

import hashlib
import math


def data_lines(text: str) -> list[str]:
    """The column header and data rows, without ``#`` comment lines."""
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def parse_table(text: str) -> list[dict[str, str]]:
    lines = data_lines(text)
    if not lines:
        return []
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def digest(text: str) -> str:
    """Short SHA-256 of the data rows; informational, never gated."""
    blob = "\n".join(data_lines(text)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def probe_count(n1: int) -> int:
    """The a3 default stage-one repetition count max(1, ceil(log2(N1 + 1)))."""
    return max(1, math.ceil(math.log2(n1 + 1)))


def _finite(row, keys, where, problems) -> bool:
    ok = True
    for key in keys:
        try:
            value = float(row[key])
        except (KeyError, ValueError):
            problems.append(f"{where}: {key} missing or not a number")
            ok = False
            continue
        if not math.isfinite(value):
            problems.append(f"{where}: {key}={row[key]} is not finite")
            ok = False
    return ok


def _rows(text, expected_rows, problems):
    rows = parse_table(text)
    if len(rows) != expected_rows:
        problems.append(f"expected {expected_rows} data rows, got {len(rows)}")
    return rows


def check_gap(text: str, expected_rows: int) -> list[str]:
    """Finite figures, a2 matched to a3's cost, a3 within 6mn, and a gap
    ratio above 1 at the largest budget."""
    problems = []
    rows = _rows(text, expected_rows, problems)
    keys = ("rms_a2", "stderr_a2", "rms_a3", "stderr_a3", "ratio",
            "mean_card_a2", "mean_card_a3")
    for r in rows:
        where = f"gap n={r.get('n')}"
        if not _finite(r, keys, where, problems):
            continue
        n, n1 = int(r["n"]), int(r["n1"])
        card2, card3 = float(r["mean_card_a2"]), float(r["mean_card_a3"])
        if card2 != card3:
            problems.append(f"{where}: mean_card_a2={card2} != mean_card_a3={card3}")
        if card3 > 6 * probe_count(n1) * n:
            problems.append(f"{where}: mean_card_a3={card3} exceeds 6mn")
    if rows and not problems:
        top = max(rows, key=lambda r: int(r["n"]))
        if not float(top["ratio"]) > 1.0:
            problems.append(f"gap n={top['n']}: top-budget ratio {top['ratio']} <= 1")
    return problems


def check_rms(text: str, expected_rows: int) -> list[str]:
    """Rows of ``rms_error`` cells: finite figures, a2 cost exactly n, a3
    cost at most 6mn."""
    problems = []
    rows = _rows(text, expected_rows, problems)
    for r in rows:
        where = f"{r.get('estimator')} n1={r.get('n1')} n={r.get('n')}"
        if not _finite(r, ("rms", "stderr", "mae", "mean_card"), where, problems):
            continue
        n, n1 = int(r["n"]), int(r["n1"])
        card = float(r["mean_card"])
        if r["estimator"] == "a2" and card != n:
            problems.append(f"{where}: a2 mean_card={card} != n")
        if r["estimator"] == "a3" and card > 6 * probe_count(n1) * n:
            problems.append(f"{where}: a3 mean_card={card} exceeds 6mn")
    return problems


def ds_schedule(k0: int, alpha: float, delta: float, c0: float) -> list[tuple[int, int]]:
    """Per-level budgets: full readout 4^k below k0, then
    ceil(c0 * 2^(2*k0 - delta*(k - k0))) - 1 up to floor((alpha+1)/alpha*k0)."""
    k1 = math.floor((alpha + 1.0) / alpha * k0)
    return [
        (k, 4**k if k < k0 else math.ceil(c0 * 2.0 ** (2 * k0 - delta * (k - k0))) - 1)
        for k in range(k1 + 1)
    ]


def check_ds(text: str, k0s, alpha: float, delta: float, c0: float) -> list[str]:
    """Finite figures, plain MC cost equal to the schedule total, adaptive
    cost within readout plus 6*m_k*n_k per level, and a
    nonadaptive/adaptive ratio above 1 at the largest k0."""
    problems = []
    rows = _rows(text, 2 * len(k0s), problems)
    for r in rows:
        where = f"ds k0={r.get('k0')} {r.get('mode')}"
        if not _finite(r, ("rms", "stderr", "mean_card"), where, problems):
            continue
        k0 = int(r["k0"])
        schedule = ds_schedule(k0, alpha, delta, c0)
        card = float(r["mean_card"])
        if r["mode"] == "nonadaptive":
            expected = sum(n for _, n in schedule)
            if card != expected:
                problems.append(f"{where}: mean_card={card} != schedule total {expected}")
        else:
            bound = sum(
                n if k < k0 else 6 * probe_count(1 << k) * n for k, n in schedule
            )
            if card > bound:
                problems.append(f"{where}: mean_card={card} exceeds {bound}")
    top = f"# ratio k0={max(k0s)}: nonadaptive/adaptive="
    ratios = [line[len(top):] for line in text.splitlines() if line.startswith(top)]
    if len(ratios) != 1:
        problems.append(f"ds: no ratio line for k0={max(k0s)}")
    elif not (math.isfinite(float(ratios[0])) and float(ratios[0]) > 1.0):
        problems.append(f"ds k0={max(k0s)}: ratio {ratios[0]} <= 1")
    return problems
