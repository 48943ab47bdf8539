"""Parameter sweeps behind the five numbered figure tables, with CSV/JSON output.

``_FIGURES`` is the one figure table: each figure's row builder, the
options it takes and their defaults, which are also the check that rejects
any other option. ``figure_table`` builds every table from it; figures 1-2
read their receiver pairs from ``receivers._limit_pair``. The scan layer
only orchestrates library calls and forms ratios; it never builds port
means. A grid of truncated sums is one ``receivers`` grid call: figure 2's
signal strengths at each reference strength go to ``_count_errors``, and
the figure 3-4 angles to ``_angle_errors``. Every row is still bit for bit
the public receiver or optimum-bound function's result at its point.
Undefined ratios (no signal, so zero
distinguishability on both sides, or a baseline so small that the ratio
overflows) are emitted as an explicit null, never as NaN or inf text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import IO

import numpy as np

from . import __version__
from .helstrom import DEFAULT_TAIL_TOL as OPTIMUM_TAIL_TOL, d_err_small_alpha, p_err_optimal
from .model import PulsePair, kennedy_angle
from .receivers import (DEFAULT_TAIL_TOL, _angle_errors, _angle_grid, _count_errors,
                        _limit_pair, p_homodyne_generalized, p_kennedy_generalized)

__all__ = [
    "Table",
    "default_alpha2_grid",
    "figure_table",
    "format_value",
    "write_csv",
    "write_json",
]


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: list[dict]
    metadata: dict = field(default_factory=dict)


def default_alpha2_grid() -> np.ndarray:
    """64 log-spaced signal strengths covering the weak-pulse regime."""
    return np.logspace(-3.0, 0.0, 64)


def format_value(value) -> str:
    """Canonical text form: 12 significant digits, empty for null."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _json_value(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(f"{float(value):.12g}")


def write_csv(table: Table, stream: IO[str]) -> None:
    stream.write(",".join(table.columns) + "\n")
    for row in table.rows:
        stream.write(",".join(format_value(row[c]) for c in table.columns) + "\n")


def write_json(table: Table, stream: IO[str]) -> None:
    payload = {
        "metadata": {k: _json_value(v) for k, v in table.metadata.items()},
        "rows": [
            {c: _json_value(row[c]) for c in table.columns} for row in table.rows
        ],
    }
    # built whole first, so a refused non-finite number leaves nothing half written
    stream.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _ratio(num: float, den: float) -> float | None:
    """num / den, or None where the baseline is zero or the quotient overflows."""
    if den > 0.0 and (ratio := num / den) < math.inf:
        return ratio
    return None


def _ratio_rows(receiver: str, tag: str, alpha2_grid, beta2_grid, tail_tol=None):
    """One receiver at finite reference against its strong-reference baseline.

    ``_limit_pair(receiver)`` gives the two results, ``asymptotic(alpha2)``
    and ``generalized(pair)``; ``tag`` names the columns, and rows run over
    ``beta2_grid``, then ``alpha2_grid``. The count comparison's row at each
    ``beta2`` is one ``receivers._count_errors`` call, bit for bit what
    ``generalized`` gives; the dark port's closed form goes pair by pair.
    """
    asymptotic, generalized = _limit_pair(receiver)
    columns = (
        "alpha2",
        "beta2",
        f"p_{tag}",
        f"p_{tag}_tilde",
        "ratio_p",
        f"d_{tag}",
        f"d_{tag}_tilde",
        "ratio_d",
    )
    rows = []
    for beta2 in beta2_grid:
        pairs = [PulsePair(float(alpha2), float(beta2)) for alpha2 in alpha2_grid]
        if receiver == "homodyne":
            p_gens = _count_errors(pairs, tail_tol)
        else:
            p_gens = [generalized(pair).error_probability for pair in pairs]
        for pair, p_gen in zip(pairs, p_gens):
            base = asymptotic(pair.alpha2)
            p_base, d_base = base.error_probability, base.distinguishability
            d_gen = 1.0 - 2.0 * p_gen
            values = (pair.alpha2, pair.beta2, p_base, p_gen, _ratio(p_gen, p_base),
                      d_base, d_gen, _ratio(d_gen, d_base))
            rows.append(dict(zip(columns, values)))
    return columns, rows


def _sweep_rows(alpha2, beta2, n_angles, tail_tol):
    """Maximum-likelihood error across the splitter family, with references.

    Sweep rows carry kind="sweep", their P from one
    ``receivers._angle_errors`` call, bit for bit ``p_beamsplitter_ml`` at
    each angle; the two dashed-line references appear as kind="ref_kennedy"
    (at the cancellation angle, when it exists) and kind="ref_homodyne" (at
    pi/4).
    """
    pair = PulsePair(alpha2, beta2)
    if n_angles < 64:
        raise ValueError(f"n_angles must be at least 64, got {n_angles}")
    phis = _angle_grid(n_angles)
    rows = [
        {"kind": "sweep", "phi_over_pi": phi / math.pi, "p_err": p}
        for phi, p in zip(phis, _angle_errors(pair, phis, tail_tol))
    ]
    try:
        phi, ken = kennedy_angle(pair).phi, p_kennedy_generalized(pair)
        rows.append({"kind": "ref_kennedy", "phi_over_pi": phi / math.pi,
                     "p_err": ken.error_probability})
    except ValueError:  # includes SplitterRangeError
        pass
    hom = p_homodyne_generalized(pair, tail_tol)
    rows.append({"kind": "ref_homodyne", "phi_over_pi": 0.25, "p_err": hom.error_probability})
    return ("kind", "phi_over_pi", "p_err"), rows


def _optimal_ratio_rows(beta2_grid, cross_check_alpha2, tail_tol):
    """Weak-signal optimal distinguishability relative to its asymptote.

    The series column is exact to its stated tolerance and independent of
    the signal strength; a positive ``cross_check_alpha2`` adds a column that
    recomputes the ratio from the full truncated trace norm at that alpha^2.
    """

    def one(beta2: float) -> dict:
        series = d_err_small_alpha(PulsePair(1.0, beta2)) / 2.0
        exact = None
        if cross_check_alpha2:
            res = p_err_optimal(PulsePair(cross_check_alpha2, beta2), tail_tol)
            # half the trace norm is D, without the cancellation in 1 - 2P
            exact = res.metadata["trace_norm"] / 2.0 / (2.0 * math.sqrt(cross_check_alpha2))
        return {"beta2": beta2, "d_ratio_series": series, "d_ratio_exact": exact}

    return ("beta2", "d_ratio_series", "d_ratio_exact"), [one(float(b2)) for b2 in beta2_grid]


# each figure's row builder, and the figure_table options it takes with their
# defaults; no other option is accepted
_RATIO = {"alpha2_grid": default_alpha2_grid(), "beta2_grid": (1.0, 2.0, 4.0, 10.0)}
_SWEEP = {"alpha2": 0.1, "beta2": 1.0, "n_angles": 128, "tail_tol": DEFAULT_TAIL_TOL}
_SERIES = {"beta2_grid": np.linspace(0.0, 10.0, 41), "cross_check_alpha2": None,
           "tail_tol": OPTIMUM_TAIL_TOL}
_FIGURES = {
    1: (partial(_ratio_rows, "kennedy", "ken"), _RATIO),
    2: (partial(_ratio_rows, "homodyne", "hom"), {**_RATIO, "tail_tol": DEFAULT_TAIL_TOL}),
    3: (_sweep_rows, _SWEEP),
    4: (_sweep_rows, {**_SWEEP, "beta2": 10.0}),
    5: (_optimal_ratio_rows, _SERIES),
}
FIGURE_IDS = tuple(_FIGURES)


def figure_table(
    fig_id: int,
    alpha2_grid=None,
    beta2_grid=None,
    alpha2: float | None = None,
    beta2: float | None = None,
    n_angles: int | None = None,
    cross_check_alpha2: float | None = None,
    tail_tol: float | None = None,
) -> Table:
    """Build the data table behind one numbered figure.

    Options left at None take the figure's default from ``_FIGURES``; an
    option the figure does not use raises ValueError rather than being
    dropped. The metadata echoes every option but the grids.
    """
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}, got {fig_id}")
    given = dict(alpha2_grid=alpha2_grid, beta2_grid=beta2_grid, alpha2=alpha2, beta2=beta2,
                 n_angles=n_angles, cross_check_alpha2=cross_check_alpha2, tail_tol=tail_tol)
    rows_for, defaults = _FIGURES[fig_id]
    unused = [k for k, v in given.items() if v is not None and k not in defaults]
    if unused:
        raise ValueError(f"figure {fig_id} does not use {', '.join(unused)}")
    opts = {k: default if given[k] is None else given[k] for k, default in defaults.items()}
    if tail_tol is not None and not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    if cross_check_alpha2 is not None and not 0.0 <= cross_check_alpha2 < math.inf:
        raise ValueError(
            f"cross_check_alpha2 must be finite and non-negative, got {cross_check_alpha2}"
        )
    columns, rows = rows_for(**opts)
    # figures 3-4 carry no "figure" key, and their pinned JSON bytes depend on it
    metadata = {} if fig_id in (3, 4) else {"figure": fig_id}
    metadata.update((k, v) for k, v in opts.items() if not k.endswith("_grid"))
    metadata["library_version"] = __version__
    return Table(columns, rows, metadata)
