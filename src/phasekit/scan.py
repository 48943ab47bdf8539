"""Parameter sweeps behind the five numbered figure tables, with CSV/JSON output.

``_FIGURES`` is the one figure table: each figure's row builder, the options
it takes and their defaults, which are also the check that rejects any other
option. ``figure_table(fig_id, **options)`` builds every table from it, and
``_OPTIONS``, every option some figure takes, names the CLI's figure flags;
figures 1-2 read their receiver pairs from ``receivers._limit_pair``. The
scan layer only orchestrates library calls and forms ratios; it never builds
port means. A grid of truncated sums is one grid call: figure 2's signal
strengths at each reference strength go to ``receivers._count_errors``, the
figure 3-4 angles to ``_angle_errors`` and figure 5's two columns to
``helstrom._series_rows`` and ``_optimal_rows``. Every row is still bit for
bit the public receiver or optimum-bound function's result at its point.
Undefined ratios (no signal, so zero distinguishability on both sides, or a
baseline so small that the ratio overflows) are emitted as an explicit null,
never as NaN or inf text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import IO

import numpy as np

from . import __version__
from .helstrom import DEFAULT_TAIL_TOL as OPTIMUM_TAIL_TOL, _optimal_rows, _series_rows
from .model import PulsePair, _checked_integer, _checked_strength, kennedy_angle
from .numerics import _checked_tail
from .receivers import (DEFAULT_TAIL_TOL, _angle_errors, _angle_grid, _count_errors,
                        _limit_pair, p_homodyne_generalized, p_kennedy_generalized)

__all__ = [
    "Table",
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


def format_value(value) -> str:
    """Canonical text form: 12 significant digits, empty for null."""
    if type(value) is float:
        return f"{value:.12g}"
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
    lines = [",".join(table.columns)]
    lines += [",".join([format_value(row[c]) for c in table.columns]) for row in table.rows]
    stream.write("\n".join(lines) + "\n")


def write_json(table: Table, stream: IO[str]) -> None:
    import json  # its only reader, so a call that writes no JSON never loads it

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
    asymptotic = cache(asymptotic)  # once per alpha2 of the table
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
    _checked_integer("n_angles", n_angles, least=64)
    phis = _angle_grid(n_angles)
    rows = [
        {"kind": "sweep", "phi_over_pi": phi / math.pi, "p_err": p}
        for phi, p in zip(phis, _angle_errors(pair, phis, tail_tol))
    ]
    try:
        phi, ken = kennedy_angle(pair).phi, p_kennedy_generalized(pair)
        rows.append({"kind": "ref_kennedy", "phi_over_pi": phi / math.pi,
                     "p_err": ken.error_probability})
    except ValueError:
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
    beta2s = [float(b2) for b2 in beta2_grid]
    # every beta2 is checked here, before either column searches
    series = [d / 2.0 for d in _series_rows([PulsePair(1.0, b2) for b2 in beta2s])]
    exact = [None] * len(beta2s)
    if cross_check_alpha2:
        checks = _optimal_rows([PulsePair(cross_check_alpha2, b2) for b2 in beta2s], tail_tol)
        # half the trace norm is D, without the cancellation in 1 - 2P
        exact = [res.metadata["trace_norm"] / 2.0 / (2.0 * math.sqrt(cross_check_alpha2))
                 for res in checks]
    columns = ("beta2", "d_ratio_series", "d_ratio_exact")
    return columns, [dict(zip(columns, row)) for row in zip(beta2s, series, exact)]


# each figure's row builder, and the figure_table options it takes with their
# defaults; no other option is accepted. Figures 1-2 default to 64 log-spaced
# signal strengths covering the weak-pulse regime.
_RATIO = {"alpha2_grid": np.logspace(-3.0, 0.0, 64), "beta2_grid": (1.0, 2.0, 4.0, 10.0)}
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
# every option some figure takes, each the CLI figure flag of its name
_OPTIONS = tuple(sorted({k for _, defaults in _FIGURES.values() for k in defaults}))


def figure_table(fig_id: int, **options) -> Table:
    """Build the data table behind one numbered figure.

    Options left out or given as None take the figure's default from
    ``_FIGURES``; an option the figure does not take raises ValueError
    naming it rather than being dropped. The metadata names the figure and
    echoes every option but the grids.
    """
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}, got {fig_id}")
    rows_for, defaults = _FIGURES[fig_id]
    given = {k: v for k, v in options.items() if v is not None}
    unused = sorted(given.keys() - defaults.keys())
    if unused:
        raise ValueError(f"figure {fig_id} does not use {', '.join(unused)}")
    # checked here as well, so that a figure whose rows never read them still refuses them
    if "tail_tol" in given:
        _checked_tail(given["tail_tol"])
    if "cross_check_alpha2" in given:
        _checked_strength("cross_check_alpha2", given["cross_check_alpha2"])
    opts = {**defaults, **given}
    columns, rows = rows_for(**opts)
    metadata = {"figure": fig_id}
    metadata.update((k, v) for k, v in opts.items() if not k.endswith("_grid"))
    metadata["library_version"] = __version__
    return Table(columns, rows, metadata)
