"""Parameter sweeps behind the five numbered figure tables, with CSV/JSON output.

The scan layer only orchestrates library calls and forms ratios; every row
is recomputable from the public receiver and optimum-bound functions.
Undefined ratios (no signal, so zero distinguishability on both sides) are
emitted as an explicit null, never as NaN text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from . import __version__
from .helstrom import d_err_small_alpha, p_err_optimal
from .model import Beamsplitter, PulsePair, SplitterRangeError, kennedy_angle
from .receivers import (
    DEFAULT_TAIL_TOL,
    p_beamsplitter_ml,
    p_homodyne_asymptotic,
    p_homodyne_generalized,
    p_kennedy_asymptotic,
    p_kennedy_generalized,
)

__all__ = [
    "Table",
    "default_alpha2_grid",
    "figure_kennedy_ratios",
    "figure_homodyne_ratios",
    "figure_angle_sweep",
    "figure_optimal_ratio",
    "figure_table",
    "format_value",
    "write_csv",
    "write_json",
]

FIGURE_IDS = (1, 2, 3, 4, 5)

DEFAULT_BETA2_LIST = (1.0, 2.0, 4.0, 10.0)


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
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _ratio_table(figure: int, name: str, asymptotic, generalized, alpha2_grid, beta2_list,
                 **metadata) -> Table:
    """One receiver at finite reference against its strong-reference baseline.

    ``asymptotic(alpha2)`` and ``generalized(pair)`` give the two results;
    rows run over ``beta2_list``, then ``alpha2_grid``. ``ratio_d`` is null
    where the baseline has no distinguishability.
    """
    if alpha2_grid is None:
        alpha2_grid = default_alpha2_grid()
    if beta2_list is None:
        beta2_list = DEFAULT_BETA2_LIST
    columns = (
        "alpha2",
        "beta2",
        f"p_{name}",
        f"p_{name}_tilde",
        "ratio_p",
        f"d_{name}",
        f"d_{name}_tilde",
        "ratio_d",
    )
    rows = []
    for beta2 in beta2_list:
        for alpha2 in alpha2_grid:
            base = asymptotic(float(alpha2))
            gen = generalized(PulsePair(float(alpha2), float(beta2)))
            d_base, d_gen = base.distinguishability, gen.distinguishability
            values = (
                float(alpha2),
                float(beta2),
                base.error_probability,
                gen.error_probability,
                gen.error_probability / base.error_probability,
                d_base,
                d_gen,
                d_gen / d_base if d_base > 0.0 else None,
            )
            rows.append(dict(zip(columns, values)))
    return Table(
        columns, rows, {"figure": figure, **metadata, "library_version": __version__}
    )


def figure_kennedy_ratios(alpha2_grid=None, beta2_list=None) -> Table:
    """Dark-port receiver against its strong-reference baseline."""
    return _ratio_table(
        1, "ken", p_kennedy_asymptotic, p_kennedy_generalized, alpha2_grid, beta2_list
    )


def figure_homodyne_ratios(
    alpha2_grid=None, beta2_list=None, tail_tol: float = DEFAULT_TAIL_TOL
) -> Table:
    """Count-comparison receiver against its strong-reference baseline."""
    return _ratio_table(
        2,
        "hom",
        p_homodyne_asymptotic,
        lambda pair: p_homodyne_generalized(pair, tail_tol),
        alpha2_grid,
        beta2_list,
        tail_tol=tail_tol,
    )


def figure_angle_sweep(
    pair: PulsePair, n_angles: int = 128, tail_tol: float = DEFAULT_TAIL_TOL
) -> Table:
    """Maximum-likelihood error across the splitter family, with references.

    Sweep rows carry kind="sweep"; the two dashed-line references appear as
    kind="ref_kennedy" (at the cancellation angle, when it exists) and
    kind="ref_homodyne" (at pi/4).
    """
    if n_angles < 64:
        raise ValueError(f"n_angles must be at least 64, got {n_angles}")
    columns = ("kind", "phi_over_pi", "p_err")
    phis = np.linspace(0.0, math.pi / 4.0, n_angles)
    rows = [
        {
            "kind": "sweep",
            "phi_over_pi": float(phi) / math.pi,
            "p_err": p_beamsplitter_ml(pair, Beamsplitter(float(phi)), tail_tol).error_probability,
        }
        for phi in phis
    ]
    try:
        ken_angle = kennedy_angle(pair)
        ken = p_kennedy_generalized(pair)
        rows.append(
            {
                "kind": "ref_kennedy",
                "phi_over_pi": ken_angle.phi / math.pi,
                "p_err": ken.error_probability,
            }
        )
    except (SplitterRangeError, ValueError):
        pass
    hom = p_homodyne_generalized(pair, tail_tol)
    rows.append({"kind": "ref_homodyne", "phi_over_pi": 0.25, "p_err": hom.error_probability})
    return Table(
        columns,
        rows,
        {
            "alpha2": pair.alpha2,
            "beta2": pair.beta2,
            "n_angles": n_angles,
            "tail_tol": tail_tol,
            "library_version": __version__,
        },
    )


def figure_optimal_ratio(
    beta2_grid=None,
    cross_check_alpha2: float | None = None,
    tail_tol: float = 1e-10,
) -> Table:
    """Weak-signal optimal distinguishability relative to its asymptote.

    The series column is exact to its stated tolerance and independent of
    the signal strength; the optional cross-check column recomputes the
    ratio from the full truncated trace norm at a caller-chosen small
    alpha^2.
    """
    if beta2_grid is None:
        beta2_grid = np.linspace(0.0, 10.0, 41)
    columns = ("beta2", "d_ratio_series", "d_ratio_exact")

    def one(beta2: float) -> dict:
        series = d_err_small_alpha(PulsePair(1.0, beta2)) / 2.0
        exact = None
        if cross_check_alpha2 is not None and cross_check_alpha2 > 0.0:
            res = p_err_optimal(PulsePair(cross_check_alpha2, beta2), tail_tol)
            exact = res.distinguishability / (2.0 * math.sqrt(cross_check_alpha2))
        return {"beta2": beta2, "d_ratio_series": series, "d_ratio_exact": exact}

    rows = [one(float(b2)) for b2 in beta2_grid]
    return Table(
        columns,
        rows,
        {
            "figure": 5,
            "cross_check_alpha2": cross_check_alpha2,
            "tail_tol": tail_tol,
            "library_version": __version__,
        },
    )


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
    """Build the data table behind one numbered figure."""
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}, got {fig_id}")
    if fig_id == 1:
        return figure_kennedy_ratios(alpha2_grid, beta2_grid)
    if fig_id == 2:
        return figure_homodyne_ratios(
            alpha2_grid, beta2_grid, tail_tol if tail_tol is not None else DEFAULT_TAIL_TOL
        )
    if fig_id in (3, 4):
        pair = PulsePair(
            0.1 if alpha2 is None else alpha2,
            (1.0 if fig_id == 3 else 10.0) if beta2 is None else beta2,
        )
        return figure_angle_sweep(
            pair,
            128 if n_angles is None else n_angles,
            tail_tol if tail_tol is not None else DEFAULT_TAIL_TOL,
        )
    return figure_optimal_ratio(
        beta2_grid, cross_check_alpha2, tail_tol if tail_tol is not None else 1e-10
    )
