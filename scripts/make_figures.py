#!/usr/bin/env python3
"""Regenerate the five data tables and quick-look plots.

Writes figure1.csv .. figure5.csv into the output directory, plus PNG
plots when matplotlib is importable. The CSVs are the tested surface; the
plots are a convenience. All five tables are built before the directory is
made, so a value the library refuses exits 2 (a resource limit 3) with one
line and writes nothing.
"""

import argparse
from pathlib import Path

from phasekit import NumericalResourceError
from phasekit.scan import FIGURE_IDS, figure_table, write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory (default ./out)")
    parser.add_argument("--cross-check-alpha2", type=float, default=None,
                        help="add the exact-trace-norm column to figure 5")
    parser.add_argument("--no-plots", action="store_true")
    args = parser.parse_args()

    options = {5: {"cross_check_alpha2": args.cross_check_alpha2}}
    try:
        tables = {fig_id: figure_table(fig_id, **options.get(fig_id, {})) for fig_id in FIGURE_IDS}
    except (NumericalResourceError, ValueError) as exc:
        parser.exit(3 if isinstance(exc, NumericalResourceError) else 2, f"{parser.prog}: {exc}\n")

    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.exit(2, f"{parser.prog}: cannot create {outdir}: {exc.strerror}\n")

    for fig_id, table in tables.items():
        path = outdir / f"figure{fig_id}.csv"
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                write_csv(table, fh)
        except OSError as exc:
            parser.exit(2, f"{parser.prog}: cannot write {path}: {exc.strerror}\n")
        print(f"wrote {path} ({len(table.rows)} rows)")

    if args.no_plots:
        return 0
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping plots")
        return 0

    for fig_id, ratio_col, title in (
        (1, "ratio_d", "dark-port receiver vs strong-reference baseline"),
        (2, "ratio_d", "count-comparison receiver vs strong-reference baseline"),
    ):
        table = tables[fig_id]
        fig, ax = plt.subplots(figsize=(6, 4))
        by_beta = {}
        for row in table.rows:
            if row[ratio_col] is not None:
                by_beta.setdefault(row["beta2"], []).append((row["alpha2"], row[ratio_col]))
        for beta2, points in sorted(by_beta.items()):
            xs, ys = zip(*points)
            ax.semilogx(xs, ys, label=f"reference = {beta2:g} photons")
        ax.set_xlabel("signal mean photon number")
        ax.set_ylabel("distinguishability ratio")
        ax.set_title(title)
        ax.legend()
        fig.tight_layout()
        fig.savefig(outdir / f"figure{fig_id}.png", dpi=150)
        plt.close(fig)

    for fig_id in (3, 4):
        table = tables[fig_id]
        fig, ax = plt.subplots(figsize=(6, 4))
        sweep = [(r["phi_over_pi"], r["p_err"]) for r in table.rows if r["kind"] == "sweep"]
        xs, ys = zip(*sweep)
        ax.plot(xs, ys, label="max-likelihood over joint counts")
        for kind, label in (("ref_kennedy", "dark-port rule"), ("ref_homodyne", "count comparison")):
            refs = [r for r in table.rows if r["kind"] == kind]
            if refs:
                ax.axhline(refs[0]["p_err"], linestyle="--", alpha=0.6, label=label)
        ax.set_xlabel("splitter angle / pi")
        ax.set_ylabel("error probability")
        ax.set_title(
            f"signal {table.metadata['alpha2']:g}, reference {table.metadata['beta2']:g} photons"
        )
        ax.legend()
        fig.tight_layout()
        fig.savefig(outdir / f"figure{fig_id}.png", dpi=150)
        plt.close(fig)

    table = tables[5]
    fig, ax = plt.subplots(figsize=(6, 4))
    xs = [r["beta2"] for r in table.rows]
    ax.plot(xs, [r["d_ratio_series"] for r in table.rows], label="weak-signal series")
    if any(r["d_ratio_exact"] is not None for r in table.rows):
        ax.plot(xs, [r["d_ratio_exact"] for r in table.rows], "o", ms=3,
                label="truncated trace norm")
    ax.set_xlabel("reference mean photon number")
    ax.set_ylabel("optimal distinguishability ratio")
    ax.legend()
    fig.tight_layout()
    fig.savefig(outdir / "figure5.png", dpi=150)
    plt.close(fig)
    print(f"wrote plots into {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
