"""Command-line front end.

Subcommands: kennedy, homodyne, bsclass, optimum, montecarlo, figure.
``build_parser`` is the one subcommand table, each subparser carrying its
handler; ``kennedy`` and ``homodyne`` read their two receiver forms from
``receivers._limit_pair``, and ``figure`` its ids from ``scan.FIGURE_IDS``
and the options it forwards from ``scan._OPTIONS``.
Each handler but ``figure`` (which returns its CSV or JSON text) returns its
fields, output names mapped in order to values, and ``main`` prints one
``name = format_value(value)`` line per field. The parser only reads
numbers, a negative one in any spelling (``_Parser``): every limit on them
(a finite, non-negative strength, a tail budget in (0, 1), the integer
limits) is checked once, by the library, and a refusal is one
``phasekit:`` line. Strengths are always mean photon
numbers, matching the library and every tabulated figure. Output for fixed
flags (and seed) is byte-identical across runs. Exit codes: 0 success, 2
argument problems, 3 numerical resource limits.
"""

from __future__ import annotations

import argparse
import io
import math
import re
import sys

from .helstrom import DEFAULT_TAIL_TOL as OPTIMUM_TAIL_TOL, p_err_optimal
from .model import Beamsplitter, DiscriminationResult, PulsePair, kennedy_angle
from .montecarlo import DecisionRule, TrialConfig, run_trials
from .numerics import NumericalResourceError
from .receivers import DEFAULT_TAIL_TOL, _limit_pair, best_angle, p_beamsplitter_ml
from .scan import FIGURE_IDS, _OPTIONS, figure_table, format_value, write_csv, write_json

__all__ = ["main"]

# every text float() reads as a negative number; argparse's own pattern takes
# only -1 and -.5 as values, and -1e-3, -5e-324 or -inf as a missing one
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subparsers too, that reads any negative number as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _grid(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("grid must contain at least one value")
    return values


def _result_fields(result: DiscriminationResult, quote: bool, labels=("P", "D"), **extra) -> dict:
    """P and D under ``labels``, the ``extra`` fields, then with ``quote`` the
    method and the sorted metadata."""
    fields = {labels[0]: result.error_probability, labels[1]: result.distinguishability, **extra}
    if quote:
        fields["method"] = result.method
        fields.update(sorted(result.metadata.items()))
    return fields


def _add_strength_flags(p: argparse.ArgumentParser, reference=None) -> None:
    """--alpha2, and --beta2: required, or one choice of the required group ``reference``."""
    p.add_argument("--alpha2", type=float, required=True,
                   help="signal mean photon number")
    (p if reference is None else reference).add_argument(
        "--beta2", type=float, required=reference is None,
        help="reference mean photon number")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phasekit",
        description="error probabilities for opposite-phase weak pulses "
        "against a finite-energy phase reference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("kennedy", "dark-port photon counting receiver"),
        ("homodyne", "count-comparison receiver behind a balanced splitter"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=_cmd_receiver)
        reference = p.add_mutually_exclusive_group(required=True)
        _add_strength_flags(p, reference)
        reference.add_argument("--asymptotic", action="store_true",
                               help="infinitely strong reference (omit --beta2)")

    p = sub.add_parser("bsclass", help="maximum-likelihood receiver at one splitter angle")
    p.set_defaults(handler=_cmd_bsclass)
    _add_strength_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--phi-over-pi", type=float, help="splitter angle divided by pi")
    group.add_argument("--optimize", action="store_true",
                       help="search the family [0, pi/4] for the best angle")
    p.add_argument("--grid-points", type=int, default=128,
                   help="grid size for --optimize, at least 16 (default 128)")
    p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL,
                   help="per-port Poisson tail budget (default %(default)g)")

    p = sub.add_parser("optimum", help="minimum error probability over all measurements")
    p.set_defaults(handler=_cmd_optimum)
    _add_strength_flags(p)
    p.add_argument("--tail-tol", type=float, default=OPTIMUM_TAIL_TOL,
                   help="basis truncation budget (default %(default)g)")

    p = sub.add_parser("montecarlo", help="simulate a receiver and report the error rate")
    p.set_defaults(handler=_cmd_montecarlo)
    _add_strength_flags(p)
    p.add_argument("--phi-over-pi", type=float, default=None,
                   help="splitter angle / pi (defaults: rule kennedy -> cancellation "
                        "angle, otherwise 0.25)")
    p.add_argument("--rule", choices=[r.value for r in DecisionRule], default="ml",
                   help="decision rule (default ml)")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)

    # every subcommand so far reports one result; the flag goes after its own
    for p in sub.choices.values():
        p.add_argument("--quote-tolerances", action="store_true",
                       help="print truncation bounds alongside the result")

    p = sub.add_parser("figure", help="emit the data table behind one figure")
    p.set_defaults(handler=_cmd_figure)
    p.add_argument("--id", type=int, required=True, choices=FIGURE_IDS)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default standard output)")
    p.add_argument("--alpha2", type=float, default=None,
                   help="signal strength for figures 3-4")
    p.add_argument("--beta2", type=float, default=None,
                   help="reference strength for figures 3-4")
    p.add_argument("--alpha2-grid", type=_grid, default=None,
                   help="comma-separated alpha^2 grid for figures 1-2")
    p.add_argument("--beta2-grid", type=_grid, default=None,
                   help="comma-separated beta^2 values for figures 1, 2 and 5")
    p.add_argument("--n-angles", type=int, default=None,
                   help="sweep resolution for figures 3-4, at least 64")
    p.add_argument("--cross-check-alpha2", type=float, default=None,
                   help="add the exact-trace-norm column to figure 5 at this alpha^2")
    p.add_argument("--tail-tol", type=float, default=None,
                   help="Poisson tail tolerance for figures 2-5")
    return parser


def _cmd_receiver(args) -> dict:
    """kennedy and homodyne: the subcommand names the receiver's limit pair."""
    asymptotic, generalized = _limit_pair(args.command)
    if args.asymptotic:
        result = asymptotic(args.alpha2)
    else:
        result = generalized(PulsePair(args.alpha2, args.beta2))
    return _result_fields(result, args.quote_tolerances)


def _cmd_bsclass(args) -> dict:
    pair = PulsePair(args.alpha2, args.beta2)
    if not args.optimize:
        result = p_beamsplitter_ml(pair, Beamsplitter(args.phi_over_pi * math.pi), args.tail_tol)
        return _result_fields(result, args.quote_tolerances)
    splitter, result = best_angle(pair, args.grid_points, args.tail_tol)
    return {"phi_over_pi": splitter.phi / math.pi, **_result_fields(result, args.quote_tolerances)}


def _cmd_optimum(args) -> dict:
    result = p_err_optimal(PulsePair(args.alpha2, args.beta2), args.tail_tol)
    return _result_fields(result, args.quote_tolerances, ("P_err", "D_err"),
                          N_max=result.metadata["n_max"])


def _cmd_montecarlo(args) -> dict:
    pair = PulsePair(args.alpha2, args.beta2)
    rule = DecisionRule(args.rule)
    if args.phi_over_pi is not None:
        splitter = Beamsplitter(args.phi_over_pi * math.pi)
    elif rule is DecisionRule.KENNEDY_SINGLE_PORT:
        splitter = kennedy_angle(pair)
    else:
        splitter = Beamsplitter(math.pi / 4.0)
    est = run_trials(TrialConfig(pair, splitter, rule, trials=args.trials, seed=args.seed))
    fields = {"error_rate": est.error_rate, "standard_error": est.standard_error,
              "ci99": f"[{format_value(est.ci99_low)}, {format_value(est.ci99_high)}]",
              "errors": est.errors, "trials": est.trials, "seed": est.seed}
    if args.quote_tolerances:
        fields.update(rule=rule.value, phi_over_pi=splitter.phi / math.pi)
    return fields


def _cmd_figure(args) -> str:
    # every figure flag but --id, --format and --out is the figure_table option of its name
    table = figure_table(args.id, **{k: getattr(args, k) for k in _OPTIONS})
    text = io.StringIO()
    (write_csv if args.format == "csv" else write_json)(table, text)
    if args.out is None:
        return text.getvalue()
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text.getvalue())
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    return ""


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        out = args.handler(args)
    except (NumericalResourceError, ValueError) as exc:
        print(f"phasekit: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalResourceError) else 2
    if not isinstance(out, str):
        out = "".join(f"{name} = {format_value(value)}\n" for name, value in out.items())
    sys.stdout.write(out)
    return 0
