"""The four benchmark workloads: inputs drawn from a seed, operations, invariants.

Each workload is a fixed list of operations. An operation is one call a user
of phasekit makes (a figure table, a receiver evaluation, a Monte Carlo run,
a CLI invocation) and returns its output as text at 12 significant digits,
the way the CLI prints it. The seed draws the inputs; the program sees only
the generated values.

Why these four:

* ``figures`` is the full figure regeneration (the five tables of
  ``scripts/make_figures.py``, with figure 5's trace-norm cross-check at
  alpha^2 = 0.01). The optimum (``helstrom`` and the Jacobi eigensolver)
  does most of the work, the angle sweeps of figures 3 and 4 most of the
  rest, Monte Carlo none.
* ``angle_search`` runs the maximum-likelihood kernel and the Poisson
  cutoffs on small and large working sets (beta^2 from 1 to 1000, so n_cut
  from about 20 to 1230). ``helstrom`` does none of the work: a change there
  should predict no change here.
* ``montecarlo`` runs ``run_trials`` at 1e6 trials for each decision rule at
  beta^2 in {1, 10, 100}, so both Poisson samplers run (inversion below a
  mean of 30, the generator's sampler above). The analytic layers do none of
  the work; it is the one workload where the thread pool clearly pays.
* ``cli`` is a fixed sequence of short ``python -m phasekit`` calls covering
  all six subcommands. Interpreter start and imports dominate each call, so
  it is the workload where import-time work shows.

Invariants checked for every seed: P in [0, 1/2]; the optimum is no larger
than any receiver at the same pair; the best splitter angle is no worse than
either special-angle receiver; each Monte Carlo estimate lies within 5
standard errors of the analytic P.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from phasekit import cli, helstrom, montecarlo, receivers, scan
from phasekit.model import Beamsplitter, PulsePair, homodyne_splitter, kennedy_angle

DEFAULT_SEED = 0

NAMES = ("figures", "angle_search", "montecarlo", "cli")

# outputs carry 12 significant digits, so comparisons between parsed values
# allow for that rounding
TOL = 1e-11

MC_SIGMAS = 5.0


@dataclass
class Op:
    key: str
    run: Callable[[], str]
    argv: tuple[str, ...] | None = None  # cli workload: arguments after `-m phasekit`


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # outputs by key -> problems by key; parses text only, never calls phasekit
    check: Callable[[dict[str, str]], dict[str, str]]
    # untimed, untraced work the checks need (analytic values, optima)
    prepare: Callable[[], None] = lambda: None
    trials_per_pass: int = 0
    subprocess: bool = False


def fmt(x) -> str:
    # the CLI's 12 significant digits; not scan.format_value, whose calls the
    # tracer would book as scan work inside the other workloads
    return f"{float(x):.12g}"


def _round(x: float) -> float:
    # 4 significant digits, so an input reads the same as a float and as CLI text
    return float(f"{x:.4g}")


def _log_uniform(rng, lo: float, hi: float) -> float:
    return _round(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _key(name: str, **params) -> str:
    parts = [name]
    for k, v in params.items():
        if isinstance(v, (list, tuple)):
            v = "sha1:" + hashlib.sha1(repr(list(v)).encode()).hexdigest()[:12]
        parts.append(f"{k}={v}")
    return " ".join(parts)


def fields(text: str) -> dict[str, float]:
    """Parse ``name = value`` lines into floats (non-numeric lines skipped)."""
    out = {}
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            try:
                out[name] = float(value)
            except ValueError:
                pass
    return out


def _in_half(p: float) -> bool:
    return -TOL <= p <= 0.5 + TOL


def check_figure_csv(fig_id: int, text: str, p_opt: float | None = None) -> str | None:
    """Invariants of one figure table; ``p_opt`` is the optimum at the figure's pair."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return "empty table"
    for row in rows:
        for col, value in row.items():
            if col.startswith("p_") and value and not _in_half(float(value)):
                return f"{col} = {value} outside [0, 1/2]"
        if fig_id in (3, 4) and p_opt is not None and float(row["p_err"]) < p_opt - TOL:
            return f"receiver P {row['p_err']} below the optimum {fmt(p_opt)}"
    return None


# -- figures ---------------------------------------------------------------


def figures(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    if seed == DEFAULT_SEED and not tiny:
        grid = None  # the library's own 64-point grid, as make_figures uses
        alpha2_34 = [0.1, 0.1]
    else:
        grid = sorted(_round(10.0 ** x) for x in rng.uniform(-3.0, 0.0, 8 if tiny else 64))
        alpha2_34 = [_log_uniform(rng, 0.05, 0.2) for _ in range(2)]
    n_angles = 64 if tiny else 128
    beta2_5 = [0.0, 0.5, 1.0] if tiny else None

    def table(fig_id, **kwargs):
        def run():
            buf = io.StringIO()
            scan.write_csv(scan.figure_table(fig_id, **kwargs), buf)
            return buf.getvalue()

        shown = {k: ("default" if v is None else v) for k, v in kwargs.items()}
        return Op(_key(f"figure{fig_id}", **shown), run)

    ops = [
        table(1, alpha2_grid=grid),
        table(2, alpha2_grid=grid),
        table(3, alpha2=alpha2_34[0], n_angles=n_angles),
        table(4, alpha2=alpha2_34[1], n_angles=n_angles),
        table(5, beta2_grid=beta2_5, cross_check_alpha2=0.01),
    ]
    pairs = {ops[2].key: PulsePair(alpha2_34[0], 1.0), ops[3].key: PulsePair(alpha2_34[1], 10.0)}
    optimum: dict[str, float] = {}

    def prepare():
        for key, pair in pairs.items():
            optimum[key] = helstrom.p_err_optimal(pair).error_probability

    def check(outputs):
        problems = {}
        for fig_id, op in enumerate(ops, start=1):
            if outputs.get(op.key) is not None:
                problem = check_figure_csv(fig_id, outputs[op.key], optimum.get(op.key))
                if problem:
                    problems[op.key] = problem
        return problems

    return Workload("figures", ops, check, prepare)


# -- angle_search ----------------------------------------------------------


def angle_search(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    # more interior angles where the kernel's working set is large
    angles_per_beta2 = {1.0: 3, 10.0: 3} if tiny else {1.0: 3, 10.0: 3, 100.0: 5, 1000.0: 5}
    ops: list[Op] = []
    groups = []  # (pair, best key, homodyne key, ml keys)
    for beta2, n_angles in angles_per_beta2.items():
        pair = PulsePair(_log_uniform(rng, 0.05, 0.2), beta2)
        tag = dict(alpha2=pair.alpha2, beta2=beta2)

        def best(pair=pair):
            splitter, result = receivers.best_angle(pair)
            return f"phi_over_pi = {fmt(splitter.phi / math.pi)}\nP = {fmt(result.error_probability)}\n"

        best_op = Op(_key("best_angle", **tag), best)
        ml_ops = []
        # one angle per stratum of [0.02, 0.23] pi keeps the work per seed steady
        edges = np.linspace(0.02, 0.23, n_angles + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            phi_over_pi = _round(rng.uniform(lo, hi))

            def ml(pair=pair, phi=phi_over_pi * math.pi):
                result = receivers.p_beamsplitter_ml(pair, Beamsplitter(phi))
                return f"P = {fmt(result.error_probability)}\n"

            ml_ops.append(Op(_key("p_beamsplitter_ml", phi_over_pi=phi_over_pi, **tag), ml))

        def hom(pair=pair):
            return f"P = {fmt(receivers.p_homodyne_generalized(pair).error_probability)}\n"

        hom_op = Op(_key("p_homodyne_generalized", **tag), hom)
        ops += [best_op, *ml_ops, hom_op]
        groups.append((pair, best_op.key, hom_op.key, [o.key for o in ml_ops]))

    kennedy: dict[str, float] = {}
    optimum: dict[str, float] = {}

    def prepare():
        for pair, best_key, _, _ in groups:
            kennedy[best_key] = receivers.p_kennedy_generalized(pair).error_probability
            # the truncated optimum is affordable up to beta^2 = 10 only
            if pair.beta2 <= 10.0:
                optimum[best_key] = helstrom.p_err_optimal(pair).error_probability

    def check(outputs):
        problems = {}
        parsed = {k: fields(v) for k, v in outputs.items() if v is not None}
        p = {k: f["P"] for k, f in parsed.items() if "P" in f}
        for key in outputs:
            if outputs[key] is not None and key not in p:
                problems[key] = "no P in output"
            elif key in p and not _in_half(p[key]):
                problems[key] = f"P = {fmt(p[key])} outside [0, 1/2]"
        for _, best_key, hom_key, ml_keys in groups:
            if best_key in p and best_key in kennedy:
                if p[best_key] > kennedy[best_key] + TOL:
                    problems[best_key] = "best angle worse than the dark-port receiver"
                if hom_key in p and p[best_key] > p[hom_key] + TOL:
                    problems[best_key] = "best angle worse than count comparison"
            p_opt = optimum.get(best_key)
            if p_opt is not None:
                for key in (best_key, hom_key, *ml_keys):
                    if key in p and p[key] < p_opt - TOL:
                        problems[key] = f"receiver P {fmt(p[key])} below the optimum {fmt(p_opt)}"
        return problems

    return Workload("angle_search", ops, check, prepare)


# -- montecarlo ------------------------------------------------------------


def _analytic_p(rule, pair: PulsePair, splitter: Beamsplitter) -> float:
    Rule = montecarlo.DecisionRule
    if rule is Rule.HOMODYNE_COMPARE:
        result = receivers.p_homodyne_generalized(pair)
    elif rule is Rule.KENNEDY_SINGLE_PORT:
        result = receivers.p_kennedy_generalized(pair)
    else:
        result = receivers.p_beamsplitter_ml(pair, splitter)
    return result.error_probability


def monte_carlo(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    trials = 20_000 if tiny else 1_000_000
    Rule = montecarlo.DecisionRule
    ops: list[Op] = []
    configs: dict[str, montecarlo.TrialConfig] = {}
    for beta2 in (1.0, 10.0, 100.0):
        pair = PulsePair(_log_uniform(rng, 0.05, 0.2), beta2)
        # the sampler a port uses switches at a mean of 30, which at beta^2 =
        # 100 makes one ML run 2.7 times cheaper above phi = 0.185 pi; angles
        # in [0.10, 0.17] pi keep port 2 below and port 1 above that mean for
        # every seed, so the work per pass does not depend on the seed
        ml_splitter = Beamsplitter(_round(rng.uniform(0.10, 0.17)) * math.pi)
        for rule, splitter in (
            (Rule.HOMODYNE_COMPARE, homodyne_splitter()),
            (Rule.KENNEDY_SINGLE_PORT, kennedy_angle(pair)),
            (Rule.ML_JOINT, ml_splitter),
        ):
            cfg = montecarlo.TrialConfig(
                pair, splitter, rule, trials=trials, seed=int(rng.integers(2**32))
            )

            def run(cfg=cfg):
                est = montecarlo.run_trials(cfg)
                return f"error_rate = {fmt(est.error_rate)}\nerrors = {est.errors}\ntrials = {est.trials}\n"

            key = _key(
                "run_trials", rule=rule.value, alpha2=pair.alpha2, beta2=beta2,
                phi_over_pi=fmt(splitter.phi / math.pi), trials=trials, seed=cfg.seed,
            )
            ops.append(Op(key, run))
            configs[key] = cfg

    analytic_p: dict[str, float] = {}

    def prepare():
        for key, cfg in configs.items():
            analytic_p[key] = _analytic_p(cfg.rule, cfg.pair, cfg.splitter)

    def check(outputs):
        problems = {}
        for key, text in outputs.items():
            if text is None:
                continue
            p = analytic_p[key]
            rate = fields(text).get("error_rate")
            if rate is None:
                problems[key] = "no error_rate in output"
            elif not _in_half(p):
                problems[key] = f"analytic P = {fmt(p)} outside [0, 1/2]"
            elif abs(rate - p) > MC_SIGMAS * math.sqrt(p * (1.0 - p) / trials):
                problems[key] = f"estimate {fmt(rate)} more than {MC_SIGMAS:g} SE from P = {fmt(p)}"
        return problems

    return Workload("montecarlo", ops, check, prepare, trials_per_pass=len(ops) * trials)


# -- cli -------------------------------------------------------------------


def cli_calls(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    alpha2 = repr(_log_uniform(rng, 0.05, 0.2))
    phi_over_pi = repr(_round(rng.uniform(0.05, 0.2)))
    trials = "10000" if tiny else "100000"
    pair = ("--alpha2", alpha2, "--beta2", "1")
    argvs = [
        ("kennedy", *pair),
        ("homodyne", *pair),
        ("bsclass", *pair, "--phi-over-pi", phi_over_pi),
        ("bsclass", *pair, "--optimize"),
        ("optimum", *pair),
        ("montecarlo", *pair, "--rule", "homodyne", "--trials", trials,
         "--seed", str(int(rng.integers(2**32)))),
        ("figure", "--id", "1"),
        ("figure", "--id", "3", "--alpha2", alpha2),
    ]
    if tiny:
        argvs = argvs[:6]

    def call(argv):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            if code != 0:
                raise RuntimeError(f"phasekit {' '.join(argv)} exited with {code}")
            return buf.getvalue()

        return Op("phasekit " + " ".join(argv), run, argv)

    ops = [call(argv) for argv in argvs]
    key = {name: op.key for name, op in zip(("ken", "hom", "bs", "opt_bs", "opt", "mc"), ops)}
    expected: dict[str, str] = {}

    def prepare():
        # the in-process result is the reference for the subprocess output
        for op in ops:
            expected[op.key] = op.run()

    def check(outputs):
        problems = {}
        for op in ops:
            text = outputs.get(op.key)
            if text is None:
                continue
            if text != expected[op.key]:
                problems[op.key] = "output differs from the in-process call"
            elif op.argv[0] == "figure":
                problem = check_figure_csv(int(op.argv[2]), text)
                if problem:
                    problems[op.key] = problem
        p = {}
        for name in ("ken", "hom", "bs", "opt_bs"):
            if outputs.get(key[name]) is not None:
                p[name] = fields(outputs[key[name]])["P"]
        if outputs.get(key["opt"]) is not None:
            p["opt"] = fields(outputs[key["opt"]])["P_err"]
        for name, value in p.items():
            if not _in_half(value):
                problems[key[name]] = f"P = {fmt(value)} outside [0, 1/2]"
            elif "opt" in p and value < p["opt"] - TOL:
                problems[key[name]] = "receiver below the optimum"
        if "opt_bs" in p:
            for name in ("ken", "hom"):
                if name in p and p["opt_bs"] > p[name] + TOL:
                    problems[key["opt_bs"]] = f"best angle worse than the {name} receiver"
        if outputs.get(key["mc"]) is not None and "hom" in p:
            rate = fields(outputs[key["mc"]])["error_rate"]
            n = int(trials)
            if abs(rate - p["hom"]) > MC_SIGMAS * math.sqrt(p["hom"] * (1 - p["hom"]) / n):
                problems[key["mc"]] = "estimate far from the analytic P"
        return problems

    return Workload("cli", ops, check, prepare, subprocess=True)


_WORKLOADS = {
    "figures": figures,
    "angle_search": angle_search,
    "montecarlo": monte_carlo,
    "cli": cli_calls,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return _WORKLOADS[name](seed, tiny)
