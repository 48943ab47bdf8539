import importlib
import pkgutil

import phasekit

# the package's exported names; a new export is a deliberate change here
PUBLIC_NAMES = {
    "__version__",
    "Beamsplitter",
    "ConfigurationError",
    "DecisionRule",
    "DiscriminationResult",
    "EstimateResult",
    "LogFactorialTable",
    "NumericalResourceError",
    "OutputMeans",
    "PulsePair",
    "SplitterRangeError",
    "Table",
    "TrialConfig",
    "TruncationCeilingError",
    "best_angle",
    "d_err_small_alpha",
    "figure_angle_sweep",
    "figure_homodyne_ratios",
    "figure_kennedy_ratios",
    "figure_optimal_ratio",
    "figure_table",
    "gaussian_upper_tail",
    "homodyne_splitter",
    "kennedy_angle",
    "log_poisson_pmf",
    "output_means",
    "p_beamsplitter_ml",
    "p_err_optimal",
    "p_homodyne_asymptotic",
    "p_homodyne_generalized",
    "p_kennedy_asymptotic",
    "p_kennedy_generalized",
    "p_min_pure",
    "poisson_tail_cutoff",
    "run_trials",
    "sample_poisson",
    "small_alpha_series_cutoff",
    "write_csv",
    "write_json",
}


def _submodules():
    # __main__ runs the command line when imported
    for info in pkgutil.iter_modules(phasekit.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"phasekit.{info.name}")


def test_every_exported_name_resolves():
    for name in phasekit.__all__:
        assert hasattr(phasekit, name), name
    modules = list(_submodules())
    assert {m.__name__ for m in modules} >= {
        "phasekit.helstrom",
        "phasekit.model",
        "phasekit.montecarlo",
        "phasekit.receivers",
        "phasekit.scan",
    }
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_exports_the_intended_names():
    assert len(phasekit.__all__) == len(set(phasekit.__all__)) == 39
    assert set(phasekit.__all__) == PUBLIC_NAMES
