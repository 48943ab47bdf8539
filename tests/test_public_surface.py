import importlib
import pkgutil

import phasekit

# the package's exported names; a new export is a deliberate change here
PUBLIC_NAMES = {
    "__version__",
    "Beamsplitter",
    "DecisionRule",
    "DiscriminationResult",
    "EstimateResult",
    "NumericalResourceError",
    "PulsePair",
    "Table",
    "TrialConfig",
    "best_angle",
    "d_err_small_alpha",
    "figure_table",
    "homodyne_splitter",
    "kennedy_angle",
    "p_beamsplitter_ml",
    "p_err_optimal",
    "p_homodyne_asymptotic",
    "p_homodyne_generalized",
    "p_kennedy_asymptotic",
    "p_kennedy_generalized",
    "p_min_pure",
    "run_trials",
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
    assert len(phasekit.__all__) == len(set(phasekit.__all__)) == 24
    assert set(phasekit.__all__) == PUBLIC_NAMES


def test_figure_table_is_the_only_table_builder():
    import phasekit.scan as scan

    for name in ("figure_kennedy_ratios", "figure_homodyne_ratios", "figure_angle_sweep",
                 "figure_optimal_ratio"):
        assert not hasattr(phasekit, name) and not hasattr(scan, name), name
    # the default grids are written in _FIGURES, not exported beside it
    assert scan.__all__ == ["Table", "figure_table", "format_value", "write_csv", "write_json"]


def test_numerics_exports_one_path_per_job():
    import phasekit.numerics as numerics

    assert numerics.__all__ == ["MAX_PHOTON_COUNT", "NumericalResourceError"]
    # the optimum's tail bound and the series' weights come from the cutoff
    # search, the receivers' pmfs from _pmf_rows, and the ln n! table is read
    # only through the log-pmf block
    for name in ("log_factorial", "poisson_upper_tail", "_extended_pmf", "checked_count",
                 "log_poisson_pmf_array", "poisson_pmfs"):
        assert not hasattr(numerics, name), name


def test_model_exports_one_means_path():
    import phasekit.model as model

    assert sorted(model.__all__) == [
        "Beamsplitter",
        "DiscriminationResult",
        "PulsePair",
        "QUARTER_PI",
            "homodyne_splitter",
        "kennedy_angle",
        "port_means",
    ]
    # port_means is the one function that computes the four port means
    for name in ("OutputMeans", "output_means"):
        assert not hasattr(model, name) and not hasattr(phasekit, name), name


def test_numerical_resource_error_is_the_only_exception_class():
    # a refused input is a plain ValueError, a resource limit a NumericalResourceError
    defined = {
        (module.__name__, name)
        for module in _submodules()
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    }
    assert defined == {("phasekit.numerics", "NumericalResourceError")}
    import phasekit.montecarlo as montecarlo

    assert montecarlo.__all__ == ["DecisionRule", "TrialConfig", "EstimateResult", "run_trials"]


def test_a_result_has_one_constructor():
    assert not hasattr(phasekit.DiscriminationResult, "from_error_probability")
