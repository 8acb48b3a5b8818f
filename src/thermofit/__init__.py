"""thermofit: least-squares curve fitting and thermal analysis for heat sinks.

Fits lines (ordinary and weighted least squares, regression on either axis)
and first-order thermal step-response curves to temperature/time series,
reports goodness of fit via the correlation coefficient, and predicts
junction temperatures from thermal-resistance catalogs.

Importing the package loads none of its modules: each public name is looked
up in the module that defines it on first use, and numpy is loaded only by
``jacobian`` and ``sse_gradient``, which return numpy arrays, and by a
step-response fit of at least ``errors._ARRAY_MIN`` samples.
"""

__version__ = "0.1.0"

# Each public name, in __all__'s order, and the module that defines it.  A name
# is imported on first use and then kept in the package's namespace.
_HOME = {
    "Axis": "regression",
    "FitClass": "regression",
    "FitReport": "report",
    "HeatSinkEntry": "thermal",
    "JacobianMode": "stepmodel",
    "LinearFit": "regression",
    "NlFit": "stepmodel",
    "PENTIUM_D_915": "thermal",
    "PackageEntry": "thermal",
    "ProcessorSpec": "thermal",
    "Sample": "dataset",
    "Series": "dataset",
    "StepModelParams": "stepmodel",
    "SummaryStats": "regression",
    "Violation": "dataset",
    "build_report": "report",
    "builtin_heatsinks": "thermal",
    "builtin_packages": "thermal",
    "builtin_series": "dataset",
    "builtin_profiles": "dataset",
    "classify_fit": "regression",
    "correlation": "regression",
    "default_init": "stepmodel",
    "gauss_newton": "stepmodel",
    "gradient_descent": "stepmodel",
    "jacobian": "stepmodel",
    "junction_temperature": "thermal",
    "max_power": "thermal",
    "model_eval": "stepmodel",
    "model_sse": "stepmodel",
    "ols_fit": "regression",
    "parse_csv": "dataset",
    "predict": "regression",
    "render_json": "report",
    "render_text": "report",
    "residuals": "regression",
    "select_heatsink": "thermal",
    "sse": "regression",
    "sse_gradient": "stepmodel",
    "summarize": "regression",
    "to_csv": "dataset",
    "validate": "dataset",
    "wls_fit": "regression",
}
__all__ = list(_HOME)

# The modules that ``thermofit.<module>`` reaches without an import statement of its own.
_SUBMODULES = ("dataset", "errors", "regression", "report", "stepmodel", "thermal")


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it in the package
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
