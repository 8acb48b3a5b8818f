"""thermofit: least-squares curve fitting and thermal analysis for heat sinks.

Fits lines (ordinary and weighted least squares, regression on either axis)
and first-order thermal step-response curves to temperature/time series,
reports goodness of fit via the correlation coefficient, and predicts
junction temperatures from thermal-resistance catalogs.

The five solver names are looked up on first use: ``gauss_newton``,
``gradient_descent`` and ``model_sse`` in ``stepsolve``, which loads numpy
only to fit a series of at least ``stepmodel._ARRAY_MIN`` samples, and
``jacobian`` and ``sse_gradient``, which return numpy arrays, in
``stepfit``.  Importing the package does not load numpy.
"""

from .dataset import Sample, Series, Violation, builtin_series, builtin_profiles, parse_csv, to_csv, validate
from .regression import (
    Axis,
    FitClass,
    LinearFit,
    SummaryStats,
    classify_fit,
    correlation,
    ols_fit,
    predict,
    residuals,
    sse,
    summarize,
    wls_fit,
)
from .report import FitReport, build_report, render_json, render_text
from .stepmodel import JacobianMode, NlFit, StepModelParams, default_init, model_eval
from .thermal import (
    PENTIUM_D_915,
    HeatSinkEntry,
    PackageEntry,
    ProcessorSpec,
    builtin_heatsinks,
    builtin_packages,
    junction_temperature,
    max_power,
    select_heatsink,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "FitClass",
    "FitReport",
    "HeatSinkEntry",
    "JacobianMode",
    "LinearFit",
    "NlFit",
    "PENTIUM_D_915",
    "PackageEntry",
    "ProcessorSpec",
    "Sample",
    "Series",
    "StepModelParams",
    "SummaryStats",
    "Violation",
    "build_report",
    "builtin_heatsinks",
    "builtin_packages",
    "builtin_series",
    "builtin_profiles",
    "classify_fit",
    "correlation",
    "default_init",
    "gauss_newton",
    "gradient_descent",
    "jacobian",
    "junction_temperature",
    "max_power",
    "model_eval",
    "model_sse",
    "ols_fit",
    "parse_csv",
    "predict",
    "render_json",
    "render_text",
    "residuals",
    "select_heatsink",
    "sse",
    "sse_gradient",
    "summarize",
    "to_csv",
    "validate",
    "wls_fit",
]

_SOLVER_MODULES = {
    "gauss_newton": "stepsolve",
    "gradient_descent": "stepsolve",
    "model_sse": "stepsolve",
    "jacobian": "stepfit",
    "sse_gradient": "stepfit",
}


def __getattr__(name: str):
    if name in _SOLVER_MODULES:
        from importlib import import_module

        return getattr(import_module(f".{_SOLVER_MODULES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_SOLVER_MODULES])
