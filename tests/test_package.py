import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermofit
from thermofit import stepmodel

SOLVER_NAMES = ("gauss_newton", "gradient_descent", "jacobian", "model_sse", "sse_gradient")


def test_every_public_name_resolves():
    for name in thermofit.__all__:
        assert getattr(thermofit, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from thermofit import *", namespace)
    assert set(thermofit.__all__) <= set(namespace)
    assert namespace["gauss_newton"] is stepmodel.gauss_newton


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_solver_names_are_the_solver_module_functions(name):
    assert name in thermofit.__all__
    assert name in dir(thermofit)
    assert getattr(thermofit, name) is getattr(stepmodel, name)
    assert inspect.signature(getattr(thermofit, name)) == inspect.signature(getattr(stepmodel, name))


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_solver"):
        thermofit.no_such_solver
    assert not hasattr(thermofit, "_MAX_COND")


def test_submodules_still_import_through_the_package():
    from thermofit import cli, stepmodel

    assert cli.main is thermofit.cli.main
    assert stepmodel.StepModelParams is thermofit.StepModelParams


def test_numpy_loads_on_first_use_of_a_solver_name():
    src = str(Path(thermofit.__file__).resolve().parents[1])
    code = (
        "import sys, thermofit\n"
        "before = 'numpy' in sys.modules\n"
        "jacobian = thermofit.jacobian\n"
        "resolved = 'numpy' in sys.modules\n"
        "jacobian(thermofit.StepModelParams(20.0, 60.0, 10.0), [0.0, 5.0])\n"
        "print(before, resolved, 'numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "True"]


def test_a_short_series_is_fitted_without_numpy():
    src = str(Path(thermofit.__file__).resolve().parents[1])
    code = (
        "import sys, thermofit\n"
        "series = thermofit.builtin_series('full')\n"
        "thermofit.gauss_newton(series)\n"
        "thermofit.gradient_descent(series, max_iter=10)\n"
        "thermofit.model_sse(thermofit.default_init(series), series)\n"
        "thermofit.build_report(series, nonlinear=True)\n"
        "print('numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


def test_orjson_is_loaded_only_for_a_table_of_at_least_one_block():
    src = str(Path(thermofit.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys, thermofit\n"
        "from thermofit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['fit', '--builtin', 'full', '--json']) == 0\n"
        "fit = thermofit.LinearFit(1.0, 2.0, thermofit.Axis.Y_ON_X, 0.5, 3.0, 2)\n"
        "def render(rows):\n"
        "    table = [(1.0, 2.0, 3.0, 1e-05)] * rows\n"
        "    thermofit.render_json(thermofit.FitReport('r', fit, thermofit.FitClass.GOOD, table))\n"
        "    return 'orjson' in sys.modules\n"
        "print('orjson' in sys.modules, render(4095), render(4096))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "True"]


def test_orjson_is_loaded_only_to_read_a_body_of_at_least_one_block():
    src = str(Path(thermofit.__file__).resolve().parents[1])
    code = (
        "import sys, thermofit\n"
        "def parse(lines):\n"
        "    body = ''.join(f'{t}.5,20.25\\n' for t in range(lines))\n"
        "    thermofit.parse_csv('time_s,temperature_c\\n' + body)\n"
        "    return 'orjson' in sys.modules\n"
        "print(parse(4095), parse(4096))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True"]
