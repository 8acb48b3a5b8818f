import math

import pytest
from hypothesis import assume, given, strategies as st

from thermofit import (
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
from thermofit.errors import (
    EmptyInput,
    InvertedTemperatures,
    NegativePower,
    NonPositiveResistance,
    OutOfRange,
)
from thermofit.thermal import catalog_to_csv

GOLDEN_PACKAGES = [
    ("TO 3", 5.0, 60.0),
    ("TO-39", 12.0, 140.0),
    ("TO-220", 3.0, 62.5),
    ("TO-220FB", 3.0, 50.0),
    ("TO-223", 30.6, 53.0),
    ("TO-252", 5.0, 92.0),
    ("TO-263", 23.5, 50.0),
    ("D2PAK", 4.0, 35.0),
]

GOLDEN_HEATSINKS = [
    ("1 sq inch of 1 ounce PCB copper", 43.0),
    ("0.5 sq inch of 1 ounce PCB copper", 50.0),
    ("0.3 sq inch of 1 ounce PCB copper", 56.0),
    ("Aavid Thermally, SMT heat sink", 14.0),
]


def test_builtin_packages_golden():
    got = [(e.name, e.theta_jc, e.theta_ja) for e in builtin_packages()]
    assert got == GOLDEN_PACKAGES
    assert len(got) == 8


def test_builtin_heatsinks_golden():
    got = [(e.name, e.theta_sa) for e in builtin_heatsinks()]
    assert got == GOLDEN_HEATSINKS
    assert len(got) == 4


def test_entry_invariants_enforced():
    with pytest.raises(NonPositiveResistance):
        PackageEntry("bad", 0.0, 10.0)
    with pytest.raises(OutOfRange):
        PackageEntry("bad", 10.0, 5.0)
    with pytest.raises(NonPositiveResistance):
        HeatSinkEntry("bad", -1.0)
    with pytest.raises(OutOfRange):
        ProcessorSpec("bad", 250.0, "")


def test_processor_spec():
    assert PENTIUM_D_915.t_j_max_c == 63.4
    assert "interpreted" in PENTIUM_D_915.note


def test_junction_temperature_examples():
    assert junction_temperature(0.0, 50.0, 25.0) == 25.0
    assert junction_temperature(1.0, 62.5, 25.0) == 87.5
    assert junction_temperature(2.0, 43.0, 20.2) == pytest.approx(106.2, abs=1e-12)


def test_junction_temperature_errors():
    with pytest.raises(NegativePower):
        junction_temperature(-1.0, 50.0, 25.0)
    with pytest.raises(NonPositiveResistance):
        junction_temperature(1.0, 0.0, 25.0)
    with pytest.raises(OutOfRange):
        junction_temperature(1.0, 50.0, float("nan"))


def test_max_power_examples():
    assert max_power(87.5, 62.5, 25.0) == pytest.approx(1.0, rel=1e-12)
    assert max_power(63.4, 43.0, 20.2) == pytest.approx(1.0047, abs=1e-4)
    with pytest.raises(InvertedTemperatures):
        max_power(25.0, 50.0, 25.0)
    with pytest.raises(NonPositiveResistance):
        max_power(80.0, -2.0, 25.0)


@given(
    st.floats(0.0, 500.0, allow_nan=False),
    st.floats(0.01, 200.0, allow_nan=False),
    st.floats(-60.0, 120.0, allow_nan=False),
)
def test_junction_monotone_and_affine(power, theta, ambient):
    t = junction_temperature(power, theta, ambient)
    assert t >= ambient
    assert junction_temperature(power + 1.0, theta, ambient) >= t
    assert junction_temperature(power, theta + 1.0, ambient) >= t if power > 0 else True
    # affine in power: doubling the rise doubles the delta
    rise = t - ambient
    assert junction_temperature(2 * power, theta, ambient) - ambient == pytest.approx(
        2 * rise, rel=1e-12, abs=1e-9
    )


@given(
    st.floats(0.5, 150.0, allow_nan=False),
    st.floats(0.01, 200.0, allow_nan=False),
    st.floats(-60.0, 120.0, allow_nan=False),
)
def test_max_power_round_trip(t_rise, theta, ambient):
    t_j_max = ambient + t_rise
    p = max_power(t_j_max, theta, ambient)
    assert junction_temperature(p, theta, ambient) == pytest.approx(t_j_max, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: junction_temperature(1e308, 10.0, 20.0), id="junction-power-times-theta"),
        pytest.param(lambda: junction_temperature(1.0, 1e308, 1e308), id="junction-plus-ambient"),
        pytest.param(lambda: max_power(1e308, 1.0, -1e308), id="max-power-rise"),
        pytest.param(lambda: max_power(1.0, 1e-310, 0.0), id="max-power-subnormal-theta"),
    ],
)
def test_overflow_is_out_of_range_not_inf(call):
    with pytest.raises(OutOfRange, match="overflows"):
        call()


def _finite_or_out_of_range(f, *args):
    try:
        value = f(*args)
    except OutOfRange:
        return
    assert math.isfinite(value)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(_NON_NEGATIVE, _POSITIVE, _FINITE)
def test_junction_temperature_is_finite_or_out_of_range(power, theta, ambient):
    _finite_or_out_of_range(junction_temperature, power, theta, ambient)


@given(_FINITE, _POSITIVE, _FINITE)
def test_max_power_is_finite_or_out_of_range(t_j_max, theta, ambient):
    assume(t_j_max > ambient)
    _finite_or_out_of_range(max_power, t_j_max, theta, ambient)


def _qualifies(entry, power, t_j_max, ambient, theta_jc):
    return ambient + power * (theta_jc + entry.theta_sa) <= t_j_max


def test_select_heatsink_half_watt_case():
    got = select_heatsink(builtin_heatsinks(), 0.5, 63.4, 20.2, 3.0)
    assert got is not None
    assert got.name == "0.3 sq inch of 1 ounce PCB copper"
    assert got.theta_sa == 56.0


def test_select_heatsink_ten_watt_case():
    assert select_heatsink(builtin_heatsinks(), 10.0, 63.4, 20.2, 3.0) is None


def test_select_heatsink_zero_power():
    got = select_heatsink(builtin_heatsinks(), 0.0, 63.4, 20.2, 3.0)
    assert got.theta_sa == max(e.theta_sa for e in builtin_heatsinks())


def test_select_heatsink_agrees_with_exhaustive_scan():
    import random

    rng = random.Random(301)
    catalog = builtin_heatsinks()
    for _ in range(200):
        power = rng.uniform(0.0, 5.0)
        ambient = rng.uniform(0.0, 40.0)
        t_j_max = rng.uniform(30.0, 150.0)
        theta_jc = rng.uniform(0.5, 30.0)
        if t_j_max <= ambient:
            continue
        got = select_heatsink(catalog, power, t_j_max, ambient, theta_jc)
        qualifying = [e for e in catalog if _qualifies(e, power, t_j_max, ambient, theta_jc)]
        if not qualifying:
            assert got is None
        else:
            assert got is not None
            assert _qualifies(got, power, t_j_max, ambient, theta_jc)
            assert got.theta_sa == max(e.theta_sa for e in qualifying)


def test_select_heatsink_errors():
    with pytest.raises(EmptyInput):
        select_heatsink([], 1.0, 80.0, 25.0, 3.0)
    with pytest.raises(NegativePower):
        select_heatsink(builtin_heatsinks(), -1.0, 80.0, 25.0, 3.0)
    with pytest.raises(NonPositiveResistance):
        select_heatsink(builtin_heatsinks(), 1.0, 80.0, 25.0, 0.0)


def test_csv_exports():
    pkg_csv = catalog_to_csv(builtin_packages())
    lines = pkg_csv.strip().split("\n")
    assert lines[0] == "name,theta_jc,theta_ja"
    assert len(lines) == 9
    assert lines[1] == "TO 3,5.0,60.0"
    hs_csv = catalog_to_csv(builtin_heatsinks())
    lines = hs_csv.strip().split("\n")
    assert lines[0] == "name,theta_sa"
    assert len(lines) == 5
    # the comma inside this name must be quoted to stay one field
    assert '"Aavid Thermally, SMT heat sink",14.0' in hs_csv
    import csv as _csv
    import io

    rows = list(_csv.reader(io.StringIO(hs_csv)))
    assert rows[-1] == ["Aavid Thermally, SMT heat sink", "14.0"]
