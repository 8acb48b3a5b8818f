"""Thermal-resistance catalogs and junction-temperature prediction.

The junction model is the standard single-resistance series chain

    T_junction = T_ambient + P * theta_total

with theta_total in degC/W.  Catalog values are published junction-to-case /
junction-to-air figures for common packages and sink-to-ambient figures for
surface-mount heat sinking on PCB copper.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields

from .errors import (
    EmptyInput,
    InvertedTemperatures,
    NegativePower,
    NonPositiveResistance,
    OutOfRange,
    _ordered,
    _require_finite,
    _shown,
)


@dataclass(frozen=True)
class PackageEntry:
    """Thermal resistances of an electronic package, degC/W."""

    name: str
    theta_jc: float
    theta_ja: float

    def __post_init__(self):
        if not (_ordered(self.theta_jc) > 0 and _ordered(self.theta_ja) > 0):
            raise NonPositiveResistance(f"{self.name}: resistances must be positive")
        if self.theta_ja < self.theta_jc:
            raise OutOfRange(
                f"{self.name}: theta_ja {_shown(self.theta_ja, str)} < theta_jc {_shown(self.theta_jc, str)} "
                "(the air path includes the case path)"
            )


@dataclass(frozen=True)
class HeatSinkEntry:
    """Sink-to-ambient thermal resistance of a heat sink option, degC/W."""

    name: str
    theta_sa: float

    def __post_init__(self):
        if not _ordered(self.theta_sa) > 0:
            raise NonPositiveResistance(f"{self.name}: theta_sa must be positive")


@dataclass(frozen=True)
class ProcessorSpec:
    """A processor's junction temperature limit, with provenance."""

    name: str
    t_j_max_c: float
    note: str

    def __post_init__(self):
        if not (0 < _ordered(self.t_j_max_c) < 200):
            raise OutOfRange(f"{self.name}: t_j_max_c {_shown(self.t_j_max_c, str)} outside (0, 200)")


_PACKAGES = (
    ("TO 3", 5.0, 60.0),
    ("TO-39", 12.0, 140.0),
    ("TO-220", 3.0, 62.5),
    ("TO-220FB", 3.0, 50.0),
    ("TO-223", 30.6, 53.0),
    ("TO-252", 5.0, 92.0),
    ("TO-263", 23.5, 50.0),
    ("D2PAK", 4.0, 35.0),
)

_HEATSINKS = (
    ("1 sq inch of 1 ounce PCB copper", 43.0),
    ("0.5 sq inch of 1 ounce PCB copper", 50.0),
    ("0.3 sq inch of 1 ounce PCB copper", 56.0),
    ("Aavid Thermally, SMT heat sink", 14.0),
)

# The 63.4 degC figure is the "thermal coefficient" quoted for this part in
# the measurement campaign behind the builtin dataset; no units or defining
# formula came with it.  Reading it as the junction temperature limit is the
# most natural interpretation, so it is kept here as example input only and
# never used as a silent default.
PENTIUM_D_915 = ProcessorSpec(
    name="Intel Pentium D 915",
    t_j_max_c=63.4,
    note="quoted 'thermal coefficient of 63.4 degC'; interpreted as max junction temperature",
)


def builtin_packages() -> list[PackageEntry]:
    """All built-in package entries, in catalog order."""
    return [PackageEntry(n, jc, ja) for n, jc, ja in _PACKAGES]


def builtin_heatsinks() -> list[HeatSinkEntry]:
    """All built-in surface-mount heat sink entries, in catalog order."""
    return [HeatSinkEntry(n, sa) for n, sa in _HEATSINKS]


def junction_temperature(power_w: float, theta_total: float, t_ambient_c: float) -> float:
    """Predicted junction temperature: t_ambient_c + power_w * theta_total, in floats."""
    if _ordered(power_w) < 0:
        raise NegativePower(f"power_w {_shown(power_w, str)} is negative")
    if _ordered(theta_total) <= 0:
        raise NonPositiveResistance(f"theta_total {_shown(theta_total, str)} must be positive")
    inputs = _require_finite((power_w, theta_total, t_ambient_c), "junction_temperature inputs must be finite")
    p, theta, t_a = map(float, inputs)
    return _require_finite((t_a + p * theta,), "junction temperature overflows")[0]


def max_power(t_j_max_c: float, theta_total: float, t_ambient_c: float) -> float:
    """Largest power that keeps the junction at or below t_j_max_c, in floats."""
    if _ordered(theta_total) <= 0:
        raise NonPositiveResistance(f"theta_total {_shown(theta_total, str)} must be positive")
    inputs = _require_finite((t_j_max_c, theta_total, t_ambient_c), "max_power inputs must be finite")
    if t_j_max_c <= t_ambient_c:
        raise InvertedTemperatures(
            f"t_j_max_c {t_j_max_c} does not exceed ambient {t_ambient_c}"
        )
    t_j, theta, t_a = map(float, inputs)
    return _require_finite(((t_j - t_a) / theta,), "max_power overflows")[0]


def select_heatsink(
    catalog: list[HeatSinkEntry],
    power_w: float,
    t_j_max_c: float,
    t_ambient_c: float,
    theta_jc: float,
) -> HeatSinkEntry | None:
    """Pick the cheapest adequate sink: largest theta_sa meeting the limit.

    An entry qualifies when t_ambient + power * (theta_jc + theta_sa) stays
    at or below t_j_max.  Returns None when nothing qualifies; ties keep
    catalog order.
    """
    if not catalog:
        raise EmptyInput("heat sink catalog is empty")
    if _ordered(power_w) < 0:
        raise NegativePower(f"power_w {_shown(power_w, str)} is negative")
    if _ordered(theta_jc) <= 0:
        raise NonPositiveResistance(f"theta_jc {_shown(theta_jc, str)} must be positive")
    inputs = _require_finite((power_w, t_j_max_c, t_ambient_c, theta_jc), "select_heatsink inputs must be finite")
    p, t_j_max, t_a, theta_jc = map(float, inputs)
    best: HeatSinkEntry | None = None
    for entry in catalog:
        (theta_sa,) = _require_finite((entry.theta_sa,), f"{entry.name}: theta_sa must be finite")
        t_j = t_a + p * (theta_jc + float(theta_sa))
        if t_j <= t_j_max and (best is None or entry.theta_sa > best.theta_sa):
            best = entry
    return best


def catalog_to_csv(entries: list[PackageEntry] | list[HeatSinkEntry]) -> str:
    """CSV export of catalog entries, one column per dataclass field.

    The header is the field names in declaration order, e.g.
    ``name,theta_jc,theta_ja`` for packages and ``name,theta_sa`` for sinks.
    An entry with a value that is not written out raises OutOfRange.
    """
    names = [f.name for f in fields(entries[0])]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names)
    for e in entries:
        row = [getattr(e, n) for n in names]
        try:
            w.writerow(row)
        except ValueError:  # no int of more than 4300 digits, as in to_csv
            raise OutOfRange(f"cannot write the entry ({', '.join(map(_shown, row))})") from None
    return buf.getvalue()
