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
import math
from dataclasses import dataclass, fields

from .errors import (
    EmptyInput,
    InvertedTemperatures,
    NegativePower,
    NonPositiveResistance,
    OutOfRange,
)


@dataclass(frozen=True)
class PackageEntry:
    """Thermal resistances of an electronic package, degC/W."""

    name: str
    theta_jc: float
    theta_ja: float

    def __post_init__(self):
        if not (self.theta_jc > 0 and self.theta_ja > 0):
            raise NonPositiveResistance(f"{self.name}: resistances must be positive")
        if self.theta_ja < self.theta_jc:
            raise OutOfRange(
                f"{self.name}: theta_ja {self.theta_ja} < theta_jc {self.theta_jc} "
                "(the air path includes the case path)"
            )


@dataclass(frozen=True)
class HeatSinkEntry:
    """Sink-to-ambient thermal resistance of a heat sink option, degC/W."""

    name: str
    theta_sa: float

    def __post_init__(self):
        if not self.theta_sa > 0:
            raise NonPositiveResistance(f"{self.name}: theta_sa must be positive")


@dataclass(frozen=True)
class ProcessorSpec:
    """A processor's junction temperature limit, with provenance."""

    name: str
    t_j_max_c: float
    note: str

    def __post_init__(self):
        if not (0 < self.t_j_max_c < 200):
            raise OutOfRange(f"{self.name}: t_j_max_c {self.t_j_max_c} outside (0, 200)")


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


def _finite(value: float, what: str) -> float:
    """``value``, or OutOfRange where finite inputs overflowed to +-inf."""
    if not math.isfinite(value):
        raise OutOfRange(f"{what} overflows: {value!r}")
    return value


def junction_temperature(power_w: float, theta_total: float, t_ambient_c: float) -> float:
    """Predicted junction temperature: t_ambient_c + power_w * theta_total."""
    if power_w < 0:
        raise NegativePower(f"power_w {power_w} is negative")
    if theta_total <= 0:
        raise NonPositiveResistance(f"theta_total {theta_total} must be positive")
    if not all(map(math.isfinite, (power_w, theta_total, t_ambient_c))):
        raise OutOfRange("junction_temperature inputs must be finite")
    return _finite(t_ambient_c + power_w * theta_total, "junction temperature")


def max_power(t_j_max_c: float, theta_total: float, t_ambient_c: float) -> float:
    """Largest power that keeps the junction at or below t_j_max_c."""
    if theta_total <= 0:
        raise NonPositiveResistance(f"theta_total {theta_total} must be positive")
    if not all(map(math.isfinite, (t_j_max_c, theta_total, t_ambient_c))):
        raise OutOfRange("max_power inputs must be finite")
    if t_j_max_c <= t_ambient_c:
        raise InvertedTemperatures(
            f"t_j_max_c {t_j_max_c} does not exceed ambient {t_ambient_c}"
        )
    return _finite((t_j_max_c - t_ambient_c) / theta_total, "max_power")


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
    if power_w < 0:
        raise NegativePower(f"power_w {power_w} is negative")
    if theta_jc <= 0:
        raise NonPositiveResistance(f"theta_jc {theta_jc} must be positive")
    if not all(map(math.isfinite, (power_w, t_j_max_c, t_ambient_c, theta_jc))):
        raise OutOfRange("select_heatsink inputs must be finite")
    best: HeatSinkEntry | None = None
    for entry in catalog:
        t_j = t_ambient_c + power_w * (theta_jc + entry.theta_sa)
        if t_j <= t_j_max_c and (best is None or entry.theta_sa > best.theta_sa):
            best = entry
    return best


def catalog_to_csv(entries: list[PackageEntry] | list[HeatSinkEntry]) -> str:
    """CSV export of catalog entries, one column per dataclass field.

    The header is the field names in declaration order, e.g.
    ``name,theta_jc,theta_ja`` for packages and ``name,theta_sa`` for sinks.
    """
    names = [f.name for f in fields(entries[0])]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names)
    w.writerows([getattr(e, n) for n in names] for e in entries)
    return buf.getvalue()
