"""The command-line contract as one table, ``tests/cli_contract.txt``.

Each row of the table is one command line with its exit code, the sha256 of
the bytes it writes (stdout, or the file that ``plot -o`` names) and the first
line of its stderr.  ``test_row`` replays every row in-process through
``cli.main``.  A row that fails shows the line its command gives now; where
the new bytes are meant, paste that line over the old one and say why in
CHANGES.md.

A row marked ``cpu`` fits a curve to at least ``_ARRAY_MIN`` samples, whose
last digits follow numpy's CPU dispatch: its digest is taken with the curve
taken out (the report's ``nonlinear`` member, the plot's curve ``<path>``).
The digest of its full bytes is compared on this machine only, with what the
library's writers return.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from thermofit import build_report, parse_csv, render_json, render_text
from thermofit.cli import main
from thermofit.svgplot import CURVE_COLOR

_N = 200_000  # samples in big.csv
_N_INTS = 5000  # samples in ints.csv, more than one block of the reader

# The input files, written once per module into one directory; argv names them
# by relative path.  big.csv is a slow 1 Hz warm-up with a ripple.
_INPUTS = {
    "big.csv": lambda: "time_s,temperature_c\n"
    + "".join(f"{t!r},{60.0 - 40.0 * math.exp(-t / 66667.0) + 0.3 * math.sin(t)!r}\n" for t in map(float, range(_N))),
    "w.txt": lambda: "1.0\n" * _N,
    "w2.txt": lambda: "".join(f"{1 + (i % 7) / 8}\n" for i in range(_N)),
    # int times from -0, which only float() reads as a signed zero, with CRLF
    # line ends and tab-padded fields
    "ints.csv": lambda: "time_s,temperature_c\r\n"
    + "".join(f"\t{t or '-0'}\t,\t{20.0 + 0.004 * t + 0.5 * math.sin(t)!r}\t\r\n" for t in range(_N_INTS)),
}


class Row(NamedTuple):
    code: int
    digest: str
    cpu: bool
    err: str


def _line(argv: tuple[str, ...], row: Row) -> str:
    """``row`` of ``argv`` as a line of the table: exit code, digest, mark,
    argv and, after " | ", the first line of stderr if there is one."""
    line = f"{row.code} {row.digest} {'cpu' if row.cpu else '-'} {shlex.join(argv)}"
    return f"{line} | {row.err}" if row.err else line


def _table() -> dict[tuple[str, ...], Row]:
    rows = {}
    for line in Path(__file__).with_name("cli_contract.txt").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            head, _, err = line.partition(" | ")
            code, digest, mark, *argv = shlex.split(head)
            rows[tuple(argv)] = Row(int(code), digest, mark == "cpu", err)
    return rows


_ROWS = _table()


def _without_curve(argv: tuple[str, ...], data: bytes) -> bytes:
    """The bytes of a curve fit with the curve taken out: the report without
    its ``nonlinear`` member, or the plot without the curve's <path> line."""
    if "-o" in argv:
        lines = data.split(b"\n")
        curve = f' stroke="{CURVE_COLOR}"'.encode()
        kept = [line for line in lines if not (line.startswith(b"<path ") and curve in line)]
        assert len(kept) == len(lines) - 1, "a cpu row's plot draws one curve"
        return b"\n".join(kept)
    # the report is canonical JSON, and "nonlinear" its last member
    head, member, tail = data.rpartition(b',\n  "nonlinear": {')
    assert member and b'\n  "' not in tail, "a cpu row's report ends with its curve"
    return head + b"\n}\n"


def _is_canonical(text: str, indent: int | None) -> bool:
    """Whether ``text`` is ``json.dumps(json.loads(text), indent=indent) + "\\n"``,
    compared a piece of the encoder's output at a time rather than joined."""
    at = 0
    for piece in json.JSONEncoder(indent=indent).iterencode(json.loads(text)):
        if not text.startswith(piece, at):
            return False
        at += len(piece)
    return text[at:] == "\n"


# (sha256, indent) of each --json output found canonical: rows that write the
# same bytes, such as a fit with unit weights and without, are checked once
_CANONICAL: set[tuple[str, int | None]] = set()


class Outcome(NamedTuple):
    row: Row
    tags: Counter | None  # the element names of a plot's SVG, counted
    full: str  # the sha256 of all the bytes, for a cpu row the curve too


def _replay(workdir: Path, argv: tuple[str, ...], cpu: bool) -> Outcome:
    """Run ``argv`` through ``cli.main`` in ``workdir``, and check that a
    ``--json`` report is canonical and a plot well-formed XML."""
    out, err = io.StringIO(), io.StringIO()
    target = workdir / argv[argv.index("-o") + 1] if "-o" in argv else None
    if target is not None:
        target.unlink(missing_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    text = out.getvalue()
    data, tags = text.encode(), None
    if target is not None and target.exists():
        data = target.read_bytes()
        tags = Counter()
        # each element is cleared once counted, so that no tree of a big plot is kept
        for _, el in ET.iterparse(io.BytesIO(data)):
            tags[el.tag.rsplit("}", 1)[-1]] += 1
            el.clear()
    full = hashlib.sha256(data).hexdigest()
    # fit writes what json.dumps(..., indent=2) writes, correlate plain json.dumps
    canonical = (full, 2 if argv[0] == "fit" else None)
    if "--json" in argv and text and canonical not in _CANONICAL:
        assert _is_canonical(text, canonical[1])
        _CANONICAL.add(canonical)
    digest = hashlib.sha256(_without_curve(argv, data)).hexdigest() if cpu else full
    first = (err.getvalue().splitlines() or [""])[0]
    return Outcome(Row(code, digest, cpu, first), tags, full)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The directory of the input files, written once per module."""
    workdir = tmp_path_factory.mktemp("contract")
    for name, text in _INPUTS.items():
        (workdir / name).write_text(text(), encoding="utf-8")
    return workdir


@pytest.fixture(scope="module")
def replay(workdir):
    """The outcome of a row's argv, each replayed once per module."""
    done = {}

    def outcome(argv: tuple[str, ...]) -> Outcome:
        if argv not in done:
            done[argv] = _replay(workdir, argv, _ROWS[argv].cpu)
        return done[argv]

    return outcome


@pytest.mark.parametrize("argv", list(_ROWS), ids=shlex.join)
def test_row(replay, argv):
    line = _line(argv, replay(argv).row)
    assert line == _line(argv, _ROWS[argv]), f"the row now reads:\n{line}"


def test_equal_weights_write_the_unweighted_report(replay):
    assert replay(("fit", "big.csv", "--weights", "w.txt", "--json")).row.digest == (
        replay(("fit", "big.csv", "--json")).row.digest
    )


_CURVE_FITS = [argv for argv in _ROWS if argv[:2] == ("fit", "big.csv") and "--nonlinear" in argv]


@pytest.mark.parametrize("argv", _CURVE_FITS, ids=shlex.join)
def test_a_curve_fit_reports_the_line_a_line_fit_reports(replay, argv):
    # beside a curve fit of this size the line is fitted on numpy arrays, and
    # without one on Python lists: the same report, bit for bit, once the
    # curve is taken out
    assert _ROWS[argv].cpu
    assert replay(argv).row.digest == replay(tuple(a for a in argv if a != "--nonlinear")).row.digest


def test_a_logger_size_plot_draws_every_sample(replay):
    tags = replay(("plot", "big.csv", "--nonlinear", "-o", "out.svg")).tags
    assert (tags["circle"], tags["line"]) == (_N, 1)


@pytest.mark.parametrize(
    "argv, nonlinear, render",
    [(("fit", "big.csv"), False, render_text), (("fit", "big.csv", "--nonlinear", "--json"), True, render_json)],
    ids=["text-200000", "nonlinear-json-200000"],
)
def test_fit_writes_what_the_library_writers_return(workdir, replay, argv, nonlinear, render):
    # fit writes its report a block at a time, 49 blocks at this size
    text = render(build_report(parse_csv((workdir / "big.csv").read_text(encoding="utf-8")), nonlinear=nonlinear))
    if render is render_text:
        assert len(text.splitlines()) == 9 + _N
    assert hashlib.sha256(text.encode()).hexdigest() == replay(argv).full
