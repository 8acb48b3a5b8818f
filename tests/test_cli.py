import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import thermofit
from thermofit import builtin_series, to_csv
from thermofit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- fit ------------------------------------------------------------------------


def test_fit_builtin_full_json(capsys):
    code, out, err = run(capsys, "fit", "--builtin", "full", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["slope"] == pytest.approx(0.72875, abs=1e-3)
    assert obj["intercept"] == pytest.approx(17.505, abs=1e-3)
    assert obj["r"] == pytest.approx(0.966, abs=1e-3)
    assert obj["fit_class"] == "GOOD"


def test_fit_builtin_idle_text(capsys, monkeypatch):
    monkeypatch.setenv("THERMOFIT_NO_COLOR", "1")
    code, out, err = run(capsys, "fit", "--builtin", "idle")
    assert code == 0
    assert "0.1615" in out
    assert "GOOD" in out
    assert "\x1b[" not in out


def test_fit_axis_slope_product(capsys):
    code, out, _ = run(capsys, "fit", "--builtin", "idle", "--json")
    m_yx = json.loads(out)["slope"]
    r = json.loads(out)["r"]
    code, out, _ = run(capsys, "fit", "--builtin", "idle", "--axis", "x-on-y", "--json")
    m_xy_yform = json.loads(out)["slope"]
    assert m_yx * (1.0 / m_xy_yform) == pytest.approx(r * r, abs=1e-9)


def test_fit_csv_export_byte_identical_json(capsys, tmp_path):
    _, builtin_out, _ = run(capsys, "fit", "--builtin", "idle", "--json")
    assert json.loads(builtin_out)["slope"] == pytest.approx(0.16147, abs=1e-4)
    path = tmp_path / "idle.csv"
    path.write_text(to_csv(builtin_series("idle")), encoding="utf-8")
    _, file_out, _ = run(capsys, "fit", str(path), "--json")
    assert file_out == builtin_out


def test_fit_with_weights(capsys, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("time_s,temperature_c\n0,0\n1,1\n2,5\n", encoding="utf-8")
    wfile = tmp_path / "w.txt"
    wfile.write_text("1\n1\n1000000\n", encoding="utf-8")
    code, out, _ = run(capsys, "fit", str(data), "--weights", str(wfile), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["slope"] * 2 + obj["intercept"] == pytest.approx(5.0, abs=1e-3)


def test_fit_accepts_utf8_bom(capsys, tmp_path):
    csv_text = "time_s,temperature_c\n0,0\n1,1\n2,5\n"
    weights_text = "1\n1\n1000000\n"
    outs = []
    for bom in ("", "\ufeff"):
        data = tmp_path / f"d{len(bom)}.csv"
        data.write_text(bom + csv_text, encoding="utf-8")
        wfile = tmp_path / f"w{len(bom)}.txt"
        wfile.write_text(bom + weights_text, encoding="utf-8")
        code, out, err = run(capsys, "fit", str(data), "--weights", str(wfile), "--json")
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[1] == outs[0]


_CSV = "time_s,temperature_c\n0,0\n1,1\n2,5\n"


@pytest.mark.parametrize(
    "csv_text,weights_text,code,err",
    [
        (_CSV.replace("\n", "\r\n"), "1\r\n1\r\n1e6\r\n", 0, ""),
        # lines end at \n only, so a lone \r does not break a line
        (_CSV.replace("\n", "\r"), "1\n1\n1e6\n", 1, "E_MALFORMED_ROW: line 1: "),
        (_CSV, "1\r1\r1e6\r", 1, "E_MALFORMED_ROW: {w} line 1: "),
        (_CSV, "1\n1_0\n1e6\n", 1, "E_MALFORMED_ROW: {w} line 2: "),
        (_CSV, "1\n\u0661\n1e6\n", 1, "E_MALFORMED_ROW: {w} line 2: "),
    ],
    ids=["crlf", "lone-cr-csv", "lone-cr-weights", "underscore-weight", "arabic-indic-weight"],
)
def test_fit_input_files_follow_the_csv_grammar(capsys, tmp_path, csv_text, weights_text, code, err):
    data, wfile = tmp_path / "d.csv", tmp_path / "w.txt"
    data.write_bytes(csv_text.encode("utf-8"))
    wfile.write_bytes(weights_text.encode("utf-8"))
    got = run(capsys, "fit", str(data), "--weights", str(wfile), "--json")
    assert got[0] == code
    assert got[2].startswith(err.format(w=wfile)) and bool(got[2]) == bool(err)


def test_fit_weights_length_mismatch(capsys, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("time_s,temperature_c\n0,0\n1,1\n2,5\n", encoding="utf-8")
    wfile = tmp_path / "w.txt"
    wfile.write_text("1\n1\n", encoding="utf-8")
    code, _, err = run(capsys, "fit", str(data), "--weights", str(wfile))
    assert code == 1
    assert err.startswith("E_LENGTH_MISMATCH:")


def test_fit_degenerate_variance_exit(capsys, tmp_path):
    # all-equal x cannot happen in a valid series (strictly increasing time),
    # so degeneracy arrives via constant temperatures instead
    data = tmp_path / "flat.csv"
    data.write_text("time_s,temperature_c\n0,20\n1,20\n2,20\n", encoding="utf-8")
    code, _, err = run(capsys, "fit", str(data))
    assert code == 1
    assert err.startswith("E_DEGENERATE_VARIANCE:")


def test_fit_nonlinear_non_convergence_exit_2(capsys):
    code, out, err = run(capsys, "fit", "--builtin", "full", "--nonlinear", "--max-iter", "1", "--json")
    assert code == 2
    assert err.startswith("E_NOT_CONVERGED:")
    assert json.loads(out)["nonlinear"]["converged"] is False


def test_fit_nonlinear_converges_on_full(capsys):
    code, out, _ = run(capsys, "fit", "--builtin", "full", "--nonlinear", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["nonlinear"]["converged"] is True
    assert obj["nonlinear"]["sse"] < obj["sse"]


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (("fit",), "E_USAGE:"),
        (("fit", "/no/such/file.csv"), "E_IO:"),
        (("fit", "--builtin", "idle", "--axis", "x-on-y", "--weights", "w"), "E_USAGE:"),
        (("predict", "-x", "5"), "E_USAGE:"),
        (("thermal", "junction", "-p", "-1", "-r", "10", "-a", "25"), "E_NEGATIVE_POWER:"),
        (("thermal", "junction", "-p", "1", "-r", "0", "-a", "25"), "E_NON_POSITIVE_RESISTANCE:"),
        (("thermal", "select", "-p", "1", "--t-j-max", "20", "-a", "25", "--theta-jc", "0"), "E_NON_POSITIVE_RESISTANCE:"),
        (("plot", "--builtin", "full", "-o", "/no/such/dir/x.svg"), "E_IO:"),
    ],
)
def test_error_paths_print_code_prefix(capsys, argv, prefix):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.splitlines()[0].startswith(prefix)


def test_malformed_csv_paths(capsys, tmp_path):
    cases = [
        ("time_s,temperature_c\n1,a\n", "E_MALFORMED_ROW:"),
        ("time_s,temperature_c\n", "E_EMPTY_SERIES:"),
        ("time_s,temperature_c\n5,20\n5,21\n", "E_NON_INCREASING_TIME:"),
        ("time_s,temperature_c\n1,99999\n", "E_OUT_OF_RANGE:"),
    ]
    for i, (text, prefix) in enumerate(cases):
        p = tmp_path / f"bad{i}.csv"
        p.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "fit", str(p))
        assert code == 1
        assert err.startswith(prefix)


def test_bad_cli_arguments_exit_1(capsys):
    assert run(capsys, "fit", "--builtin", "turbo")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


@pytest.mark.parametrize("value", ["0", "-1", "ten"])
@pytest.mark.parametrize("command", ["fit", "plot"])
def test_non_positive_max_iter_is_a_usage_error(capsys, tmp_path, command, value):
    argv = [command, "--builtin", "full", "--nonlinear", "--max-iter", value]
    if command == "plot":
        argv += ["-o", str(tmp_path / "x.svg")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("E_USAGE:") and "--max-iter" in err
    assert not (tmp_path / "x.svg").exists()


# --- predict ----------------------------------------------------------------------


def test_predict_identity(capsys):
    code, out, _ = run(capsys, "predict", "-m", "1", "-b", "0", "-x", "5")
    assert code == 0
    assert out.strip() == "5.0000"


def test_predict_full_load_line(capsys):
    code, out, _ = run(capsys, "predict", "-m", "0.72875", "-b", "17.505", "-x", "60")
    assert code == 0
    assert abs(float(out) - 61.23) <= 0.01


def test_predict_constant(capsys):
    code, out, _ = run(capsys, "predict", "-m", "0", "-b", "20.2", "-x", "999")
    assert out.strip() == "20.2000"


def test_predict_from_report_file(capsys, tmp_path):
    _, out, _ = run(capsys, "fit", "--builtin", "idle", "--json")
    report = tmp_path / "r.json"
    report.write_text(out, encoding="utf-8")
    obj = json.loads(out)
    code, out2, _ = run(capsys, "predict", "--report", str(report), "-x", "60")
    assert code == 0
    assert float(out2) == pytest.approx(obj["slope"] * 60 + obj["intercept"], abs=1e-4)


def test_predict_malformed_report(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "predict", "--report", str(bad), "-x", "1")
    assert code == 1
    assert err.startswith("E_USAGE:")


# --- correlate ----------------------------------------------------------------------


def test_correlate_builtin(capsys):
    code, out, _ = run(capsys, "correlate", "--builtin", "full")
    assert code == 0
    assert out.strip() == "0.9664"
    code, out, _ = run(capsys, "correlate", "--builtin", "full", "--json")
    assert json.loads(out)["r"] == pytest.approx(0.9664, abs=1e-4)


# --- thermal ----------------------------------------------------------------------


def test_thermal_packages_table(capsys):
    code, out, _ = run(capsys, "thermal", "packages")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # header + 8 rows
    assert any("TO-263" in ln and "23.5" in ln and "50.0" in ln for ln in lines)


def test_thermal_packages_csv(capsys):
    _, out, _ = run(capsys, "thermal", "packages", "--csv")
    assert out.splitlines()[0] == "name,theta_jc,theta_ja"
    assert "TO-220,3.0,62.5" in out


def test_thermal_heatsinks(capsys):
    _, out, _ = run(capsys, "thermal", "heatsinks")
    assert "Aavid Thermally, SMT heat sink" in out
    _, out, _ = run(capsys, "thermal", "heatsinks", "--csv")
    assert out.splitlines()[0] == "name,theta_sa"


def test_thermal_junction(capsys):
    code, out, _ = run(capsys, "thermal", "junction", "-p", "1", "-r", "62.5", "-a", "25")
    assert code == 0
    assert float(out) == 87.5


def test_thermal_select(capsys):
    code, out, _ = run(
        capsys, "thermal", "select", "-p", "0.5", "--t-j-max", "63.4", "-a", "20.2", "--theta-jc", "3"
    )
    assert code == 0
    assert out.strip() == "0.3 sq inch of 1 ounce PCB copper"
    _, out, _ = run(
        capsys, "thermal", "select", "-p", "10", "--t-j-max", "63.4", "-a", "20.2", "--theta-jc", "3"
    )
    assert out.strip() == "none"


# --- plot -------------------------------------------------------------------------


def test_plot_svg_structure(capsys, tmp_path):
    out_svg = tmp_path / "full.svg"
    code, _, _ = run(capsys, "plot", "--builtin", "full", "-o", str(out_svg))
    assert code == 0
    svg = out_svg.read_text(encoding="utf-8")
    root = ET.fromstring(svg)
    tags = [el.tag.rsplit("}", 1)[-1] for el in root.iter()]
    assert tags.count("circle") == 13
    assert tags.count("line") == 1
    base_paths = tags.count("path")

    out_nl = tmp_path / "full_nl.svg"
    code, _, _ = run(capsys, "plot", "--builtin", "full", "--nonlinear", "-o", str(out_nl))
    assert code == 0
    root = ET.fromstring(out_nl.read_text(encoding="utf-8"))
    tags = [el.tag.rsplit("}", 1)[-1] for el in root.iter()]
    assert tags.count("path") == base_paths + 1


def test_plot_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "plot", "--builtin", "full", "-o", str(a))
    run(capsys, "plot", "--builtin", "full", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_plot_nonlinear_non_convergence_exit_2(capsys, tmp_path):
    out = tmp_path / "p.svg"
    code, _, err = run(
        capsys, "plot", "--builtin", "full", "--nonlinear", "--max-iter", "1", "-o", str(out)
    )
    assert code == 2
    assert err.startswith("E_NOT_CONVERGED:")
    assert out.exists()  # best-effort plot is still written


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("thermofit")


def test_cli_import_skips_heavy_stdlib_modules():
    # xml.sax.saxutils alone pulls in urllib.request, http.client, ssl and email
    src = str(Path(thermofit.__file__).resolve().parents[1])
    code = "import sys, thermofit.cli; print(sorted({'xml.sax', 'urllib.request'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
