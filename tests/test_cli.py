"""Command-line interface: scans, figure presets, self-validation."""

import ast
import csv
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etsbell
from etsbell import cli, sweeps
from etsbell.errors import NonconvergenceError
from etsbell.inequalities import OPTIMIZER_REL_TOL, OptimizationResult, canonical_angles
from etsbell.sweeps import SweepResult, SweepRow


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SCAN = ["scan", "--family", "cluster4-cond", "--inequality", "sasa",
        "--V", "1", "--d", "0,1", "--eta", "1"]


def test_scan_trivial_point(capsys):
    code, out, _err = run(capsys, SCAN)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("family,inequality,V,d,eta,value,err,"
                        "lr_bound,quantum_max,violated")
    assert lines[1] == "cluster4-cond,sasa,1,0,1,0,0,2,4,false"
    assert lines[2].startswith("cluster4-cond,sasa,1,1,1,")
    assert lines[2].endswith(",true")


def test_scan_reruns_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code1, _o, _e = run(capsys, SCAN + ["--out", str(first)])
    code2, _o, _e = run(capsys, SCAN + ["--out", str(second)])
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()


def test_scan_json_mirrors_csv(tmp_path, capsys):
    args = ["scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
            "--V", "1", "--d", "0:2:3"]
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    run(capsys, args + ["--out", str(csv_path)])
    run(capsys, args + ["--format", "json", "--out", str(json_path)])

    doc = json.loads(json_path.read_text())
    assert doc["metadata"]["version"]
    assert doc["metadata"]["family"] == "ghz3-cond"
    assert doc["metadata"]["angles"]["mode"] == "canonical"
    assert doc["metadata"]["config"] == {"nodes_per_axis": 40, "rel_tol": 1e-7}

    with csv_path.open() as fh:
        csv_rows = list(csv.DictReader(fh))
    assert len(csv_rows) == len(doc["rows"]) == 3
    for text_row, json_row in zip(csv_rows, doc["rows"]):
        for key in ("V", "d", "eta", "value", "err"):
            assert float(text_row[key]) == pytest.approx(
                json_row[key], rel=1e-11, abs=1e-11)
        assert (text_row["violated"] == "true") == json_row["violated"]


def test_only_json_scans_build_metadata(capsys, monkeypatch):
    # the metadata (the config as a dict, the sorted provenances) goes only
    # into JSON, so a CSV scan never builds it
    built = []
    asdict = cli.dataclasses.asdict
    monkeypatch.setattr(cli.dataclasses, "asdict", lambda cfg: built.append(cfg) or asdict(cfg))
    assert run(capsys, SCAN)[0] == 0
    assert built == []
    code, out, _err = run(capsys, SCAN + ["--format", "json"])
    assert code == 0 and len(built) == 1
    assert json.loads(out)["metadata"]["config"] == {"nodes_per_axis": 40, "rel_tol": 1e-7}


@pytest.mark.parametrize("flag", ["--mc-samples", "--seed"])
def test_scan_has_no_sampling_flags(capsys, flag):
    # scan always integrates deterministically, so sampling knobs are refused
    code, _out, err = run(capsys, SCAN + [flag, "1000"])
    assert code == 1
    assert "unrecognized arguments" in err


def test_scan_range_syntax(capsys):
    code, out, _err = run(capsys, [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
        "--V", "1", "--d", "0:4:5"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 5
    assert [float(r.split(",")[3]) for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_scan_explicit_angles_reproduce_canonical(capsys):
    canonical = ("{:.10f},{:.10f};{:.10f},{:.10f};{:.10f},{:.10f}".format(
        math.pi / 2, 3 * math.pi / 4, math.pi / 2, math.pi / 4,
        math.pi / 2, math.pi / 2, math.pi / 2, 0.0,
        math.pi / 2, 0.0, math.pi / 2, 3 * math.pi / 2))
    code, out, _err = run(capsys, [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
        "--V", "1", "--d", "1", "--angles", "explicit",
        "--angle-list",
        f"{math.pi/2},{3*math.pi/4},{math.pi/2},{math.pi/4};"
        f"{math.pi/2},{math.pi/2},{math.pi/2},0;"
        f"{math.pi/2},0,{math.pi/2},{3*math.pi/2}"])
    assert code == 0
    explicit_value = float(out.strip().splitlines()[1].split(",")[5])
    code, out, _err = run(capsys, [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
        "--V", "1", "--d", "1"])
    canonical_value = float(out.strip().splitlines()[1].split(",")[5])
    assert explicit_value == pytest.approx(canonical_value, abs=1e-9)


def test_scan_rejects_unknown_family(capsys):
    code, _out, err = run(capsys, [
        "scan", "--family", "nope", "--inequality", "sasa",
        "--V", "1", "--d", "0"])
    assert code == 1
    assert "usage" in err


def test_scan_rejects_malformed_grid(capsys):
    code, _out, err = run(capsys, [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
        "--V", "1", "--d", "0:bad:3"])
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize("nodes", ["0", "9", "51"])
def test_scan_rejects_nodes_out_of_range(capsys, nodes):
    code, out, err = run(capsys, SCAN + ["--nodes", nodes])
    assert code == 1
    assert out == ""
    assert f"nodes_per_axis must lie in [10, 50], got {nodes}" in err
    assert "Traceback" not in err


def test_scan_rejects_incomplete_angle_list(capsys):
    code, _out, err = run(capsys, [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
        "--V", "1", "--d", "1", "--angles", "explicit",
        "--angle-list", "0.1,0.2"])
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize("mode", ["canonical", "optimize"])
def test_scan_rejects_angle_list_without_explicit_mode(capsys, mode):
    # the list would be ignored: the scan would print another set's values
    code, out, err = run(capsys, [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
        "--V", "1", "--d", "1", "--angles", mode,
        "--angle-list", "0,0,0,0;0,0,0,0;0,0,0,0"])
    assert code == 1
    assert out == ""
    assert f"--angle-list needs --angles explicit, not --angles {mode}" in err


def test_scan_names_a_missing_canonical_set_unquoted(capsys):
    # the error is a KeyError, whose str() would wrap the message in quotes
    code, out, err = run(capsys, [
        "scan", "--family", "ghz3-kerr", "--inequality", "mermin3", "--V", "5", "--d", "1"])
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == ("etsbell: error: no canonical angles for inequality "
                                    "'mermin3' on family 'ghz3-kerr'")


def test_scan_reports_failed_rows_with_exit_two(capsys, monkeypatch):
    def fake_run_sweep(plan):
        row = SweepRow(V=1.0, d=1.0, eta=1.0, value=float("nan"),
                       err=float("nan"), violated=False, failed=True,
                       angles_used=None, provenance="stub")
        return SweepResult(plan=plan, rows=(row,))

    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    code, out, _err = run(capsys, [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
        "--V", "1", "--d", "1"])
    assert code == 2
    assert ",nan," in out


def test_failed_rows_become_null_in_json(tmp_path, capsys, monkeypatch):
    def fake_run_sweep(plan):
        row = SweepRow(V=1.0, d=1.0, eta=1.0, value=float("nan"),
                       err=float("nan"), violated=False, failed=True,
                       angles_used=None, provenance="stub")
        return SweepResult(plan=plan, rows=(row,))

    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    out_path = tmp_path / "rows.json"
    code, _out, _err = run(capsys, [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
        "--V", "1", "--d", "1", "--format", "json", "--out", str(out_path)])
    assert code == 2
    doc = json.loads(out_path.read_text())
    assert doc["rows"][0]["value"] is None
    assert doc["rows"][0]["err"] is None


def test_scan_names_each_failed_point_on_stderr(capsys, monkeypatch):
    # one point of the curve raises; its row fails, stderr names it with its
    # reason, and stdout keeps every other row as an unpatched scan writes it
    argv = ["scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
            "--V", "5", "--d", "1,2,3", "--eta", "0.5"]
    code, clean, err = run(capsys, argv)
    assert (code, err) == (0, "")
    evaluate_curve = sweeps.evaluate_curve_with_error

    def one_point_fails(spec, curve, *args):
        outcomes = evaluate_curve(spec, curve, *args)
        return [NonconvergenceError("stalled on purpose") if family.d == 2.0 else outcome
                for family, outcome in zip(curve, outcomes)]

    monkeypatch.setattr(sweeps, "evaluate_curve_with_error", one_point_fails)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err == "etsbell: point V=5, d=2, eta=0.5 failed: stalled on purpose\n"
    want = clean.splitlines()
    want[2] = "ghz3-cond,svetlichny3,5,2,0.5,nan,nan,4,5.65685424949,false"
    assert out.splitlines() == want


def test_scan_metadata_names_stalled_restarts(capsys):
    # one of this cell's four restarts stops short of the gradient tolerance
    code, out, _err = run(capsys, [
        "scan", "--family", "cluster4-cond", "--inequality", "wwzb4",
        "--V", "2", "--d", "1", "--angles", "optimize", "--format", "json"])
    assert code == 0
    provenance = json.loads(out)["metadata"]["angles"]["provenance"]
    assert provenance == ["optimizer (1 of 4 restarts stalled)"]


def test_scan_optimize_passes_nodes_to_optimizer(capsys, monkeypatch):
    seen = []

    def fake_optimize_angles(spec, family, detector=None, config=None, **kwargs):
        seen.append(config)
        angles = canonical_angles(spec, family.kind).angles
        return OptimizationResult(value=0.0, angles=angles, start_index=0)

    monkeypatch.setattr(sweeps, "optimize_angles", fake_optimize_angles)
    code, _out, _err = run(capsys, [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
        "--V", "1", "--d", "1", "--angles", "optimize", "--nodes", "24"])
    assert code == 0
    assert [(c.nodes_per_axis, c.rel_tol) for c in seen] == [(24, OPTIMIZER_REL_TOL)]


def test_figure_preset_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "fig6.csv"
    code, _out, _err = run(capsys, ["figure", "fig6", "--out", str(out_path)])
    assert code == 0
    with out_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7 * 60
    variances = sorted({float(r["V"]) for r in rows})
    assert variances == [1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0]
    assert any(r["violated"] == "true" for r in rows)


def test_figure_rejects_unknown_name(capsys):
    code, _out, err = run(capsys, ["figure", "fig99"])
    assert code == 1
    assert "usage" in err


def test_validate_single_check(capsys):
    code, out, _err = run(capsys, [
        "validate", "--checks", "numerical-kernels"])
    assert code == 0
    assert out.startswith("PASS numerical-kernels")


@pytest.mark.parametrize("checks", [",", " , ", ""])
def test_validate_rejects_an_empty_check_selection(capsys, checks):
    # it would run no check and pass
    code, out, err = run(capsys, ["validate", "--checks", checks])
    assert code == 1
    assert out == ""
    assert f"--checks {checks!r} selects no check" in err


def test_validate_flip_sign_fails(capsys):
    code, out, _err = run(capsys, [
        "validate", "--checks", "lr-bounds", "--flip-sign", "0"])
    assert code == 1
    assert out.startswith("FAIL lr-bounds")


@pytest.mark.parametrize("checks", ["numerical-kernels", "sasa-exactness,numerical-kernels"])
def test_validate_rejects_flip_sign_without_lr_bounds(capsys, checks):
    # the flip reaches lr-bounds only, so any other selection would pass unmutated
    code, out, err = run(capsys, ["validate", "--checks", checks, "--flip-sign", "0"])
    assert code == 1
    assert out == ""
    assert f"--flip-sign applies to the lr-bounds check, which --checks {checks!r}" in err


@pytest.mark.parametrize("term", ["-1", "99"])
def test_validate_rejects_flip_sign_out_of_range(capsys, term):
    # -1 would flip each table's last term through negative indexing, 99
    # would index past every table
    code, out, err = run(capsys, [
        "validate", "--checks", "lr-bounds", "--flip-sign", term])
    assert code == 1
    assert out == ""
    assert f"--flip-sign TERM must lie in [0, 3], got {term}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--V", "nan"), ("--V", "inf"), ("--d", "nan"),
                                         ("--d", "inf")])
def test_scan_rejects_non_finite_grid_values(capsys, flag, value):
    grids = {"--V": "5", "--d": "1", flag: value}
    code, out, err = run(capsys, [
        "scan", "--family", "ghz3-cond", "--inequality", "svetlichny3",
        "--V", grids["--V"], "--d", grids["--d"]])
    assert code == 1
    assert out == ""
    assert f"{flag[2:]} value {value} out of range" in err
    assert "Traceback" not in err


def _fresh_interpreter(probe, *args):
    """stdout of ``probe`` run by a new interpreter that imports this etsbell."""
    src = str(Path(etsbell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.splitlines()


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # scipy would be most of the package's import time, so neither the
    # import nor a canonical-angle scan loads any of it: the engine's
    # kernels and the angle optimizer are numpy; a fresh interpreter shows
    # what every command pays
    probe = (
        "import sys, etsbell.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(loaded())\n"
        "etsbell.cli.main(['scan', '--family', 'ghz3-cond', '--inequality', 'svetlichny3',\n"
        "                  '--V', '5', '--d', '2', '--out', sys.argv[1]])\n"
        "print(loaded())\n")
    assert _fresh_interpreter(probe, str(tmp_path / "rows.csv")) == ["[]", "[]"]


def test_scan_leaves_validation_and_json_unloaded(tmp_path):
    # a CSV scan runs no check and writes no JSON, so a fresh interpreter
    # neither compiles the check suite nor imports the json package for it
    probe = (
        "import sys, etsbell.cli\n"
        "etsbell.cli.main(['scan', '--family', 'ghz3-cond', '--inequality', 'svetlichny3',\n"
        "                  '--V', '5', '--d', '2', '--out', sys.argv[1]])\n"
        "print(sorted({'etsbell.validation', 'json'} & set(sys.modules)))\n")
    assert _fresh_interpreter(probe, str(tmp_path / "rows.csv")) == ["[]"]


def test_optimizing_commands_leave_scipy_unloaded(tmp_path):
    # neither an --angles optimize scan nor the full validate suite, whose
    # kerr-violation-exists check runs the optimizer, loads any scipy module
    probe = (
        "import contextlib, io, sys, etsbell.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "etsbell.cli.main(['scan', '--family', 'w3', '--inequality', 'svetlichny3',\n"
        "                  '--V', '5', '--d', '1,3', '--angles', 'optimize',\n"
        "                  '--out', sys.argv[1]])\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()) as report:\n"
        "    code = etsbell.cli.main(['validate'])\n"
        "print(code, report.getvalue().count('PASS'), loaded())\n")
    lines = _fresh_interpreter(probe, str(tmp_path / "rows.csv"))
    assert lines == ["[]", "0 12 []"]
    assert len((tmp_path / "rows.csv").read_text().splitlines()) == 3


def test_no_package_module_imports_scipy():
    package = Path(etsbell.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert len(list(package.glob("*.py"))) > 5
    assert found == []


def test_public_names_hold_no_module():
    # importing a name from a submodule binds the submodule in the package
    # too; the public surface lists the names, not the modules
    assert not [name for name in etsbell.__all__
                if inspect.ismodule(getattr(etsbell, name))]
    assert "partition_bound" in etsbell.__all__
