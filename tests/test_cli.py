import json

import numpy as np
import pytest

import symplag as sg
from symplag.cli import (
    JobConfig,
    build_config,
    export_mesh,
    main,
    run,
    triple_from_params,
    write_obj,
)
from symplag.errors import ConfigError


def test_build_config_grid_and_tolerances():
    cfg = build_config(["verify", "--grid", "11,12,0,0.5,0.1,0.2",
                        "--tol-resid", "1e-4"])
    assert cfg.command == "verify"
    assert cfg.grid == sg.GridGeometry(11, 12, 0.0, 0.5, 0.1, 0.2)
    assert cfg.tolerances.tol_resid == 1e-4
    assert cfg.tolerances.tol_flat == 1e-6  # untouched default


def test_build_config_rejects_bad_grid():
    with pytest.raises(ConfigError):
        build_config(["verify", "--grid", "11,12,0,0"])
    with pytest.raises(ConfigError):
        build_config(["verify", "--grid", "3,3,0,0,0.1,0.1"])


def test_nan_tolerance_rejected():
    with pytest.raises(ValueError):
        sg.Tolerances().replace(tol_frame=float("nan"))
    with pytest.raises(ConfigError):
        build_config(["verify", "--tol-frame", "nan"])


def test_nan_grid_spacing_in_config_exits_2(tmp_path):
    grid = dict(sg.GridGeometry(11, 11, 0.0, 0.0, 0.1, 0.1).as_dict(), dx=float("nan"))
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "grid": grid}))  # writes NaN
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("name, value", [("nx", 61.7), ("ny", 7.5), ("x0", None)])
def test_bad_grid_record_in_config_exits_2(tmp_path, capsys, name, value):
    grid = dict(sg.GridGeometry(11, 11, 0.0, 0.0, 0.1, 0.1).as_dict(), **{name: value})
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "grid": grid}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert "bad grid record" in capsys.readouterr().err


def test_build_config_requires_command():
    with pytest.raises(ConfigError):
        build_config([])


def test_empty_grid_in_config_exits_2(tmp_path):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "grid": {}}))
    assert main(["--config", str(doc)]) == 2


def test_unreadable_config_exits_2(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2


def test_verify_family_passes(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["passed"] is True
    assert rep["config"]["command"] == "verify"
    assert "numpy" in rep["versions"]
    assert all(f["passed"] for f in rep["flags"].values())


def test_verify_coarse_grid_fails_residuals(tmp_path):
    # truncation on a coarse grid exceeds the default tolerances: exit 1
    assert main(["verify", "--grid", "11,11,0,0,0.1,0.1",
                 "--out", str(tmp_path)]) == 1


def test_integrate_and_invariants_commands(tmp_path):
    out1 = tmp_path / "fwd"
    assert main(["integrate", "--out", str(out1)]) == 0
    assert (out1 / "immersion.csv").exists()
    doc = tmp_path / "inv.json"
    doc.write_text(json.dumps({
        "command": "invariants",
        "params": {"immersion": str(out1 / "immersion.csv"), "margin": 8},
    }))
    out2 = tmp_path / "back"
    assert main(["--config", str(doc), "--out", str(out2)]) == 0
    t = sg.load_grid(out2 / "invariant_t.csv")
    h = sg.load_grid(out2 / "invariant_h.csv")
    assert np.max(np.abs(h.values - 1.0)) < 1e-5
    xx, yy = t.geometry.mesh()
    want = sg.separated_t(sg.ConstantFamilyParams(p=0.0), xx, yy)
    sign = np.sign(np.real(t.values[0, 0] / want[0, 0]))
    assert np.max(np.abs(t.values - sign * want)) < 1e-5


def test_report_times_each_stage(tmp_path):
    out1 = tmp_path / "ex"
    assert main(["example", "--out", str(out1)]) == 0
    rep = json.loads((out1 / "report.json").read_text())
    assert set(rep["timings"]) == {"build", "write"}
    doc = tmp_path / "inv.json"
    doc.write_text(json.dumps({"command": "invariants",
                               "params": {"immersion": str(out1 / "immersion.csv")}}))
    out2 = tmp_path / "back"
    assert main(["--config", str(doc), "--out", str(out2)]) == 0
    rep = json.loads((out2 / "report.json").read_text())
    timings = rep["timings"]
    assert set(timings) == {"load", "reduce", "inteq", "write"}
    assert all(s >= 0.0 for s in timings.values())
    assert sum(timings.values()) <= rep["wall_time_s"]


def test_family_command_congruence_matrix(tmp_path):
    doc = tmp_path / "fam.json"
    doc.write_text(json.dumps({
        "command": "family",
        "params": {"p": 1.0, "lambdas": [-1.0, 0.0, 1.0], "margin": 8},
    }))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    mat = np.array(rep["residuals"]["congruence_matrix"]["matrix"])
    off = mat[~np.eye(3, dtype=bool)]
    assert np.all(np.diag(mat) <= 1e-6)
    assert np.all(off > 1e-2)


def test_family_command_with_default_params(tmp_path):
    # no params: p = 0, lambdas -1, 0, 1, the default margin
    assert main(["family", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["passed"] is True
    mat = np.array(rep["residuals"]["congruence_matrix"]["matrix"])
    assert mat.shape == (3, 3) and np.all(mat[~np.eye(3, dtype=bool)] > 1e-2)


def test_congruence_command_on_identical_inputs(tmp_path):
    out1 = tmp_path / "ex"
    assert main(["example", "--out", str(out1)]) == 0
    doc = tmp_path / "cong.json"
    doc.write_text(json.dumps({
        "command": "congruence",
        "params": {"first": str(out1 / "immersion.csv"),
                   "second": str(out1 / "immersion.csv")},
    }))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 0


def test_malformed_immersion_csv_exits_2(tmp_path, capsys):
    geom = sg.GridGeometry(7, 7, 0.0, 0.0, 0.1, 0.1)
    xx, yy = geom.mesh()
    path = tmp_path / "imm.csv"
    sg.save_immersion(sg.ImmersionGrid(geom, np.stack([xx, yy, xx * yy, xx - yy], -1)), path)
    with open(path, newline="") as fh:
        lines = fh.readlines()
    lines[1 + 3 * 7 + 3] = lines[1 + 0 * 7 + 1]  # node (3, 3) becomes a copy of (0, 1)
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)
    doc = tmp_path / "inv.json"
    doc.write_text(json.dumps({"command": "invariants", "params": {"immersion": str(path)}}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "duplicate node (0, 1)" in err


@pytest.mark.parametrize("field, value, message", [("dx", "drop", "lacks dx"),
                                                   ("x0", None, "x0 must be a finite number"),
                                                   ("nx", 3, "at least 5x5")],
                         ids=["missing-dx", "null-x0", "nx-3"])
def test_bad_immersion_sidecar_exits_2(tmp_path, capsys, field, value, message):
    geom = sg.GridGeometry(7, 7, 0.0, 0.0, 0.1, 0.1)
    xx, yy = geom.mesh()
    path = tmp_path / "imm.csv"
    sg.save_immersion(sg.ImmersionGrid(geom, np.stack([xx, yy, xx * yy, xx - yy], -1)), path)
    sidecar = tmp_path / "imm.csv.json"
    record = json.loads(sidecar.read_text())
    if value == "drop":
        del record[field]
    else:
        record[field] = value
    sidecar.write_text(json.dumps(record))
    doc = tmp_path / "inv.json"
    doc.write_text(json.dumps({"command": "invariants", "params": {"immersion": str(path)}}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err


def test_report_lists_warnings(tmp_path):
    cfg = build_config(["integrate", "--out", str(tmp_path), "--tol-flat", "1e-30"])
    with pytest.warns(UserWarning, match="exceeds tol_flat"):  # passed on as well
        run(cfg)
    listed = json.loads((tmp_path / "report.json").read_text())["warnings"]
    assert any(w["category"] == "UserWarning" and "exceeds tol_flat" in w["message"]
               for w in listed)


def test_write_obj_smallest_mesh(tmp_path):
    path = tmp_path / "tiny.obj"
    write_obj(path, [0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)))
    text = path.read_text().splitlines()
    assert sum(1 for l in text if l.startswith("v ")) == 4
    assert sum(1 for l in text if l.startswith("f ")) == 2


def test_export_obj_vertex_and_face_counts(tmp_path):
    geom = sg.GridGeometry(101, 101, 0.0, 0.0, 0.002, 0.002)
    m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=0.0), geom)
    path = tmp_path / "surface.obj"
    export_mesh(m, "obj-xy-f1f2", path)
    text = path.read_text().splitlines()
    assert sum(1 for l in text if l.startswith("v ")) == 10201
    assert sum(1 for l in text if l.startswith("f ")) == 20000
    export_mesh(m, "obj-xy-f3f4", tmp_path / "surface2.obj")
    with pytest.raises(ConfigError):
        export_mesh(m, "obj-xy-f9", tmp_path / "bad.obj")


def test_export_csv_roundtrip(tmp_path):
    geom = sg.GridGeometry(11, 11, -0.1, 0.0, 0.01, 0.01)
    rng = np.random.default_rng(13)
    m = sg.ImmersionGrid(geom, rng.normal(size=(11, 11, 4)))
    path = tmp_path / "imm.csv"
    export_mesh(m, "csv", path)
    m2, _ = sg.load_immersion(path)
    assert np.array_equal(m2.f, m.f)


def test_triple_from_params_umbilic_polynomials():
    geom = sg.GridGeometry(11, 11, 0.0, 0.0, 0.01, 0.01)
    inv = triple_from_params(geom, {"kind": "umbilic", "t_poly": [2.0, 0.3],
                                    "p_poly": [0.0, 0.5], "lam": 0.25})
    zz = geom.zmesh()
    assert np.max(np.abs(inv.t - (2.0 + 0.3 * zz))) < 1e-14
    assert np.max(np.abs(inv.p - (0.5 * zz - 0.25))) < 1e-14
    assert np.all(inv.h == 0.0)
    with pytest.raises(ConfigError):
        triple_from_params(geom, {"kind": "nope"})


def test_run_unknown_command_rejected():
    with pytest.raises(ConfigError):
        JobConfig(command="frobnicate")


def test_report_echoes_effective_config(tmp_path):
    cfg = build_config(["verify", "--out", str(tmp_path),
                        "--grid", "21,21,0,0,0.005,0.005"])
    rep = run(cfg)
    assert rep.as_dict()["config"]["grid"]["nx"] == 21
    assert rep.as_dict()["config"]["tolerances"]["tol_resid"] == 1e-6


@pytest.mark.parametrize("command, params, key", [
    ("verify", {"p": "nan"}, "p"),
    ("verify", {"p": "abc"}, "p"),
    ("verify", {"kind": "umbilic", "lam": float("inf")}, "lam"),
    ("family", {"p": 1.0, "lambdas": ["x"]}, "lambdas"),
    ("example", {"kind": "constant", "c1": float("nan")}, "c1"),
    ("verify", {"p": True}, "p"),
])
def test_bad_numeric_param_exits_2(tmp_path, capsys, command, params, key):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": command, "params": params}))  # writes NaN/Infinity
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert f"params.{key}" in capsys.readouterr().err


def test_non_finite_invariant_csv_exits_2(tmp_path, capsys):
    geom = sg.GridGeometry(11, 11, 0.0, 0.0, 0.01, 0.01)
    inv = sg.family_triple(sg.ConstantFamilyParams(p=1.0), geom)
    fields = {"t": inv.t, "h": inv.h, "p": inv.p}
    for name, values in fields.items():
        sg.save_grid(sg.ComplexGrid(geom, values), tmp_path / f"{name}.csv")
    # save_grid refuses a NaN, so put one into h's file by hand
    path = tmp_path / "h.csv"
    with open(path, newline="") as fh:
        lines = fh.readlines()
    lines[1 + 5 * 11 + 5] = lines[1 + 5 * 11 + 5].rsplit(",", 2)[0] + ",nan,0\r\n"
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "grid": geom.as_dict(),
                               "params": {k: str(tmp_path / f"{k}.csv") for k in fields}}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "row 61 (node (5, 5)) holds a non-finite value" in err


@pytest.mark.parametrize("margin", [-1, 29, 2.5, True])
@pytest.mark.parametrize("command", ["invariants", "congruence", "family"])
def test_bad_margin_exits_2(tmp_path, capsys, command, margin):
    # 61^2 input: a margin of 29 leaves a 3x3 grid, too small for the stencils
    path = tmp_path / "imm.csv"
    if command != "family":
        sg.save_immersion(sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0),
                                                   sg.GridGeometry(61, 61, 0.0, 0.0,
                                                                   0.005, 0.005)), path)
    params = {"invariants": {"immersion": str(path)},
              "congruence": {"first": str(path), "second": str(path)},
              "family": {"p": 1.0, "lambdas": [0.0, 1.0]}}[command]
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": command, "params": dict(params, margin=margin)}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert "margin" in capsys.readouterr().err


def test_infinite_tolerance_rejected(tmp_path):
    with pytest.raises(ValueError, match="tol_gauge"):
        sg.Tolerances(tol_gauge=float("inf"))
    assert main(["verify", "--tol-frame", "inf", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("coeffs", ["[null]", "[[1]]", '[[1, "a"]]', '[{"a": 1}]', "[1e400]"])
@pytest.mark.parametrize("command, key", [("verify", "t_poly"), ("verify", "p_poly"),
                                          ("example", "p_poly")])
def test_bad_poly_coefficients_exit_2(tmp_path, capsys, command, key, coeffs):
    # JSON text as written, so that 1e400 arrives as inf
    doc = tmp_path / "cfg.json"
    doc.write_text(f'{{"command": "{command}", '
                   f'"params": {{"kind": "umbilic", "{key}": {coeffs}}}}}')
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert f"params.{key}" in capsys.readouterr().err


def test_rank_deficient_immersion_exits_1(tmp_path, capsys):
    geom = sg.GridGeometry(31, 31, 0.0, 0.0, 0.01, 0.01)
    path = tmp_path / "imm.csv"
    sg.save_immersion(sg.ImmersionGrid(geom, np.ones((31, 31, 4))), path)
    doc = tmp_path / "inv.json"
    doc.write_text(json.dumps({"command": "invariants", "params": {"immersion": str(path)}}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 1
    assert "NotElliptic" in capsys.readouterr().err


def test_integrate_frame_defect_exits_1(tmp_path, capsys):
    # the default family frame has a symplectic defect of a few 1e-13
    assert main(["integrate", "--tol-frame", "1e-14", "--out", str(tmp_path)]) == 1
    assert "failure: FrameDefect" in capsys.readouterr().err


def test_invariant_csvs_on_different_grids_exit_2(tmp_path, capsys):
    fine = sg.GridGeometry(11, 11, 0.0, 0.0, 0.01, 0.01)
    coarse = sg.GridGeometry(11, 11, 0.0, 0.0, 0.02, 0.02)
    t = sg.family_triple(sg.ConstantFamilyParams(p=1.0), fine).t
    sg.save_grid(sg.ComplexGrid(fine, t), tmp_path / "t.csv")
    for name in ("h", "p"):
        sg.save_grid(sg.ComplexGrid(coarse, np.ones((11, 11))), tmp_path / f"{name}.csv")
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "params": {
        k: str(tmp_path / f"{k}.csv") for k in ("t", "h", "p")}}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert "share one grid geometry" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_umbilic_example_overflowing_datum_exits_2(tmp_path, capsys):
    # finite coefficients whose polynomial overflows to inf on the grid
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "example", "params": {
        "kind": "umbilic", "p_poly": [1.7e308, 1.7e308]}}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert "params.p_poly is not finite on the grid" in capsys.readouterr().err
