import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import symplag as sg
from symplag import cli, grids
from symplag.cli import (
    DEFAULT_GRID,
    JobConfig,
    Report,
    build_config,
    export_mesh,
    main,
    run,
    triple_from_params,
    write_obj,
)
from symplag.errors import ConfigError, IntegrationBlowup
from symplag.generators import _closed_form_at
from test_grids import _spied_forks, assert_no_child_process, forks

# the gate values of invariants_from_immersion, each an `invariants` residual
GATE_NAMES = {"lagrangian_defect", "conformal"}


def test_build_config_grid_and_tolerances():
    cfg = build_config(["verify", "--grid", "11,12,0,0.5,0.1,0.2",
                        "--tol-resid", "1e-4"])
    assert cfg.command == "verify"
    assert cfg.grid == sg.GridGeometry(11, 12, 0.0, 0.5, 0.1, 0.2)
    assert cfg.tolerances.tol_resid == 1e-4
    assert cfg.tolerances.tol_gauge == 1e-6  # untouched default


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


@pytest.mark.parametrize("value", [True, "1e-6",
                                   pytest.param(10**400, id="int-past-float-range")])
def test_non_number_tolerance_in_config_exits_2(tmp_path, capsys, value):
    # a JSON boolean is no tolerance: true would gate flatness at 1.0
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "tolerances": {"tol_resid": value}}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert "tol_resid" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_tol_flat_in_config_exits_2(tmp_path, capsys):
    # tol_resid gates flatness, the integrability equations' other form
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "tolerances": {"tol_flat": 1e-6}}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert "tol_flat" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_nan_grid_spacing_in_config_exits_2(tmp_path):
    grid = dict(sg.GridGeometry(11, 11, 0.0, 0.0, 0.1, 0.1).as_dict(), dx=float("nan"))
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "grid": grid}))  # writes NaN
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("name, value", [("nx", 61.7), ("ny", 7.5), ("x0", None),
                                         ("extra", 1), ("dx", True), ("nx", True),
                                         pytest.param("dx", 10**400, id="dx-int-past-float-range"),
                                         ("dy", "0.1")])
def test_bad_grid_record_in_config_exits_2(tmp_path, capsys, name, value):
    grid = dict(sg.GridGeometry(11, 11, 0.0, 0.0, 0.1, 0.1).as_dict(), **{name: value})
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "grid": grid}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad grid record" in err and name in err  # the message names the field


@pytest.mark.parametrize("grid, bad", [("a,61,0,0,0.005,0.005", "'a'"),
                                       ("61,61,0,0,0.005,dx", "'dx'")])
def test_non_numeric_grid_option_exits_2(tmp_path, capsys, grid, bad):
    assert main(["verify", "--grid", grid, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad grid record" in err and bad in err


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
    # the integrability equations, as (t, h, p) and as Theta, on one tolerance
    assert {k: f["tolerance"] for k, f in rep["flags"].items()} == {
        "inteq": "tol_resid", "flatness": "tol_resid"}
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
    # one residual per gate value, and no aggregate of them
    res = json.loads((out2 / "report.json").read_text())["residuals"]
    assert set(res) == GATE_NAMES


@pytest.mark.parametrize("grid, margin", [("121,121,0,0,0.0025,0.0025", 8),
                                          ("61,61,0,0,0.005,0.005", 2)],
                         ids=["121-margin8", "61-margin2"])
def test_invariants_reports_its_gate_values(tmp_path, grid, margin):
    # the example's closed form passes both gates, at a margin of 2 too, where
    # the fits' windows are shifted furthest: nothing is flagged, exit 0
    ex = tmp_path / "ex"
    assert main(["example", "--grid", grid, "--out", str(ex)]) == 0
    doc = tmp_path / "inv.json"
    doc.write_text(json.dumps({"command": "invariants",
                               "params": {"immersion": str(ex / "immersion.csv"),
                                          "margin": margin}}))
    out = tmp_path / "inv"
    assert main(["--config", str(doc), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True and rep["flags"] == {}
    assert set(rep["residuals"]) == GATE_NAMES
    assert rep["residuals"]["conformal"]["max"] <= 1e-9
    assert rep["residuals"]["lagrangian_defect"]["max"] <= 1e-11
    p = sg.load_grid(out / "invariant_p.csv").values
    assert np.max(np.abs(p)) < 1e-6  # the example has p = 0


def test_invariants_refuses_a_sheared_grid_coordinate(tmp_path, capsys):
    # the closed form at (x + 0.01 y, y): Lagrangian and elliptic, but the grid
    # coordinate is not conformal, so no adapted frame is read in it
    geom = sg.GridGeometry(61, 61, 0.0, 0.0, 0.005, 0.005)
    xx, yy = geom.mesh()
    f = _closed_form_at(sg.ConstantFamilyParams(p=0.5), xx + 0.01 * yy, yy).real
    sg.save_immersion(sg.ImmersionGrid(geom, f), tmp_path / "sheared.csv")
    doc = tmp_path / "inv.json"
    doc.write_text(json.dumps({"command": "invariants",
                               "params": {"immersion": str(tmp_path / "sheared.csv")}}))
    assert main(["--config", str(doc), "--out", str(tmp_path / "inv")]) == 1
    assert re.search(r"failure: NotAdapted: gauge residual conformal = [45]\.\d{3}e-03 exceeds",
                     capsys.readouterr().err)


def test_integrate_command_peak_memory_is_within_its_bound(tmp_path):
    # tracemalloc peak of a warm 121^2 `integrate`, in frames of n * n * 25 * 8
    # bytes: 5.24 while the command held Theta through the CSV write, the
    # sweeps held every midpoint sample and both frame checks were whole-grid
    # expressions; 3.62 with Theta freed once integrated and integrate_frame
    # at 1.38.  The bound is 1.1x the last
    n = 121
    cfg = JobConfig("integrate", sg.GridGeometry(n, n, 0.0, 0.0, 0.3 / (n - 1), 0.3 / (n - 1)),
                    {"kind": "constant", "p": 1.0}, output_dir=tmp_path)
    run(cfg)
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1] / (n * n * 25 * 8)
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 3.62, peak


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
    assert set(timings) == {"invariants", "load", "write"}
    assert all(s >= 0.0 for s in timings.values())
    assert sum(timings.values()) <= rep["wall_time_s"]
    # family: the members' integrations, then their congruence matrix
    out3 = tmp_path / "family"
    assert main(["family", "--out", str(out3)]) == 0
    rep = json.loads((out3 / "report.json").read_text())
    assert set(rep["timings"]) == {"members", "congruence"}
    assert sum(rep["timings"].values()) <= rep["wall_time_s"]
    # export: the CSV read, then the OBJ mesh written
    out4 = tmp_path / "export"
    run(JobConfig("export", params={"immersion": str(out1 / "immersion.csv")}, output_dir=out4))
    rep = json.loads((out4 / "report.json").read_text())
    assert set(rep["timings"]) == {"load", "write"}
    assert sum(rep["timings"].values()) <= rep["wall_time_s"]


def test_reports_record_the_grids_of_the_csvs(tmp_path):
    # config.grid is the configured grid (61^2 by default); `grids` holds the
    # geometry each input CSV's sidecar gives, and that of invariants' outputs
    ex = tmp_path / "ex"
    assert main(["example", "--grid", "241,241,0,0,0.00125,0.00125", "--out", str(ex)]) == 0
    csv = str(ex / "immersion.csv")
    read = sg.GridGeometry(241, 241, 0.0, 0.0, 0.00125, 0.00125).as_dict()
    cropped = sg.GridGeometry(225, 225, 0.01, 0.01, 0.00125, 0.00125).as_dict()
    for command, params, grids in (
            ("invariants", {"immersion": csv}, {"immersion": read, "invariants": cropped}),
            ("congruence", {"first": csv, "second": csv}, {"first": read, "second": read}),
            ("export", {"immersion": csv}, {"immersion": read})):
        run(JobConfig(command, params=params, output_dir=tmp_path / command))
        rep = json.loads((tmp_path / command / "report.json").read_text())
        assert rep["config"]["grid"] == DEFAULT_GRID.as_dict()
        assert rep["grids"] == grids
    t = sg.load_grid(tmp_path / "invariants" / "invariant_t.csv")
    assert t.geometry.as_dict() == cropped
    assert json.loads((ex / "report.json").read_text())["grids"] == {"immersion": read}
    # integrate from the invariant CSVs of a 121^2 run records their 105^2
    # grid, which is also that of the immersion it writes
    ex, inv, fwd = tmp_path / "ex121", tmp_path / "inv121", tmp_path / "integrate"
    assert main(["example", "--grid", "121,121,0,0,0.0025,0.0025", "--out", str(ex)]) == 0
    run(JobConfig("invariants", params={"immersion": str(ex / "immersion.csv")},
                  output_dir=inv))
    files = {k: str(inv / f"invariant_{k}.csv") for k in "thp"}
    with pytest.warns(UserWarning, match="flatness residual"):  # recovered, not exact
        run(JobConfig("integrate", params=files, output_dir=fwd))
    rep = json.loads((fwd / "report.json").read_text())
    assert rep["config"]["grid"] == DEFAULT_GRID.as_dict()
    assert {k: (g["nx"], g["ny"]) for k, g in rep["grids"].items()} == {
        "invariants": (105, 105), "immersion": (105, 105)}
    m, _ = sg.load_immersion(fwd / "immersion.csv")
    assert m.geometry.as_dict() == rep["grids"]["immersion"]


def test_verify_and_family_record_the_grid_of_a_triple_from_files(tmp_path):
    # exact t, h and p files on a 41^2 grid, read under an 11^2 config.grid:
    # the reports record the files' grid, and family judges its margin there
    geom = sg.GridGeometry(41, 41, 0.01, 0.02, 0.005, 0.005)
    inv = sg.family_triple(sg.ConstantFamilyParams(p=0.5), geom)
    files = {}
    for k in "thp":
        files[k] = str(tmp_path / f"{k}.csv")
        sg.save_grid(sg.ComplexGrid(geom, getattr(inv, k)), files[k])
    small = sg.GridGeometry(11, 11, 0.0, 0.0, 0.005, 0.005)
    for command, params in (("verify", files), ("family", dict(files, lambdas=[0.0, 1.0]))):
        rep = run(JobConfig(command, small, params, output_dir=tmp_path / command))
        assert rep.passed
        assert rep.grids == {"invariants": geom.as_dict()}
    assert run(JobConfig("verify", small, output_dir=tmp_path / "kind")).grids == {}
    with pytest.raises(ValueError, match="grid too small for margin 19"):  # 3 nodes left
        run(JobConfig("family", small, dict(files, lambdas=[0.0, 1.0], margin=19),
                      output_dir=tmp_path / "margin"))


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


def test_family_flags_each_member(tmp_path):
    # two lambdas equal to six digits still get one flatness flag each
    cfg = JobConfig("family", sg.GridGeometry(21, 21, 0.0, 0.0, 0.005, 0.005),
                    {"p": 1.0, "lambdas": [0.1, 0.1000001]}, output_dir=tmp_path)
    flags = run(cfg).flags
    assert {k for k in flags if k.startswith("flatness_lam_")} == {
        "flatness_lam_0.1", "flatness_lam_0.1000001"}
    assert not flags["pairwise_noncongruent"]["passed"]  # members 1e-7 apart


def test_family_flags_each_members_own_flatness(tmp_path, monkeypatch):
    # each member's integrability is judged once, by the flatness its
    # integration measured; the inteq form is not computed again
    def refused(inv):
        raise AssertionError("family computed inteq_residual")

    monkeypatch.setattr(cli, "inteq_residual", refused)
    geom = sg.GridGeometry(21, 21, 0.0, 0.0, 0.005, 0.005)
    params = {"p": 0.5, "c1": 1.2, "lambdas": [-1.0, 0.0, 1.0]}
    flags = run(JobConfig("family", geom, params, output_dir=tmp_path)).flags
    base = triple_from_params(geom, {"p": 0.5, "c1": 1.2})
    for lam in params["lambdas"]:
        theta = sg.theta_from_invariants(sg.shift_family(base, lam))
        F = sg.integrate_frame(theta, compute_path_defect=False)
        flag = flags[f"flatness_lam_{lam!r}"]
        assert flag["tolerance"] == "tol_resid" and flag["passed"]
        assert flag["value"] == F.flatness_report


# -- family on two processes: a forked child takes the second half of the members

CENTRED = sg.GridGeometry(61, 61, -0.15, -0.15, 0.005, 0.005)
UMBILIC = {"kind": "umbilic", "t_poly": [2.0, 0.3], "p_poly": [0.0, 0.5]}


def _family_reports(tmp_path, monkeypatch, geom, params) -> list[str]:
    """The residuals, flags and warnings of family's report as JSON text, with
    os.fork and then without it; no child is left."""
    texts = []
    for out in ("fork", "one"):
        if out == "one":
            monkeypatch.delattr(os, "fork")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # run passes the report's warnings on
            run(JobConfig("family", geom, params, output_dir=tmp_path / out))
        rep = json.loads((tmp_path / out / "report.json").read_text())
        texts.append(json.dumps({k: rep[k] for k in ("residuals", "flags", "warnings")}))
    assert_no_child_process()
    return texts


@forks
@pytest.mark.parametrize("params", [
    {"p": 0.5, "lambdas": [-1.0, 1.0]},
    {},  # lambdas -1, 0, 1: one member in this process, two in the child
    {"p": 0.3, "c1": 1.2, "c2": 0.8, "lambdas": [-1.0, -0.5, 0.0, 0.5, 1.0]},
], ids=["2-members", "3-members-default", "5-members"])
def test_family_report_is_that_of_one_process(tmp_path, monkeypatch, params):
    fork, one = _family_reports(tmp_path, monkeypatch, DEFAULT_GRID, params)
    assert fork == one
    rep = json.loads(fork)
    assert rep["flags"]["pairwise_noncongruent"]["passed"] and rep["warnings"] == []
    # the matrix is congruence_matrix's of the members, byte for byte
    base = triple_from_params(DEFAULT_GRID, {k: v for k, v in params.items() if k != "lambdas"})
    members = [sg.immersion_from_frame(sg.integrate_frame(sg.theta_from_invariants(
        sg.shift_family(base, lam)), compute_path_defect=False))
        for lam in rep["residuals"]["congruence_matrix"]["lambdas"]]
    matrix = np.array(rep["residuals"]["congruence_matrix"]["matrix"])
    assert matrix.tobytes() == sg.congruence_matrix(members).tobytes()


def _members_integrated_here(monkeypatch, in_the_child=None) -> list:
    """Patch cli._member to record the lambdas this process integrates; in a
    forked child it calls `in_the_child` first, where one is given."""
    member, parent, calls = cli._member, os.getpid(), []

    def recorded(base, lam, tols):
        if os.getpid() != parent and in_the_child is not None:
            in_the_child()
        if os.getpid() == parent:
            calls.append(lam)
        return member(base, lam, tols)

    monkeypatch.setattr(cli, "_member", recorded)
    return calls


@forks
def test_family_forks_once_and_joins_two_halves(tmp_path, monkeypatch):
    forked, values = _spied_forks(monkeypatch)
    monkeypatch.setattr(cli, "_in_two_processes", grids._in_two_processes)  # the spy
    calls = _members_integrated_here(monkeypatch)
    run(JobConfig("family", DEFAULT_GRID, {}, output_dir=tmp_path))
    assert_no_child_process()
    assert len(forked) == 1 and len(values) == 1
    # lambdas -1, 0, 1: the flatness report and immersion of one member in
    # this process, of two in the child, which this process does not redo
    assert calls == [-1.0]
    assert [len(half) for half in values[0]] == [1, 2]
    assert all(len(member) == 2 for half in values[0] for member in half)


@forks
def test_family_umbilic_warnings_are_those_of_one_process(tmp_path, monkeypatch):
    # the members are umbilic everywhere, and congruence raises no umbilic warning
    fork, one = _family_reports(tmp_path, monkeypatch, CENTRED, UMBILIC)
    assert fork == one
    assert json.loads(fork)["warnings"] == []


@forks
def test_family_mixed_warnings_keep_the_order_of_one_process(tmp_path, monkeypatch):
    # the umbilic triple with p + 2e-5 xy, from files: Theta is curved, and one
    # process warns of every member's flatness in member order
    inv = triple_from_params(CENTRED, UMBILIC)
    xx, yy = CENTRED.mesh()
    files = {}
    for k, values in (("t", inv.t), ("h", inv.h), ("p", inv.p + 2e-5 * xx * yy)):
        files[k] = str(tmp_path / f"{k}.csv")
        sg.save_grid(sg.ComplexGrid(CENTRED, values), files[k])
    fork, one = _family_reports(tmp_path, monkeypatch, DEFAULT_GRID, files)
    assert fork == one
    assert [w["category"] for w in json.loads(fork)["warnings"]] == ["UserWarning"] * 3


@forks
def test_family_child_that_sends_nothing_gives_the_report_of_one_process(tmp_path,
                                                                         monkeypatch):
    # the child exits 0 before it writes: the pipe is empty, and this process
    # integrates the child's members, and only those, again
    calls = _members_integrated_here(monkeypatch, lambda: os._exit(0))
    fork, one = _family_reports(tmp_path, monkeypatch, CENTRED, UMBILIC)
    assert fork == one
    assert calls == [-1.0, 0.0, 1.0] * 2  # with os.fork, then without it
    assert json.loads(fork)["warnings"] == []


def _family_refusal(tmp_path, monkeypatch, capsys, argv) -> str:
    """family's stderr on exit 1, the same with os.fork and without it; no
    report is written and no child is left."""
    errs = []
    for out in ("fork", "one"):
        if out == "one":
            monkeypatch.delattr(os, "fork")
        capsys.readouterr()
        assert main(["family", *argv, "--out", str(tmp_path / out)]) == 1
        assert not (tmp_path / out / "report.json").exists()
        errs.append(capsys.readouterr().err)
    assert_no_child_process()
    assert errs[0] == errs[1]
    return errs[0]


def _failing_member(monkeypatch, lam_at_fault: float) -> None:
    """Make family's integration of the member lam_at_fault raise IntegrationBlowup."""
    member = cli._member

    def failing(base, lam, tols):
        if lam == lam_at_fault:
            raise IntegrationBlowup(f"injected at lam {lam}")
        return member(base, lam, tols)

    monkeypatch.setattr(cli, "_member", failing)


@forks
def test_family_failure_in_this_process_integrates_each_member_once(tmp_path, monkeypatch,
                                                                    capsys):
    # lambdas -1, -0.5, 0, 0.5, 1: this process integrates -1 and -0.5 and
    # fails on -0.5; it raises that error, as one process does, with no redo
    member, parent, calls = cli._member, os.getpid(), []

    def failing(base, lam, tols):
        if os.getpid() == parent:
            calls.append(lam)
        if lam == -0.5:
            raise IntegrationBlowup(f"injected at lam {lam}")
        return member(base, lam, tols)

    monkeypatch.setattr(cli, "_member", failing)
    config = tmp_path / "family.json"
    config.write_text(json.dumps({"params": {"lambdas": [-1.0, -0.5, 0.0, 0.5, 1.0]}}))
    err = _family_refusal(tmp_path, monkeypatch, capsys, ["--config", str(config)])
    assert err == "failure: IntegrationBlowup: injected at lam -0.5\n"
    assert calls == [-1.0, -0.5] * 2  # with os.fork, then without it


@forks
def test_family_frame_defect_is_refused_as_in_one_process(tmp_path, monkeypatch, capsys):
    # every member's frame has a symplectic defect of a few 1e-13
    err = _family_refusal(tmp_path, monkeypatch, capsys, ["--tol-frame", "1e-14"])
    assert err.startswith("failure: FrameDefect: symplectic defect ")


@forks
def test_family_failure_in_the_child_is_refused_as_in_one_process(tmp_path, monkeypatch,
                                                                  capsys):
    # lambdas -1, 0, 1: the child integrates 0 and 1, and fails on 1
    _failing_member(monkeypatch, 1.0)
    err = _family_refusal(tmp_path, monkeypatch, capsys, [])
    assert err == "failure: IntegrationBlowup: injected at lam 1.0\n"


def test_family_in_a_subprocess_with_the_blas_thread_variables_unset(tmp_path):
    # the child calls BLAS after a fork from a process with a BLAS pool of
    # its own size: a hang would time out
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(sg.__file__).resolve().parents[1]),
                                         env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-m", "symplag.cli", "family", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "pass  pairwise_noncongruent" in done.stdout


def test_constant_example_applies_lam(tmp_path):
    # example moves p along the family by -lam, as integrate does
    geom = sg.GridGeometry(11, 11, 0.0, 0.0, 0.01, 0.01)
    for lam, p in ((0.0, 1.0), (0.5, 0.5)):
        out = tmp_path / f"lam{lam}"
        run(JobConfig("example", geom, {"p": 1.0, "lam": lam}, output_dir=out))
        m, _ = sg.load_immersion(out / "immersion.csv")
        exact = sg.closed_form_immersion(sg.ConstantFamilyParams(p=p), geom)
        assert np.array_equal(m.f, exact.f)


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
    assert str(path) in err
    assert "row 25 at (x, y) = (0, 0.10000000000000001) is not node (3, 3)" in err


@pytest.mark.parametrize("field, value, message", [("dx", "drop", "lacks dx"),
                                                   ("x0", None, "x0 must be a finite number"),
                                                   ("nx", 3, "at least 5x5"),
                                                   ("extra", 1, "unknown keys ['extra']"),
                                                   ("dx", True, "dx must be a finite number")],
                         ids=["missing-dx", "null-x0", "nx-3", "extra-key", "dx-true"])
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
    cfg = build_config(["integrate", "--out", str(tmp_path), "--tol-resid", "1e-30"])
    with pytest.warns(UserWarning, match="exceeds tol_resid"):  # passed on as well
        run(cfg)
    listed = json.loads((tmp_path / "report.json").read_text())["warnings"]
    assert any(w["category"] == "UserWarning" and "exceeds tol_resid" in w["message"]
               for w in listed)


def test_write_obj_smallest_mesh(tmp_path):
    path = tmp_path / "tiny.obj"
    write_obj(path, [0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), [[0.0, 1.0], [2.0, 4.0]])
    text = path.read_text().splitlines()
    assert sum(1 for l in text if l.startswith("v ")) == 4
    vts = ["vt 0 0", "vt 0.25 0", "vt 0.5 0", "vt 1 0"]  # aux over its span, C order
    assert [l for l in text if l.startswith("vt ")] == vts
    assert [l for l in text if l.startswith("f ")] == ["f 1/1 3/3 4/4", "f 1/1 4/4 2/2"]


def test_export_command_end_to_end(tmp_path, capsys):
    fwd = tmp_path / "fwd"
    assert main(["integrate", "--out", str(fwd)]) == 0
    doc = tmp_path / "export.json"
    doc.write_text(json.dumps({"command": "export", "params": {
        "immersion": str(fwd / "immersion.csv"), "format": "obj-xy-f3f4"}}))
    out = tmp_path / "mesh"
    assert main(["--config", str(doc), "--out", str(out)]) == 0
    text = (out / "immersion-obj-xy-f3f4.obj").read_text().splitlines()
    assert sum(1 for l in text if l.startswith("v ")) == 61 * 61
    doc.write_text(json.dumps({"command": "export", "params": {"format": "obj-xy-f3f4"}}))
    assert main(["--config", str(doc), "--out", str(out)]) == 2
    assert "params.immersion" in capsys.readouterr().err


def test_export_refuses_the_format_before_it_reads_the_csv(tmp_path, monkeypatch, capsys):
    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_immersion", unread)
    doc = tmp_path / "export.json"
    for fmt, text in (("stl", "unknown export format 'stl'"),
                      (["obj-xy-f1f2"], "unknown export format ['obj-xy-f1f2']")):
        doc.write_text(json.dumps({"command": "export", "params": {
            "immersion": str(tmp_path / "immersion.csv"), "format": fmt}}))
        assert main(["--config", str(doc), "--out", str(tmp_path / "out")]) == 2
        assert text in capsys.readouterr().err


def test_export_obj_vertex_and_face_counts(tmp_path):
    geom = sg.GridGeometry(101, 101, 0.0, 0.0, 0.002, 0.002)
    m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=0.0), geom)
    path = tmp_path / "surface.obj"
    export_mesh(m, "obj-xy-f1f2", path)
    text = path.read_text().splitlines()
    assert sum(1 for l in text if l.startswith("v ")) == 10201
    assert sum(1 for l in text if l.startswith("f ")) == 20000
    export_mesh(m, "obj-xy-f3f4", tmp_path / "surface2.obj")
    for fmt in ("obj-xy-f9", "csv"):  # save_immersion writes CSV
        with pytest.raises(ConfigError, match="unknown export format"):
            export_mesh(m, fmt, tmp_path / "bad.obj")


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
    # a family of fewer than two distinct members certifies nothing
    ("family", {"lambdas": []}, "lambdas"),
    ("family", {"lambdas": [0.5]}, "lambdas"),
    ("family", {"lambdas": [0.5, -1.0, 0.5]}, "lambdas"),
    # example reads no export key: the export command writes OBJ meshes
    ("example", {"export": "obj-xy-f1f2"}, "export"),
    # a key the chosen source does not read, with the source named by kind
    ("verify", {"kind": "umbilic", "c1": 5}, "c1"),
    ("example", {"kind": "umbilic", "c1": 5}, "c1"),
    # t or h selects the files source, which needs all three and no kind
    ("integrate", {"t": "nowhere.csv", "p": 1.0}, "h"),
    ("verify", {"t": "t.csv", "h": "h.csv"}, "p"),
    ("verify", {"kind": "constant", "t": "t.csv", "h": "h.csv", "p": "p.csv"}, "kind"),
    ("verify", {"kind": ["constant"]}, "kind"),
    # lambdas alone move a family along p
    ("family", {"p": 1.0, "lam": 0.5, "lambdas": [0, 1]}, "lam"),
    # a path is a string
    ("verify", {"t": 1, "h": 2, "p": 3}, "t"),
    ("invariants", {"immersion": 5}, "immersion"),
    ("congruence", {"first": ["a"], "second": "b.csv"}, "first"),
    # a number is a JSON number: neither a numeric string nor a boolean
    ("verify", {"p": "0.5"}, "p"),
    ("example", {"kind": "constant", "lam": True}, "lam"),
    ("example", {"kind": "umbilic", "p_poly": [0.0, 1.0], "lam": "0.3"}, "lam"),
    ("family", {"lambdas": ["0.5", 1.0]}, "lambdas"),
])
def test_bad_numeric_param_exits_2(tmp_path, capsys, command, params, key):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": command, "params": params}))  # writes NaN/Infinity
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert f"params.{key}" in capsys.readouterr().err


def test_non_string_output_dir_exits_2(tmp_path, capsys):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "output_dir": 5}))
    assert main(["--config", str(doc)]) == 2
    assert "output_dir must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("command, params, keys", [
    ("verify", {"lamda": 0.5, "c3": 2}, ["c3", "lamda"]),
    ("integrate", {"p": 1.0, "a1": 0.5}, ["a1"]),  # a deleted family constant
    ("example", {"export": ["obj-xy-f1f2"]}, ["export"]),
    ("example", {"kind": "umbilic", "t_poly": [1.0]}, ["t_poly"]),
    ("example", {"p": 1.0, "m1": 0.1}, ["m1"]),  # the closed form has m1 = m2 = 0
    ("invariants", {"immersion": "imm.csv", "lambdas": [0, 1]}, ["lambdas"]),
    ("export", {"immersion": "imm.csv", "margin": 8}, ["margin"]),
])
def test_param_the_command_does_not_read_exits_2(tmp_path, capsys, command, params, keys):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": command, "params": params}))
    assert main(["--config", str(doc), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{command} does not read" in err
    assert all(f"params.{k}" in err for k in keys)
    assert not (tmp_path / "out").exists()  # refused before any work


def test_unknown_config_key_exits_2(tmp_path, capsys):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "verify", "param": {"p": 1.0}}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert "unknown keys ['param']" in capsys.readouterr().err
    for bad in (["verify"], {"command": "verify", "params": [1.0]}):
        doc.write_text(json.dumps(bad))
        assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err


def test_lam_shifts_csv_triple_as_it_shifts_constant_kind(tmp_path):
    geom = sg.GridGeometry(11, 11, 0.0, 0.0, 0.01, 0.01)
    inv = sg.family_triple(sg.ConstantFamilyParams(p=1.0), geom)
    paths = {}
    for name in ("t", "h", "p"):
        paths[name] = str(tmp_path / f"{name}.csv")
        sg.save_grid(sg.ComplexGrid(geom, getattr(inv, name)), paths[name])
    from_csv = triple_from_params(geom, {**paths, "lam": 0.5})
    constant = triple_from_params(geom, {"kind": "constant", "p": 1.0, "lam": 0.5})
    assert np.all(from_csv.p == 0.5)
    for name in ("t", "h", "p"):
        assert np.array_equal(getattr(from_csv, name), getattr(constant, name))


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


@pytest.mark.parametrize("margin", [-1, 29, 2.5, True, "8"])
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


def test_integrate_non_flat_theta_exits_1_through_flatness(tmp_path):
    # p + 0.1 xy breaks the compatibility equations: Theta is curved, which the
    # flatness flag catches; the error estimate sees RK4 truncation only
    geom = sg.GridGeometry(121, 121, 0.0, 0.0, 0.0025, 0.0025)
    inv = sg.family_triple(sg.ConstantFamilyParams(p=1.0), geom)
    xx, yy = geom.mesh()
    fields = {"t": inv.t, "h": inv.h, "p": inv.p + 0.1 * xx * yy}
    for name, values in fields.items():
        sg.save_grid(sg.ComplexGrid(geom, values), tmp_path / f"{name}.csv")
    doc = tmp_path / "int.json"
    doc.write_text(json.dumps({"command": "integrate", "params": {
        name: str(tmp_path / f"{name}.csv") for name in fields}}))
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="flatness residual 3.0"):
        assert main(["--config", str(doc), "--out", str(out)]) == 1
    flags = json.loads((out / "report.json").read_text())["flags"]
    assert not flags["flatness"]["passed"]
    assert flags["error_estimate"]["passed"]


def test_integrate_reports_symplectic_defect_as_a_residual(tmp_path):
    # integrate_frame refuses a defect above tol_frame, so it is a value, not a check
    assert main(["integrate", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert "symplectic_defect" not in rep["flags"]
    assert 0.0 < rep["residuals"]["symplectic_defect"]["max"] < 1e-8


@pytest.mark.parametrize("command", ["integrate", "family"])
def test_every_flag_tol_is_the_resolved_tolerance_it_names(tmp_path, command):
    assert main([command, "--tol-congruent", "1e-3", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    tols = rep["config"]["tolerances"]
    assert tols["tol_congruent"] == 1e-3
    assert "tol_congruent" in {f["tolerance"] for f in rep["flags"].values()}
    assert all(f["tol"] == tols[f["tolerance"]] for f in rep["flags"].values())
    # a flag reads its tolerance from the report's config, not from its caller
    cfg = JobConfig(command, tolerances=sg.Tolerances(tol_congruent=1e-3))
    direct = Report(command, cfg.as_dict())
    direct.add_flag("probe", 5e-4, "tol_congruent")
    assert direct.flags["probe"] == {"value": 5e-4, "tolerance": "tol_congruent",
                                     "tol": 1e-3, "passed": True}


@pytest.mark.parametrize("n, estimated", [(60, True), (6, False)])
def test_integrate_flags_the_error_estimate_where_the_subgrid_sweeps(tmp_path, n, estimated):
    # an even axis sweeps the subgrid of its first n - 1 nodes; 6 nodes are too few
    out = tmp_path / "out"
    assert main(["integrate", "--grid", f"{n},{n},0,0,0.005,0.005", "--out", str(out)]) == 0
    flags = json.loads((out / "report.json").read_text())["flags"]
    assert ("error_estimate" in flags) == estimated


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


def test_umbilic_example_overflowing_datum_exits_2(tmp_path, capsys):
    # finite coefficients whose polynomial overflows to inf on the grid
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": "example", "params": {
        "kind": "umbilic", "p_poly": [1.7e308, 1.7e308]}}))
    assert main(["--config", str(doc), "--out", str(tmp_path)]) == 2
    assert "params.p_poly is not finite on the grid" in capsys.readouterr().err


@pytest.mark.parametrize("command, params, named", [
    ("example", {"kind": "constant", "p": 0.5, "c1": 1e308},
     r"immersion values must be finite: node \(0, 0\) holds a non-finite value"),
    ("integrate", {"t": "t.csv", "h": "h.csv", "p": "p.csv"},
     r"Theta holds a non-finite value in A at node \(0, 0\)"),
    ("congruence", {"first": "61.csv", "second": "41.csv"}, r"nx=61, .* and GridGeometry\(nx=41, "),
    ("verify", {"p": 2.0}, r"p must avoid \+-2"),
], ids=["example-c1-1e308", "integrate-h-1e200", "congruence-61-vs-41", "verify-p-2"])
def test_rejected_input_exits_2_without_traceback(tmp_path, monkeypatch, capsys,
                                                   command, params, named):
    # every ValueError, wherever the library raises it, is rejected input
    monkeypatch.chdir(tmp_path)  # the params name files in tmp_path
    geom = sg.GridGeometry(11, 11, 0.0, 0.0, 0.01, 0.01)
    inv = sg.family_triple(sg.ConstantFamilyParams(p=1.0), geom)
    for name, values in (("t", inv.t), ("h", np.full((11, 11), 1e200)), ("p", inv.p)):
        sg.save_grid(sg.ComplexGrid(geom, values), f"{name}.csv")
    for n in (61, 41):
        sg.save_immersion(sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0),
                                                   sg.GridGeometry(n, n, 0.0, 0.0, 0.005, 0.005)),
                          f"{n}.csv")
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"command": command, "params": params}))
    assert main(["--config", str(doc), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(named, err)
    assert not (tmp_path / "out" / "report.json").exists()
