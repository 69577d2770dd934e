"""Command-line front end: configuration, orchestration, reports, mesh export.

Every command is deterministic given its configuration.  Reports are JSON
documents echoing the fully resolved configuration together with residual
summaries and named pass/fail flags, so a run can be reproduced from its
report alone.  Exit codes: 0 all flags pass, 1 residual failure or library
error, 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT_TOLS, Tolerances
from .errors import ConfigError, GridTooSmall, SymplagError
from .frames import (
    DEFAULT_MARGIN,
    ImmersionGrid,
    _cropped,
    congruence_defect,
    congruence_matrix,
    flatness_residual,
    immersion_from_frame,
    integrate_frame,
    lagrangian_defect,
    load_immersion,
    reduction_pipeline,
    save_immersion,
    theta_from_invariants,
)
from .grids import ComplexGrid, GridGeometry, load_grid, save_grid
from .invariants import (
    InvariantTriple,
    dbar_fubini_residual,
    inteq_residual,
    shift_family,
)
from .generators import (
    ConstantFamilyParams,
    UmbilicCurveSpec,
    closed_form_immersion,
    family_triple,
    umbilic_immersion,
)

COMMANDS = ("verify", "integrate", "example", "family", "invariants",
            "congruence", "export")

DEFAULT_GRID = GridGeometry(61, 61, 0.0, 0.0, 0.005, 0.005)


@dataclass(frozen=True)
class JobConfig:
    """Fully resolved run configuration."""

    command: str
    grid: GridGeometry = DEFAULT_GRID
    params: dict = field(default_factory=dict)
    tolerances: Tolerances = DEFAULT_TOLS
    output_dir: Path = Path(".")

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "grid": self.grid.as_dict(),
            "params": self.params,
            "tolerances": self.tolerances.as_dict(),
            "output_dir": str(self.output_dir),
        }


@dataclass
class Report:
    """Residual summaries plus pass/fail flags, traceable to named tolerances,
    and the wall time of each stage of the command."""

    command: str
    config: dict
    residuals: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def add_residual(self, name: str, values: np.ndarray) -> float:
        a = np.abs(np.asarray(values))
        mx = float(np.max(a)) if a.size else 0.0
        self.residuals[name] = {"max": mx, "mean": float(np.mean(a)) if a.size else 0.0}
        return mx

    def add_flag(self, name: str, value: float, tol_name: str, tol: float,
                 below: bool = True) -> None:
        ok = value <= tol if below else value > tol
        self.flags[name] = {"value": value, "tolerance": tol_name,
                            "tol": tol, "passed": bool(ok)}

    @contextmanager
    def timed(self, name: str):
        """Add the wall time of the block to timings[name], in seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - start

    @property
    def passed(self) -> bool:
        return all(f["passed"] for f in self.flags.values())

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "passed": self.passed,
            "residuals": self.residuals,
            "flags": self.flags,
            "outputs": self.outputs,
            "warnings": self.warnings,
            "timings": self.timings,
            "wall_time_s": self.wall_time_s,
            "config": self.config,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "symplag": __version__,
            },
        }

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)


# -- triple construction from params ------------------------------------------


def _load(loader, path):
    """Read an input file; a malformed one is a ConfigError naming the file."""
    try:
        return loader(path)
    except (ValueError, GridTooSmall) as e:
        raise ConfigError(f"cannot load {path}: {e}") from e


def _number(key: str, value, kind=float):
    """`value` of params.`key` as a finite float, or an int when kind is int;
    anything else, a JSON boolean included, is a ConfigError naming the key."""
    try:
        x = float(value)
        if not isinstance(value, bool) and math.isfinite(x) and (kind is float or x == int(x)):
            return kind(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"params.{key} must be a finite {kind.__name__}, got {value!r}")


def _family_params(params: dict) -> ConstantFamilyParams:
    defaults = {"p": 0.0, "c1": 1.0, "c2": 1.0, "a1": 0.0, "a2": 0.0, "m1": 0.0, "m2": 0.0}
    return ConstantFamilyParams(**{k: _number(k, params.get(k, d)) for k, d in defaults.items()})


def _margin(params: dict, *geoms: GridGeometry) -> int:
    """params.margin, checked against every grid it is to crop."""
    margin = _number("margin", params.get("margin", DEFAULT_MARGIN), int)
    for geom in geoms:
        try:
            _cropped(geom, margin)
        except ValueError as e:
            raise ConfigError(f"bad params.margin: {e}") from e
    return margin


def _poly_values(geom: GridGeometry, key: str, coeffs) -> np.ndarray:
    """The polynomial in z with coefficients params.`key`, constant term first.
    Each coefficient is a finite number or an [re, im] pair of finite numbers;
    anything else, or a value that overflows on the grid, is a ConfigError
    naming the key."""
    if not isinstance(coeffs, (list, tuple)):
        raise ConfigError(f"params.{key} must be a list of coefficients, got {coeffs!r}")
    z = geom.zmesh()
    vals = np.zeros_like(z)
    for c in reversed(coeffs):
        re, im = c if isinstance(c, (list, tuple)) and len(c) == 2 else (c, 0.0)
        vals = vals * z + complex(_number(key, re), _number(key, im))
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"params.{key} is not finite on the grid")
    return vals


def triple_from_params(geom: GridGeometry, params: dict) -> InvariantTriple:
    """Build an invariant triple from a params record.

    Three sources: `kind: constant` (exponential-ansatz family), `kind:
    umbilic` (polynomial t and p, h = 0), or explicit `t`/`h`/`p` CSV paths,
    which must share one grid geometry.  A triple the params cannot make (one
    holding a non-finite value, say) is a ConfigError naming the field at fault.
    """
    try:
        if {"t", "h", "p"} <= set(params):
            t, h, p = (_load(load_grid, params[k]) for k in ("t", "h", "p"))
            if not t.geometry == h.geometry == p.geometry:
                raise ConfigError("the t, h and p files must share one grid geometry")
            return InvariantTriple(t.geometry, t.values, h.values, p.values)
        kind = params.get("kind", "constant")
        lam = _number("lam", params.get("lam", 0.0))
        if kind == "constant":
            return family_triple(_family_params(params), geom, lam)
        if kind == "umbilic":
            t = _poly_values(geom, "t_poly", params.get("t_poly", [1.0]))
            p = _poly_values(geom, "p_poly", params.get("p_poly", [0.0]))
            return InvariantTriple(geom, t, 0.0, p - lam)
    except ValueError as e:
        raise ConfigError(f"bad invariant triple in params: {e}") from e
    raise ConfigError(f"unknown triple kind {kind!r}")


# -- mesh export --------------------------------------------------------------


def write_obj(path: str | Path, xs: np.ndarray, ys: np.ndarray,
              height: np.ndarray, aux: np.ndarray | None = None) -> None:
    """Triangulated height surface over (x, y) in Wavefront OBJ format.

    `height[i, j]` becomes the vertex z-coordinate; `aux`, when given, is
    written as a per-vertex texture coordinate (normalized to [0, 1]) so
    viewers can color by the second component.  An n-by-m grid yields n*m
    vertices and 2*(n-1)*(m-1) triangles.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    h = np.asarray(height, dtype=float)
    n, m = h.shape
    lines = [f"# height surface {n}x{m}"]
    if aux is not None:
        a = np.asarray(aux, dtype=float)
        span = float(a.max() - a.min())
        a_norm = (a - a.min()) / span if span > 0 else np.zeros_like(a)
    for i in range(n):
        for j in range(m):
            lines.append(f"v {xs[i]:.9g} {ys[j]:.9g} {h[i, j]:.9g}")
    if aux is not None:
        for i in range(n):
            for j in range(m):
                lines.append(f"vt {a_norm[i, j]:.9g} 0")
    vid = lambda i, j: i * m + j + 1
    for i in range(n - 1):
        for j in range(m - 1):
            a_, b_, c_, d_ = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            if aux is not None:
                lines.append(f"f {a_}/{a_} {b_}/{b_} {c_}/{c_}")
                lines.append(f"f {a_}/{a_} {c_}/{c_} {d_}/{d_}")
            else:
                lines.append(f"f {a_} {b_} {c_}")
                lines.append(f"f {a_} {c_} {d_}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_mesh(m: ImmersionGrid, fmt: str, path: str | Path) -> Path:
    """Write an immersion as `csv`, `obj-xy-f1f2`, or `obj-xy-f3f4`."""
    path = Path(path)
    if fmt == "csv":
        save_immersion(m, path)
    elif fmt in ("obj-xy-f1f2", "obj-xy-f3f4"):
        k = 0 if fmt.endswith("f1f2") else 2
        write_obj(path, m.geometry.x, m.geometry.y,
                  m.f[..., k], m.f[..., k + 1])
    else:
        raise ConfigError(f"unknown export format {fmt!r}")
    return path


# -- command implementations --------------------------------------------------


def _run_verify(cfg: JobConfig, rep: Report) -> None:
    tols = cfg.tolerances
    inv = triple_from_params(cfg.grid, cfg.params)
    r1, r2, r3 = inteq_residual(inv)
    mx = max(rep.add_residual("inteq_r1", r1),
             rep.add_residual("inteq_r2", r2),
             rep.add_residual("inteq_r3", r3))
    rep.add_flag("inteq", mx, "tol_resid", tols.tol_resid)
    df = rep.add_residual("dbar_fubini", dbar_fubini_residual(inv))
    rep.add_flag("dbar_fubini", df, "tol_resid", tols.tol_resid)
    flat = rep.add_residual("flatness", flatness_residual(theta_from_invariants(inv)))
    rep.add_flag("flatness", flat, "tol_flat", tols.tol_flat)


def _run_integrate(cfg: JobConfig, rep: Report) -> None:
    tols = cfg.tolerances
    with rep.timed("integrate"):
        inv = triple_from_params(cfg.grid, cfg.params)
        theta = theta_from_invariants(inv)
        F = integrate_frame(theta, tols=tols)
        m = immersion_from_frame(F)
    rep.add_flag("flatness", F.flatness_report, "tol_flat", tols.tol_flat)
    rep.add_flag("path_defect", F.path_defect, "tol_congruent", tols.tol_congruent)
    rep.add_flag("symplectic_defect", F.max_symplectic_defect(),
                 "tol_frame", tols.tol_frame)
    lag = rep.add_residual("lagrangian_defect", lagrangian_defect(m))
    rep.add_flag("lagrangian", lag, "tol_frame", tols.tol_frame)
    out = cfg.output_dir / "immersion.csv"
    with rep.timed("write"):
        save_immersion(m, out, frame=F)
    rep.outputs.append(str(out))


def _run_example(cfg: JobConfig, rep: Report) -> None:
    kind = cfg.params.get("kind", "constant")
    with rep.timed("build"):
        if kind == "constant":
            m = closed_form_immersion(_family_params(cfg.params), cfg.grid)
        elif kind == "umbilic":
            p = _poly_values(cfg.grid, "p_poly", cfg.params.get("p_poly", [0.0]))
            spec = UmbilicCurveSpec(cfg.grid, p, _number("lam", cfg.params.get("lam", 0.0)))
            m = umbilic_immersion(spec, cfg.tolerances)
        else:
            raise ConfigError(f"unknown example kind {kind!r}")
    lag = rep.add_residual("lagrangian_defect", lagrangian_defect(m))
    rep.add_flag("lagrangian", lag, "tol_frame", cfg.tolerances.tol_frame)
    out = cfg.output_dir / "immersion.csv"
    with rep.timed("write"):
        save_immersion(m, out)
        rep.outputs.append(str(out))
        for fmt in cfg.params.get("export", []):
            path = cfg.output_dir / f"immersion-{fmt}.obj"
            export_mesh(m, fmt, path)
            rep.outputs.append(str(path))


def _run_family(cfg: JobConfig, rep: Report) -> None:
    tols = cfg.tolerances
    lambdas = cfg.params.get("lambdas", [-1.0, 0.0, 1.0])
    if not isinstance(lambdas, (list, tuple)):
        raise ConfigError(f"params.lambdas must be a list, got {lambdas!r}")
    lambdas = [_number("lambdas", v) for v in lambdas]
    margin = _margin(cfg.params, cfg.grid)
    base = triple_from_params(cfg.grid, {k: v for k, v in cfg.params.items()
                                         if k != "lambdas"})
    members = []
    for lam in lambdas:
        inv = shift_family(base, lam)
        r1, r2, r3 = inteq_residual(inv)
        mx = max(float(np.max(np.abs(r))) for r in (r1, r2, r3))
        rep.add_flag(f"inteq_lam_{lam:g}", mx, "tol_resid", tols.tol_resid)
        with rep.timed("integrate"):
            F = integrate_frame(theta_from_invariants(inv), tols=tols,
                                compute_path_defect=False)
            members.append(immersion_from_frame(F))
    with rep.timed("congruence"):
        matrix = congruence_matrix(members, tols, margin)
    rep.residuals["congruence_matrix"] = {"lambdas": lambdas,
                                          "matrix": matrix.tolist()}
    off = matrix[~np.eye(len(members), dtype=bool)]
    if off.size:
        rep.add_flag("pairwise_noncongruent", float(np.min(off)),
                     "tol_congruent", tols.tol_congruent, below=False)


def _run_invariants(cfg: JobConfig, rep: Report) -> None:
    tols = cfg.tolerances
    src = cfg.params.get("immersion")
    if not src:
        raise ConfigError("invariants command needs params.immersion (CSV path)")
    with rep.timed("load"):
        m, _ = _load(load_immersion, src)
    margin = _margin(cfg.params, m.geometry)
    with rep.timed("reduce"):
        _, inv, gauge = reduction_pipeline(m, tols=tols, margin=margin)
    gmax = rep.add_residual("gauge", list(gauge.values()))
    rep.add_flag("adapted_gauge", gmax, "tol_gauge", tols.tol_gauge)
    # inteq on re-extracted fields re-differentiates them, amplifying the
    # extraction noise by 1/spacing; reported for information, not gated.
    with rep.timed("inteq"):
        r1, r2, r3 = inteq_residual(inv)
    rep.add_residual("inteq_r1", r1)
    rep.add_residual("inteq_r2", r2)
    rep.add_residual("inteq_r3", r3)
    with rep.timed("write"):
        for name, values in (("t", inv.t), ("h", inv.h), ("p", inv.p)):
            out = cfg.output_dir / f"invariant_{name}.csv"
            save_grid(ComplexGrid(inv.geometry, values), out)
            rep.outputs.append(str(out))


def _run_congruence(cfg: JobConfig, rep: Report) -> None:
    tols = cfg.tolerances
    try:
        a = cfg.params["first"]
        b = cfg.params["second"]
    except KeyError as e:
        raise ConfigError(f"congruence command needs params.{e.args[0]}") from e
    with rep.timed("load"):
        m1, _ = _load(load_immersion, a)
        m2, _ = _load(load_immersion, b)
    margin = _margin(cfg.params, m1.geometry, m2.geometry)
    with rep.timed("congruence"):
        d = congruence_defect(m1, m2, tols=tols, margin=margin)
    rep.add_residual("congruence_defect", d)
    rep.add_flag("congruent", d, "tol_congruent", tols.tol_congruent)


def _run_export(cfg: JobConfig, rep: Report) -> None:
    src = cfg.params.get("immersion")
    if not src:
        raise ConfigError("export command needs params.immersion (CSV path)")
    fmt = cfg.params.get("format", "obj-xy-f1f2")
    m, _ = _load(load_immersion, src)
    suffix = ".csv" if fmt == "csv" else ".obj"
    out = cfg.output_dir / (Path(src).stem + f"-{fmt}{suffix}")
    export_mesh(m, fmt, out)
    rep.outputs.append(str(out))


_RUNNERS = {
    "verify": _run_verify,
    "integrate": _run_integrate,
    "example": _run_example,
    "family": _run_family,
    "invariants": _run_invariants,
    "congruence": _run_congruence,
    "export": _run_export,
}


def run(cfg: JobConfig) -> Report:
    """Execute one command; returns the report (also written to output_dir),
    which lists every warning the command raised; the warnings are passed on."""
    rep = Report(command=cfg.command, config=cfg.as_dict())
    start = time.perf_counter()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _RUNNERS[cfg.command](cfg, rep)
    finally:
        for w in caught:
            rep.warnings.append({"category": w.category.__name__,
                                 "message": str(w.message)})
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    rep.wall_time_s = time.perf_counter() - start
    rep.save(cfg.output_dir / "report.json")
    return rep


# -- argument parsing ---------------------------------------------------------


def _parse_grid(text: str) -> GridGeometry:
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError("--grid expects nx,ny,x0,y0,dx,dy")
    try:
        nx, ny = int(parts[0]), int(parts[1])
        x0, y0, dx, dy = (float(v) for v in parts[2:])
        return GridGeometry(nx, ny, x0, y0, dx, dy)
    except (ValueError, SymplagError) as e:
        raise ConfigError(f"bad --grid value: {e}") from e


def build_config(argv: list[str]) -> JobConfig:
    parser = argparse.ArgumentParser(
        prog="symplag",
        description="Reconstruction and invariant-extraction toolkit for "
                    "elliptic Lagrangian surfaces in affine symplectic R^4.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="pipeline to run (may also come from --config)")
    parser.add_argument("--config", type=Path, help="JSON configuration file")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--grid", type=str, help="nx,ny,x0,y0,dx,dy")
    for f in dc_fields(Tolerances):
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=float,
                            dest=f.name, default=None)
    args = parser.parse_args(argv)

    doc: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e

    command = args.command or doc.get("command")
    if not command:
        raise ConfigError("no command given (positional argument or config)")

    if args.grid is not None:
        grid = _parse_grid(args.grid)
    elif "grid" in doc:
        if not doc["grid"]:
            raise ConfigError("empty grid record in config")
        try:
            grid = GridGeometry.from_dict(doc["grid"])
        except (ValueError, SymplagError) as e:
            raise ConfigError(f"bad grid record: {e}") from e
    else:
        grid = DEFAULT_GRID

    tols = DEFAULT_TOLS
    if "tolerances" in doc:
        try:
            tols = tols.replace(**doc["tolerances"])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad tolerances record: {e}") from e
    overrides = {f.name: getattr(args, f.name) for f in dc_fields(Tolerances)
                 if getattr(args, f.name) is not None}
    if overrides:
        try:
            tols = tols.replace(**overrides)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    out_dir = args.out or Path(doc.get("output_dir", "."))
    return JobConfig(command=command, grid=grid, params=doc.get("params", {}),
                     tolerances=tols, output_dir=out_dir)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = build_config(argv)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        rep = run(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except SymplagError as e:
        print(f"failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    for name, f in rep.flags.items():
        status = "pass" if f["passed"] else "FAIL"
        print(f"{status}  {name}: {f['value']:.3e} vs {f['tolerance']} = {f['tol']:.1e}")
    print(f"report written to {cfg.output_dir / 'report.json'}")
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
