"""Command-line front end: configuration, orchestration, reports, mesh export.

Every command is deterministic given its configuration.  Reports are JSON
documents echoing the fully resolved configuration together with residual
summaries and named pass/fail flags, so a run can be reproduced from its
report alone.  Exit codes: 0 all flags pass, 1 a failing flag or a numerical
failure (a SymplagError such as NotElliptic or FrameDefect), 2 rejected input
or an I/O error.  Rejected input is any ValueError, the library's one
input-rejection error, wherever it is raised; `main` alone decides so.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT_TOLS, Tolerances, _number
from .errors import ConfigError, SymplagError
from .frames import (
    DEFAULT_MARGIN,
    ImmersionGrid,
    _cropped,
    congruence_defect,
    congruence_matrix,
    flatness_residual,
    immersion_from_frame,
    integrate_frame,
    invariants_from_immersion,
    lagrangian_defect,
    load_immersion,
    save_immersion,
    theta_from_invariants,
)
from .grids import ComplexGrid, GridGeometry, _in_two_processes, load_grid, save_grid
from .invariants import InvariantTriple, inteq_residual, shift_family
from .generators import (
    ConstantFamilyParams,
    UmbilicCurveSpec,
    closed_form_immersion,
    family_triple,
    umbilic_immersion,
)

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
        if not isinstance(self.command, str) or self.command not in _COMMANDS:
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
    the geometry of each CSV grid the command read or wrote (`grids`), and
    the wall time of each stage of the command."""

    command: str
    config: dict
    residuals: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    grids: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def add_residual(self, name: str, values: np.ndarray) -> float:
        a = np.abs(np.asarray(values))
        mx = float(np.max(a)) if a.size else 0.0
        self.residuals[name] = {"max": mx, "mean": float(np.mean(a)) if a.size else 0.0}
        return mx

    def add_flag(self, name: str, value: float, tol_name: str, below: bool = True) -> None:
        """Flag `name` passes when `value` is at most (below) or above the
        resolved tolerance `tol_name` of the report's config."""
        tol = self.config["tolerances"][tol_name]
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
            "grids": self.grids,
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


def _path(key: str, value) -> str:
    """`value` of params.`key` as a file path; anything but a non-empty string,
    None for a missing key included, is a ConfigError naming the key."""
    if isinstance(value, str) and value:
        return value
    raise ConfigError(f"params.{key} must name a file, got {value!r}")


def _family_params(params: dict) -> ConstantFamilyParams:
    defaults = {"p": 0.0, "c1": 1.0, "c2": 1.0, "m1": 0.0, "m2": 0.0}
    return ConstantFamilyParams(**{k: _number(f"params.{k}", params.get(k, d))
                                   for k, d in defaults.items()})


def _margin(params: dict) -> int:
    """params.margin; `frames._cropped` refuses one that leaves too small a grid."""
    return _number("params.margin", params.get("margin", DEFAULT_MARGIN), integer=True)


def _poly_values(geom: GridGeometry, key: str, coeffs) -> np.ndarray:
    """The polynomial in z with coefficients params.`key`, constant term first.
    Each coefficient is a finite number or an [re, im] pair of finite numbers;
    anything else, or a value that overflows on the grid, is a ValueError
    naming the key."""
    if not isinstance(coeffs, (list, tuple)):
        raise ConfigError(f"params.{key} must be a list of coefficients, got {coeffs!r}")
    z = geom.zmesh()
    vals = np.zeros_like(z)
    for c in reversed(coeffs):
        re, im = c if isinstance(c, (list, tuple)) and len(c) == 2 else (c, 0.0)
        vals = vals * z + complex(*(_number(f"params.{key}", v) for v in (re, im)))
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"params.{key} is not finite on the grid")
    return vals


# the params each triple source reads: CSV files of t, h and p on one grid,
# the exponential-ansatz family, or polynomial t and p with h = 0
_SOURCES = {"files": {"t", "h", "p"}, "constant": {"p", "c1", "c2", "m1", "m2"},
            "umbilic": {"t_poly", "p_poly"}}
# example's closed form has m1 = m2 = 0, and its umbilic curve takes p alone
_EXAMPLES = {"constant": {"p", "c1", "c2"}, "umbilic": {"p_poly"}}


def _source(params: dict, sources: dict) -> str:
    """The source of `sources` that params name: `files` when t or h is given,
    params.kind (default constant) otherwise.  A kind beside the files, files
    short of one of t, h and p, or an unknown kind is a ConfigError."""
    if "files" in sources and ("t" in params or "h" in params):
        if "kind" in params:
            raise ConfigError("params.kind cannot be given with the t, h and p files")
        missing = [k for k in ("t", "h", "p") if k not in params]
        if missing:
            raise ConfigError(f"a triple from files needs params.{', params.'.join(missing)}")
        return "files"
    kind = params.get("kind", "constant")
    if not isinstance(kind, str) or kind not in sources:
        raise ConfigError(f"unknown triple kind params.kind = {kind!r}")
    return kind


def triple_from_params(geom: GridGeometry, params: dict) -> InvariantTriple:
    """Build an invariant triple from a params record.

    The source, chosen by `_source` from `_SOURCES`, is explicit `t`/`h`/`p`
    CSV paths, which must share one grid geometry, `kind: constant`
    (exponential-ansatz family) or `kind: umbilic` (polynomial t and p,
    h = 0).  Whichever the source, p is then shifted by params.lam through
    `shift_family`.  A triple the params cannot make (one holding a
    non-finite value, say) is a ValueError naming the field at fault.
    """
    source = _source(params, _SOURCES)
    lam = _number("params.lam", params.get("lam", 0.0))
    if source == "files":
        t, h, p = (load_grid(_path(k, params[k])) for k in ("t", "h", "p"))
        if not t.geometry == h.geometry == p.geometry:
            raise ConfigError("the t, h and p files must share one grid geometry")
        inv = InvariantTriple(t.geometry, t.values, h.values, p.values)
    elif source == "constant":
        inv = family_triple(_family_params(params), geom)
    else:
        t = _poly_values(geom, "t_poly", params.get("t_poly", [1.0]))
        p = _poly_values(geom, "p_poly", params.get("p_poly", [0.0]))
        inv = InvariantTriple(geom, t, 0.0, p)
    return shift_family(inv, lam)


def _triple(cfg: JobConfig, rep: Report) -> InvariantTriple:
    """`triple_from_params` of cfg; t, h and p files put their grid in rep.grids."""
    inv = triple_from_params(cfg.grid, cfg.params)
    if _source(cfg.params, _SOURCES) == "files":
        rep.grids["invariants"] = inv.geometry.as_dict()
    return inv


# -- mesh export --------------------------------------------------------------


def write_obj(path: str | Path, xs: np.ndarray, ys: np.ndarray,
              height: np.ndarray, aux: np.ndarray) -> None:
    """Triangulated height surface over (x, y) in Wavefront OBJ format.

    `height[i, j]` becomes the vertex z-coordinate and `aux` a per-vertex
    texture coordinate (normalized to [0, 1]) so viewers can color by the
    second component.  An n-by-m grid yields n*m vertices and 2*(n-1)*(m-1)
    triangles.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    h = np.asarray(height, dtype=float)
    n, m = h.shape
    lines = [f"# height surface {n}x{m}"]
    a = np.asarray(aux, dtype=float)
    span = float(a.max() - a.min())
    a_norm = (a - a.min()) / span if span > 0 else np.zeros_like(a)
    for i in range(n):
        for j in range(m):
            lines.append(f"v {xs[i]:.9g} {ys[j]:.9g} {h[i, j]:.9g}")
    for i in range(n):
        for j in range(m):
            lines.append(f"vt {a_norm[i, j]:.9g} 0")
    vid = lambda i, j: i * m + j + 1
    for i in range(n - 1):
        for j in range(m - 1):
            a_, b_, c_, d_ = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            lines.append(f"f {a_}/{a_} {b_}/{b_} {c_}/{c_}")
            lines.append(f"f {a_}/{a_} {c_}/{c_} {d_}/{d_}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _export_format(fmt) -> str:
    """`fmt` where it is an export format; ConfigError on any other value."""
    if fmt not in ("obj-xy-f1f2", "obj-xy-f3f4"):
        raise ConfigError(f"unknown export format {fmt!r}")
    return fmt


def export_mesh(m: ImmersionGrid, fmt: str, path: str | Path) -> Path:
    """Write an immersion as an OBJ height mesh, `obj-xy-f1f2` or `obj-xy-f3f4`."""
    path = Path(path)
    k = 0 if _export_format(fmt).endswith("f1f2") else 2
    write_obj(path, m.geometry.x, m.geometry.y, m.f[..., k], m.f[..., k + 1])
    return path


# -- command implementations --------------------------------------------------


def _run_verify(cfg: JobConfig, rep: Report) -> None:
    inv = _triple(cfg, rep)
    mx = max(rep.add_residual(f"inteq_r{k}", r) for k, r in enumerate(inteq_residual(inv), 1))
    rep.add_flag("inteq", mx, "tol_resid")
    flat = rep.add_residual("flatness", flatness_residual(theta_from_invariants(inv)))
    rep.add_flag("flatness", flat, "tol_resid")


def _run_integrate(cfg: JobConfig, rep: Report) -> None:
    with rep.timed("integrate"):
        inv = _triple(cfg, rep)
        F = integrate_frame(theta_from_invariants(inv), tols=cfg.tolerances)  # Theta freed here
        m = immersion_from_frame(F)
    rep.add_flag("flatness", F.flatness_report, "tol_resid")
    if not math.isnan(F.error_estimate):  # NaN below 7 nodes on an axis
        rep.add_flag("error_estimate", F.error_estimate, "tol_congruent")
    # integrate_frame has already refused a defect above tol_frame
    rep.add_residual("symplectic_defect", F.symplectic_defect)
    lag = rep.add_residual("lagrangian_defect", lagrangian_defect(m))
    rep.add_flag("lagrangian", lag, "tol_frame")
    out = cfg.output_dir / "immersion.csv"
    with rep.timed("write"):
        save_immersion(m, out, frame=F)
    rep.outputs.append(str(out))
    rep.grids["immersion"] = m.geometry.as_dict()


def _run_example(cfg: JobConfig, rep: Report) -> None:
    lam = _number("params.lam", cfg.params.get("lam", 0.0))
    with rep.timed("build"):  # constant: p - lam, as shift_family moves a triple
        if _source(cfg.params, _EXAMPLES) == "constant":
            fam = _family_params(cfg.params)
            m = closed_form_immersion(replace(fam, p=fam.p - lam), cfg.grid)
        else:
            p = _poly_values(cfg.grid, "p_poly", cfg.params.get("p_poly", [0.0]))
            m = umbilic_immersion(UmbilicCurveSpec(cfg.grid, p, lam), cfg.tolerances)
    lag = rep.add_residual("lagrangian_defect", lagrangian_defect(m))
    rep.add_flag("lagrangian", lag, "tol_frame")
    out = cfg.output_dir / "immersion.csv"
    with rep.timed("write"):
        save_immersion(m, out)
        rep.outputs.append(str(out))
    rep.grids["immersion"] = m.geometry.as_dict()


def _recorded(work):
    """work() and the warnings it raised, as `warnings.warn_explicit` arguments."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = work()
    return value, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _member(base: InvariantTriple, lam: float, tols: Tolerances) -> tuple:
    """The flatness report and f of the frame integrated from `shift_family(base, lam)`."""
    theta = theta_from_invariants(shift_family(base, lam))
    F = integrate_frame(theta, tols=tols, compute_path_defect=False)
    return F.flatness_report, immersion_from_frame(F).f


def _members(base: InvariantTriple, lambdas: list, tols: Tolerances) -> tuple:
    """`family`'s `_member` of each of `lambdas`, in order.  Returns three lists
    in member order: the flatness reports, the immersions' f, and the warnings
    of the integrations."""
    done, integrating = _recorded(lambda: [_member(base, lam, tols) for lam in lambdas])
    return [flat for flat, _ in done], [f for _, f in done], integrating


def _run_family(cfg: JobConfig, rep: Report) -> None:
    tols = cfg.tolerances
    lambdas = cfg.params.get("lambdas", [-1.0, 0.0, 1.0])
    if not isinstance(lambdas, (list, tuple)):
        raise ConfigError(f"params.lambdas must be a list, got {lambdas!r}")
    lambdas = [_number("params.lambdas", v) for v in lambdas]
    if len(lambdas) < 2 or len(set(lambdas)) < len(lambdas):
        raise ConfigError("params.lambdas must hold at least two distinct values, "
                          f"got {lambdas!r}")
    base = _triple(cfg, rep)  # params.lam is refused: lambdas shift
    # refuse a bad margin before integrating the members
    margin = _cropped(base.geometry, _margin(cfg.params))[1]
    # the second half of the members in a child of `_in_two_processes`, which
    # sends its lists pickled; a refusal in this half, the first, is one
    # process's, and where the child fails, one process redoes them all
    k = len(lambdas) // 2
    with rep.timed("members"):
        halves = _in_two_processes(lambda pipe: (_members(base, lambdas[:k], tols), pipe.read()),
                                   lambda: [pickle.dumps(_members(base, lambdas[k:], tols))])
        flatness, fs, integrating = (
            [a + b for a, b in zip(halves[0], pickle.loads(halves[1]))] if halves and halves[1]
            else _members(base, lambdas, tols))
        for w in integrating:  # as one process raises them
            warnings.warn_explicit(*w)
    for lam, flat in zip(lambdas, flatness):
        rep.add_flag(f"flatness_lam_{lam!r}", flat, "tol_resid")
    members = [ImmersionGrid(base.geometry, f) for f in fs]
    with rep.timed("congruence"):
        matrix = congruence_matrix(members, tols, margin)
    rep.residuals["congruence_matrix"] = {"lambdas": lambdas,
                                          "matrix": matrix.tolist()}
    off = matrix[~np.eye(len(members), dtype=bool)]
    rep.add_flag("pairwise_noncongruent", float(np.min(off)), "tol_congruent", below=False)


def _run_invariants(cfg: JobConfig, rep: Report) -> None:
    with rep.timed("load"):
        m, _ = load_immersion(_path("immersion", cfg.params.get("immersion")))
    rep.grids["immersion"] = m.geometry.as_dict()
    with rep.timed("invariants"):
        inv, gates = invariants_from_immersion(m, cfg.tolerances, _margin(cfg.params))
    rep.grids["invariants"] = inv.geometry.as_dict()
    # invariants_from_immersion has refused what its gates fail: nothing left to flag
    for name, values in gates.items():
        rep.add_residual(name, values)
    with rep.timed("write"):
        for name, values in (("t", inv.t), ("h", inv.h), ("p", inv.p)):
            out = cfg.output_dir / f"invariant_{name}.csv"
            save_grid(ComplexGrid(inv.geometry, values), out)
            rep.outputs.append(str(out))


def _run_congruence(cfg: JobConfig, rep: Report) -> None:
    a, b = (_path(k, cfg.params.get(k)) for k in ("first", "second"))
    with rep.timed("load"):
        m1, _ = load_immersion(a)
        m2, _ = load_immersion(b)
    rep.grids.update(first=m1.geometry.as_dict(), second=m2.geometry.as_dict())
    with rep.timed("congruence"):
        d = congruence_defect(m1, m2, tols=cfg.tolerances, margin=_margin(cfg.params))
    rep.add_residual("congruence_defect", d)
    rep.add_flag("congruent", d, "tol_congruent")


def _run_export(cfg: JobConfig, rep: Report) -> None:
    src = _path("immersion", cfg.params.get("immersion"))
    fmt = _export_format(cfg.params.get("format", "obj-xy-f1f2"))  # before the CSV is read
    with rep.timed("load"):
        m, _ = load_immersion(src)
    rep.grids["immersion"] = m.geometry.as_dict()
    with rep.timed("write"):
        out = export_mesh(m, fmt, cfg.output_dir / (Path(src).stem + f"-{fmt}.obj"))
    rep.outputs.append(str(out))


# command -> (runner, the params keys it reads, the triple sources it takes);
# run() refuses any key that is neither the command's nor its source's
_COMMANDS = {
    "verify": (_run_verify, {"kind", "lam"}, _SOURCES),
    "integrate": (_run_integrate, {"kind", "lam"}, _SOURCES),
    "example": (_run_example, {"kind", "lam"}, _EXAMPLES),
    "family": (_run_family, {"kind", "lambdas", "margin"}, _SOURCES),
    "invariants": (_run_invariants, {"immersion", "margin"}, {}),
    "congruence": (_run_congruence, {"first", "second", "margin"}, {}),
    "export": (_run_export, {"immersion", "format"}, {}),
}


def run(cfg: JobConfig) -> Report:
    """Execute one command; returns the report (also written to output_dir),
    which lists every warning the command raised.  The warnings are passed on
    once the report is written, and only when the command succeeded, so that
    a warning the caller's filters make an error cannot replace the command's
    own error.  A params key that neither the command nor its triple source
    reads is a ConfigError."""
    if not isinstance(cfg.params, dict):
        raise ConfigError(f"params must be a JSON object, got {cfg.params!r}")
    runner, keys, sources = _COMMANDS[cfg.command]
    if sources:
        keys = keys | sources[_source(cfg.params, sources)]
    unknown = sorted(set(cfg.params) - keys)
    if unknown:
        raise ConfigError(f"{cfg.command} does not read params.{', params.'.join(unknown)}")
    rep = Report(command=cfg.command, config=cfg.as_dict())
    start = time.perf_counter()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _, caught = _recorded(lambda: runner(cfg, rep))
    rep.warnings = [{"category": category.__name__, "message": str(message)}
                    for message, category, *_ in caught]
    rep.wall_time_s = time.perf_counter() - start
    rep.save(cfg.output_dir / "report.json")
    for w in caught:
        warnings.warn_explicit(*w)
    return rep


# -- argument parsing ---------------------------------------------------------


def build_config(argv: list[str]) -> JobConfig:
    parser = argparse.ArgumentParser(
        prog="symplag",
        description="Reconstruction and invariant-extraction toolkit for "
                    "elliptic Lagrangian surfaces in affine symplectic R^4.",
    )
    parser.add_argument("command", nargs="?", choices=_COMMANDS,
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
        if not isinstance(doc, dict):
            raise ConfigError(f"config {args.config} must be a JSON object")
        unknown = sorted(set(doc) - {"command", "grid", "params", "tolerances", "output_dir"})
        if unknown:
            raise ConfigError(f"config {args.config} has unknown keys {unknown}")

    command = args.command or doc.get("command")
    if not command:
        raise ConfigError("no command given (positional argument or config)")

    # --grid and --tol-* patch the config's records, which are then checked once
    try:
        if args.grid is not None:
            parts = args.grid.split(",")
            if len(parts) != 6:
                raise ValueError("--grid expects nx,ny,x0,y0,dx,dy")
            doc["grid"] = dict(zip(DEFAULT_GRID.as_dict(), map(float, parts)))
        grid = GridGeometry.from_dict(doc["grid"]) if "grid" in doc else DEFAULT_GRID
    except ValueError as e:
        raise ConfigError(f"bad grid record: {e}") from e
    overrides = {f.name: getattr(args, f.name) for f in dc_fields(Tolerances)
                 if getattr(args, f.name) is not None}
    try:
        tols = DEFAULT_TOLS.replace(**{**doc.get("tolerances", {}), **overrides})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad tolerances record: {e}") from e

    out_dir = doc.get("output_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output_dir must be a string, got {out_dir!r}")
    return JobConfig(command=command, grid=grid, params=doc.get("params", {}),
                     tolerances=tols, output_dir=args.out or out_dir)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = build_config(argv)
        rep = run(cfg)
    except ValueError as e:  # rejected input, ConfigError included
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
