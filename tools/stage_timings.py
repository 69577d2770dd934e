"""Per-stage wall times and memory peaks of symplag's pipelines at 61^2, 121^2
and 241^2.

    python tools/stage_timings.py --out FILE [--src PATH] [--label NAME]

Imports symplag from `--src` (default: the `src` next to this script's
directory), with BLAS and OpenMP pinned to one thread, and times each stage
as the best of 5 runs.  A separate pass, not timed, records each stage's
tracemalloc peak: the most memory that one call's own allocations hold at
once.  The input is the constant family with p = 1 on a square of side 0.3
with origin 0: Theta and the integrated frame come from its invariants;
`integrate_command` builds Theta and integrates it with the path defect, as
the `integrate` command does, so that Theta is freed once integrated, and
`closed_form_immersion` builds the closed form.  The inverse and
`congruence_defect` stages take that closed-form immersion:
`fit_operator`, the build of the fit weights with their cache cleared before
each call, so that the best of 5 is a cold build; `fitted_blocks`, the fits
of f's 4-jet, one column block at a time, each dropped before the next;
`invariants_from_immersion`, the whole inverse path that contains them; and
`lagrangian_defect`, which fits f's first partials only.
`congruence_matrix` compares the four members of its shift family with
lambda in FAMILY_LAMBDAS, each integrated from its invariants, as the
`family` command does.  `save_grid` writes the family's t, one of the three
grids the `invariants` command writes, and `load_grid` reads it back.
`load_immersion_frame` reads the CSV of the integrated immersion and its
frame, and `load_immersion` the frame-less CSV of the closed form, the file
that the `invariants` command reads.

The timings (`stages_s`) and peaks (`stages_peak_mb`) go under `--label`
(default "change") in the JSON file `--out`; an existing file keeps its other
labels, so two runs with different `--src` and `--label` put two trees side
by side.  Shared machines drift in speed, so compare two trees by alternating
their rounds under different labels, not by one run of each.
"""

import os

# BLAS reads these once, when numpy is loaded, so they are set before any import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

REPEATS = 5
SIZES = (61, 121, 241)
SIDE = 0.3
P = 1.0
FAMILY_LAMBDAS = (-1.0, -0.5, 0.5, 1.0)


def best_of(fn) -> float:
    """Least wall time of REPEATS calls of fn()."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def peak_mb(fn) -> float:
    """tracemalloc peak, in MB, of one call of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def grid_stages(sg, n: int, workdir: Path) -> dict:
    """Every stage on the n x n re-anchor input, as a callable to time or trace."""
    h = SIDE / (n - 1)
    geom = sg.GridGeometry(n, n, 0.0, 0.0, h, h)
    params = sg.ConstantFamilyParams(p=P)
    inv = sg.family_triple(params, geom)
    theta = sg.theta_from_invariants(inv)
    F = sg.integrate_frame(theta, compute_path_defect=False)
    m_frame = sg.immersion_from_frame(F)
    m = sg.closed_form_immersion(params, geom)
    members = [sg.immersion_from_frame(sg.integrate_frame(
        sg.theta_from_invariants(sg.shift_family(inv, lam)), compute_path_defect=False))
        for lam in FAMILY_LAMBDAS]
    csv = workdir / f"immersion_{n}.csv"
    sg.save_immersion(m_frame, csv, frame=F)
    plain = workdir / f"plain_{n}.csv"
    sg.save_immersion(m, plain)
    t = sg.ComplexGrid(geom, inv.t)
    t_csv = workdir / f"t_{n}.csv"
    sg.save_grid(t, t_csv)
    return {
        "theta_from_invariants": lambda: sg.theta_from_invariants(inv),
        "flatness_residual": lambda: sg.flatness_residual(theta),
        "integrate_frame_estimate": lambda: sg.integrate_frame(theta),
        "integrate_frame": lambda: sg.integrate_frame(theta, compute_path_defect=False),
        "integrate_command": lambda: sg.integrate_frame(sg.theta_from_invariants(inv)),
        "closed_form_immersion": lambda: sg.closed_form_immersion(params, geom),
        "fit_operator": lambda: (sg.frames._fit_operator.cache_clear(),
                                 sg.frames._fit_operator(n, h)),
        "fitted_blocks": lambda: collections.deque(sg.frames._fitted_blocks(m), maxlen=0),
        "invariants_from_immersion": lambda: sg.invariants_from_immersion(m),
        "lagrangian_defect": lambda: sg.lagrangian_defect(m),
        "congruence_defect": lambda: sg.congruence_defect(m, m),
        "congruence_matrix": lambda: sg.congruence_matrix(members),
        "save_immersion_frame": lambda: sg.save_immersion(m_frame, csv, frame=F),
        "save_grid": lambda: sg.save_grid(t, t_csv),
        "load_immersion_frame": lambda: sg.load_immersion(csv),
        "load_immersion": lambda: sg.load_immersion(plain),
        "load_grid": lambda: sg.load_grid(t_csv),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the symplag package")
    parser.add_argument("--label", default="change", help="key of this run in the JSON file")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to update")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    import symplag as sg

    run = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": REPEATS,
        "stages_s": {},
        "stages_peak_mb": {},
    }
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a repeated warning is noise here, not a stage
        for n in SIZES:
            stages = grid_stages(sg, n, Path(tmp))
            times = {k: best_of(fn) for k, fn in stages.items()}
            peaks = {k: peak_mb(fn) for k, fn in stages.items()}
            run["stages_s"][f"{n}x{n}"], run["stages_peak_mb"][f"{n}x{n}"] = times, peaks
            print(f"{args.label} {n}x{n}: " + ", ".join(
                f"{k} {times[k] * 1e3:.1f} ms {peaks[k]:.1f} MB" for k in stages),
                file=sys.stderr)

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = run
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
