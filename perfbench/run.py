"""Benchmark of symplag's three user-facing jobs, run through the CLI in-process.

    python3 perfbench/run.py --workload {forward,inverse,family} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root: it imports the package from `./src`, and
writes its scratch files and span logs under `./.perfbench_work/`.

A run draws a fixed list of inputs from the seed and sets them up repeatedly
(reporting the median as `setup_s`), then solves the whole list in complete
passes until `--seconds` have elapsed, and checks the outputs of the last
pass.  With `--trace 0` the last line of standard output is a JSON object
carrying the end-to-end metrics; with `--trace 1` untraced and traced passes
alternate and the JSON carries the per-layer metrics of the traced passes
plus the tracing overhead.  Everything runs in this one process, with BLAS
and OpenMP pinned to one thread.
"""

import os

# The thread pools of numpy's BLAS read these once, when numpy is imported, so
# they are set before any import that could load it.  The CLI's
# SYMPLAG_THREADS is applied by `cli.main` after numpy has loaded, which has
# no effect in-process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# set-up repeats at least this often and for at least this long; cheap set-ups
# (an import and a few draws) need many repeats for a steady median
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 0.5
# reference_seconds() on the machine the baseline was taken on, when quiet;
# setup_s is reported in seconds at that speed (see perfbench/README.md)
REFERENCE_NOMINAL_S = 0.055
END_TO_END = {"solve_rel_p50": "ref", "setup_s": "s", "oracle_err": "abs_err",
              "peak_rss_mb": "MB"}
TRACE_EXTRA = {"trace.solve_s_p50": "s", "trace.untraced_solve_s_p50": "s",
               "trace.overhead_frac": "ratio", "solve.fail_frac": "ratio",
               "solve.flag_fail_frac": "ratio"}
SYMPLAG_MODULES = ("symplag", "symplag.cli", "symplag.core", "symplag.frames",
                   "symplag.generators", "symplag.grids", "symplag.invariants")


def per_layer_units() -> dict[str, str]:
    return {**spans.layer_metric_units(), **TRACE_EXTRA}


def reference_seconds() -> float:
    """Wall time of a fixed computation that does not touch symplag.

    It mixes what symplag's solves spend most of their time on: a Python loop
    of small matrix products (the RK4 sweeps, the per-call overhead of the
    reductions) and float formatting and parsing (the CSV files).  Shared
    machines drift in speed by tens of percent over seconds; timing this
    beside each solve lets `solve_rel_p50` cancel the drift.
    """
    q = np.linalg.qr(np.linspace(0.1, 0.9, 25).reshape(5, 5) + np.eye(5))[0]
    start = time.perf_counter()
    s = np.eye(5)
    for _ in range(6000):
        s = s @ q  # q is orthogonal: the products stay bounded
        float(np.max(np.abs(s)))
    text = ",".join(f"{v:.17g}" for v in np.linspace(0.0, 1.0, 30000))
    sum(float(v) for v in text.split(","))
    return time.perf_counter() - start


@dataclass
class Solve:
    index: int  # input index
    seconds: float
    reference: float  # mean reference_seconds() just before and just after
    reports: list | None  # None when the solve raised
    error: str | None
    missing: bool  # a reported output file does not exist
    warnings: int

    @property
    def relative(self) -> float:
        return self.seconds / self.reference

    @property
    def flagged(self) -> bool:
        return any(not r.passed for r in self.reports or ())


def import_symplag(src: Path) -> SimpleNamespace:
    """Import symplag afresh from `src` (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "symplag" or m.startswith("symplag.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(name) for name in SYMPLAG_MODULES}
    return SimpleNamespace(sg=mods["symplag"], cli=mods["symplag.cli"],
                           modules=list(mods.values()))


def one_pass(workload, lib, jobs, tracer=None, first_id=0) -> list[Solve]:
    out = []
    for k, job in enumerate(jobs):
        before = reference_seconds()
        if tracer is not None:
            tracer.solve = first_id + k
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                reports, error = workload.solve(lib, job), None
            except Exception as e:  # a raising solve is counted, and the run goes on
                reports, error = None, f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.solve = None
        missing = any(not Path(o).exists() for r in reports or () for o in r.outputs)
        ref = 0.5 * (before + reference_seconds())
        out.append(Solve(k, seconds, ref, reports, error, missing, len(caught)))
    return out


def measure(workload, lib, jobs, seconds: float, tracer=None):
    """Complete passes until `seconds` elapsed: (untraced solves, traced solves).

    With a tracer, untraced and traced passes alternate, one of each at least.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced += one_pass(workload, lib, jobs)
        if tracer is not None:
            tracer.install(lib.modules)
            try:
                traced += one_pass(workload, lib, jobs, tracer, first_id=len(traced))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def environment(args, workload) -> dict:
    def sysconf(code):  # glibc _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE
        try:
            return os.sysconf(code)
        except (ValueError, OSError):
            return None

    n = workload.n
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": args.seed, "workload": workload.name, "inputs": workload.k,
        "grid": f"{n}x{n}", "frame_field_bytes": n * n * 25 * 8,
        "l2_bytes": sysconf(191), "l3_bytes": sysconf(194),
    }


def run_benchmark(workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Set up, measure and check one workload; returns everything measured."""
    src = root / "src"
    work = root / ".perfbench_work" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    setups, setup_walls = [], []
    while not setups or not trace and (len(setups) < SETUP_REPEATS
                                       or sum(setup_walls) < SETUP_MIN_SECONDS):
        before = reference_seconds()
        start = time.perf_counter()
        lib = import_symplag(src)
        items = workload.draw(np.random.default_rng(seed))
        jobs = workload.prepare(lib, items, work)
        setup_walls.append(time.perf_counter() - start)
        ref = 0.5 * (before + reference_seconds())
        setups.append(setup_walls[-1] * REFERENCE_NOMINAL_S / ref)

    tracer = spans.Tracer() if trace else None
    untraced, traced = measure(workload, lib, jobs, seconds, tracer)
    solves = untraced + traced
    last = {s.index: s for s in untraced}  # the last untraced pass
    check = workload.check(lib, items, jobs, [last[k].reports for k in range(len(jobs))])
    bad = [bool(s.error or s.missing or s.index in check.bad_outputs) for s in solves]
    failed = [s for s, b in zip(solves, bad) if b]
    completed = [s for s, b in zip(solves, bad) if not b]
    oracle = list(check.oracle.values())
    res = {
        "workload": workload, "items": items, "jobs": jobs, "lib": lib, "check": check,
        "solves": solves, "untraced": len(untraced), "failed": failed, "work": work,
        "fail_frac": len(failed) / len(solves),
        "flag_fail_frac": (sum(s.flagged for s in completed) / len(completed)
                           if completed else 1.0),
        "solve_s_p50": statistics.median(s.seconds for s in untraced),
        "e2e": {
            "solve_rel_p50": statistics.median(s.relative for s in untraced),
            "setup_s": statistics.median(setups),
            "oracle_err": statistics.geometric_mean(oracle) if oracle else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "oracle_worst": max(oracle) if oracle else None,
        "setups": setups, "setup_walls": setup_walls,
    }
    if tracer is not None:
        traced_p50 = statistics.median(s.seconds for s in traced)
        res["layers"] = {**tracer.metrics(),
                         "trace.solve_s_p50": traced_p50,
                         "trace.untraced_solve_s_p50": res["solve_s_p50"],
                         "trace.overhead_frac": traced_p50 / res["solve_s_p50"] - 1.0,
                         "solve.fail_frac": res["fail_frac"],
                         "solve.flag_fail_frac": res["flag_fail_frac"]}
        res["tracer"] = tracer
    return res


def summary_line(res: dict, trace: bool) -> dict:
    if trace:
        metrics = {n: {"value": res["layers"][n], "unit": u} for n, u in per_layer_units().items()}
    else:
        metrics = {n: {"value": res["e2e"][n], "unit": u} for n, u in END_TO_END.items()}
    return {"correct": res["check"].ok and res["e2e"]["oracle_err"] is not None,
            "attempted": len(res["solves"]), "failed": len(res["failed"]),
            "metrics": metrics}


def print_human(res: dict, env: dict, trace: bool) -> None:
    print("environment " + json.dumps(env))
    solves, check = res["solves"], res["check"]
    walls = res["setup_walls"]
    print(f"solves {len(solves)} over {len(res['items'])} inputs; {len(walls)} set-ups, "
          f"wall time median {statistics.median(walls):.4f} s, min {min(walls):.4f} s, "
          f"max {max(walls):.4f} s")
    for name, unit in END_TO_END.items():
        v = res["e2e"][name]
        extra = f"  (median of {res['untraced']} untraced solves)" if name == "solve_rel_p50" else ""
        print(f"{name:<28} {v if v is None else f'{v:.6g}'} {unit}{extra}")
    times = sorted(s.seconds for s in solves)
    print(f"{'solve_s_p50':<28} {res['solve_s_p50']:.6g} s  (wall time; min {times[0]:.4f}, "
          f"max {times[-1]:.4f})")
    print(f"{'reference_s_p50':<28} {statistics.median(s.reference for s in solves):.6g} s")
    print("per solve (input, s, reference s) " + " ".join(
        f"{s.index}:{s.seconds:.4f}:{s.reference:.4f}" for s in solves))
    print(f"{'oracle_err_worst':<28} {res['oracle_worst']} abs_err")
    print("oracle_err per input " + " ".join(f"{k}:{v:.3e}" for k, v in sorted(check.oracle.items())))
    print(f"{'fail_frac':<28} {res['fail_frac']:.6g} ratio  "
          f"({len(res['failed'])} of {len(solves)} solves raised or left bad outputs)")
    print(f"{'flag_fail_frac':<28} {res['flag_fail_frac']:.6g} ratio  "
          f"(completed solves whose report fails a named flag: the CLI exits 1)")
    errors = sorted({s.error.split(":")[0] for s in res["failed"] if s.error})
    if errors:
        print("raised: " + ", ".join(errors))
    flags = sorted({n for s in solves for r in s.reports or () for n, f in r.flags.items()
                    if not f["passed"]})
    if flags:
        print("failing flags: " + ", ".join(flags))
    print(f"warnings per solve {statistics.fmean(s.warnings for s in solves):.3g}")
    for p in check.problems:
        print(f"CHECK FAILED {p}")
    if trace:
        print("no layer queues or waits: symplag is single-threaded, spans are busy time")
        for name, unit in per_layer_units().items():
            print(f"{name:<44} {res['layers'][name]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "symplag" / "__init__.py").is_file():
        print(f"error: no src/symplag under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    trace = bool(args.trace)
    res = run_benchmark(workload, args.seed, args.seconds, trace, root)
    if trace:
        span_dir = root / ".perfbench_work" / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        res["tracer"].write(span_dir / f"{workload.name}-seed{args.seed}.jsonl")
    shutil.rmtree(res["work"], ignore_errors=True)
    print_human(res, environment(args, workload), trace)
    print(json.dumps(summary_line(res, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
