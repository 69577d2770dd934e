"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py      (from the repository root, ~1 minute)

1. A tiny-grid smoke run of every workload, untraced and traced, must print
   every metric BENCHMARK.json names, with its unit, and pass its checks.
2. One deliberately perturbed output per workload must trip that workload's
   output check.
3. Without `src/symplag` the benchmark must exit non-zero and print no result.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import workloads

# Tolerances are absolute, so the umbilic Lagrangian flag fails on grids much
# coarser than 41^2; the smoke run stays above that.
TINY = (workloads.Forward(n=41, k=2), workloads.Inverse(n=41, k=2),
        workloads.Family(n=25, k=2))


def expected_metrics(root: Path) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def perturb(res) -> None:
    """Corrupt one output of the last pass, the way a wrong program would."""
    w, lib, jobs = res["workload"], res["lib"], res["jobs"]
    if w.name == "forward":
        path = jobs[0][0].output_dir / "immersion.csv"
        m, frame = lib.sg.load_immersion(path)
        f = m.f.copy()
        f[3, 3, 0] += 1e-3
        lib.sg.save_immersion(lib.sg.ImmersionGrid(m.geometry, f), path, frame=frame)
    elif w.name == "inverse":
        k = next(s.index for s in res["solves"] if s.reports)
        path = jobs[k].output_dir / "invariant_p.csv"
        g = lib.sg.load_grid(path)
        v = g.values.copy()
        v[2, 2] += 0.1
        lib.sg.save_grid(g.with_values(v), path)
    else:
        rep = next(s.reports[0] for s in res["solves"] if s.reports)
        rep.residuals["congruence_matrix"]["matrix"][0][1] += 1.0


def main() -> int:
    root = Path.cwd()
    e2e, layers = expected_metrics(root)
    problems = []
    for w in TINY:
        for trace in (False, True):
            res = run.run_benchmark(w, seed=1, seconds=0, trace=trace, root=root)
            line = json.loads(json.dumps(run.summary_line(res, trace)))
            want = layers if trace else e2e
            got = {n: m["unit"] for n, m in line["metrics"].items()}
            if got != want:
                problems.append(f"{w.name} trace={trace}: metrics {got} != {want}")
            if not line["correct"] or line["attempted"] < 1:
                problems.append(f"{w.name} trace={trace}: smoke run failed its checks: "
                                f"{res['check'].problems}")
            if not trace:
                perturb(res)
                last = {s.index: s.reports for s in res["solves"]}
                check = w.check(res["lib"], res["items"], res["jobs"],
                                [last[k] for k in range(len(res["jobs"]))])
                if check.ok:
                    problems.append(f"{w.name}: perturbed output passed the check")
                else:
                    print(f"{w.name}: perturbed output tripped: {check.problems[0]}")
            shutil.rmtree(res["work"], ignore_errors=True)

    bare = root / ".perfbench_work" / "bare"
    bare.mkdir(parents=True, exist_ok=True)
    os.chdir(bare)
    try:
        code = run.main(["--workload", "forward", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(root)
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0:
        problems.append("the benchmark ran without src/symplag")

    for p in problems:
        print(f"SELFCHECK FAILED {p}")
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
