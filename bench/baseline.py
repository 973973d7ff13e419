"""Run the benchmark over ten seeds and write a BENCH_*.json result file.

    python3 bench/baseline.py --out bench/results/BENCH_<name>.json

For each workload of BENCHMARK.json it makes ten untraced runs, on seeds 1
to 10, then one traced run on seed 1, all with the run length from
BENCHMARK.json.  For every end-to-end metric, setup_s included, it reports
the median and the quartile spread (q3 - q1) / median of the runs beside the
metric's bound; a spread above a third of the bound is flagged and makes the
script exit 1.  The result file also records the machine, the library
versions, the BLAS thread settings and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import run  # sets the BLAS thread variables that its runs use

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
RUNS = 10


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpus = len(os.sched_getaffinity(0))
    return {
        "cpu_model": cpu_model(),
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in run.THREAD_VARS},
        "git_commit": git_commit(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, 1 + RUNS))
    result = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        summary = {
            name: summarise([r["metrics"][name] for r in runs], bound)
            for name, bound in bounds.items()
        }
        traced = run_once(workload, seeds[0], seconds, 1)
        result["workloads"][workload] = {"runs": runs, "summary": summary, "traced": traced}
        print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for name, s in summary.items():
            steady &= s["steady"]
            flag = "" if s["steady"] else "  <-- spread above bound/3"
            print(f"  {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}{flag}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
