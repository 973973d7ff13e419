"""mlap1d benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload {theorem1,nonlinear,sweep} --seed N \
        --seconds T --trace {0,1}

Run it from the root of a checkout; it imports mlap1d from that checkout's
``src/`` and nowhere else.  One client runs passes of the workload back to
back (a closed loop).  The number of passes is T divided by the workload's
pass time at the seed commit, so a run measures about T seconds there and
every commit runs the same ops.  Before each pass mlap1d is imported afresh,
as a new command-line process would, so nothing the program keeps in memory
carries over from one pass to the next.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see tracer.py), with the spans of the first traced pass written to
``.bench_out/`` in the checkout.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics, each metric with the
unit BENCHMARK.json gives it.  The exit code is 1 when any output is wrong
and 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS/OpenMP thread, set before numpy loads.  The program's vectors are
# at most ~16k long, where a second thread only adds synchronisation; one
# thread measured faster (bench/README.md).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from tracer import NullTracer, Tracer  # noqa: E402
from workloads import FAILED, OK, WRONG, WORKLOADS, BenchError  # noqa: E402

SETUP_REPEATS = 11
# Imports mlap1d and generates the inputs in a fresh interpreter.
SETUP_SNIPPET = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import mlap1d, mlap1d.cli, workloads; "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), int(sys.argv[5]))"
)


class ProgramMissing(Exception):
    pass


def load_program():
    """Import mlap1d afresh from the checkout's src/ and return the package."""
    if not (SRC / "mlap1d" / "__init__.py").is_file():
        raise ProgramMissing(f"no mlap1d package under {SRC}")
    for name in [n for n in sys.modules if n == "mlap1d" or n.startswith("mlap1d.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("mlap1d")
    importlib.import_module("mlap1d.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "mlap1d":
        raise ProgramMissing(f"imported mlap1d from {pkg.__file__}, not from {SRC}")
    return pkg


def measure_setup(workload: str, seed: int, passes: int) -> float:
    """Median wall time of a fresh interpreter importing mlap1d and making the inputs."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(BENCH), workload, str(seed),
            str(passes)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, capture_output=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def tail(latencies):
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile with at least ten samples beyond it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    i = max(n - 11, (n - 1) // 2)
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def pass_count(workload_cls, seconds: float, traced: bool) -> int:
    """Passes that take about ``seconds`` of program time at the seed commit.

    The count depends only on ``seconds``, so every run of every commit runs
    the same ops; a traced run needs one untraced and one traced pass.
    """
    return max(2 if traced else 1, round(seconds / workload_cls.nominal_pass_s))


def run_passes(workload, traced: bool):
    """Run the workload's passes back to back.

    Returns (untraced passes, traced passes, first traced pass's spans); a
    pass is a PassResult.  A traced run alternates untraced and traced
    passes.  The run stops at the first wrong answer.
    """
    plain, with_trace, spans = [], [], None
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        for index, inputs in enumerate(workload.passes):
            pkg = load_program()
            gc.collect()  # the previous pass's garbage is not this pass's cost
            passdir = workdir / str(index)
            passdir.mkdir()
            if traced and index % 2 == 1:
                with Tracer(pkg) as tracer:
                    result = workload.run_pass(pkg, inputs, tracer, passdir)
                result.layers = tracer.metrics()
                if spans is None:
                    spans = tracer.span_records()
                with_trace.append(result)
            else:
                result = workload.run_pass(pkg, inputs, NullTracer(), passdir)
                plain.append(result)
            shutil.rmtree(passdir)
            if any(r.outcome == WRONG for r in result.records):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return plain, with_trace, spans


def end_to_end(plain, setup_s):
    ops = [r for p in plain for r in p.records]
    lat = [r.seconds for r in ops]
    ok = sum(r.outcome == OK for r in ops)
    tail_s, pct, beyond = tail(lat)
    notes = {
        "run_s": f"median of {len(plain)} passes",
        "op_s_p50": f"{len(lat)} ops",
        "op_s_tail": f"p{pct:.1f}, {beyond} of {len(lat)} ops beyond",
        "ok_ratio": f"{ok}/{len(ops)} ops",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "peak_rss_mb": "this process",
    }
    values = {
        "run_s": statistics.median(p.program_s for p in plain),
        "op_s_p50": statistics.median(lat),
        "op_s_tail": tail_s,
        "ok_ratio": ok / len(ops),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, notes


def per_layer(plain, with_trace):
    values = {
        name: statistics.median(p.layers[name] for p in with_trace)
        for name in with_trace[0].layers
    }
    values["cli.bytes_written"] = statistics.median(p.bytes_written for p in with_trace)
    values["trace.overhead_s"] = statistics.median(
        p.program_s for p in with_trace
    ) - statistics.median(p.program_s for p in plain)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        load_program()
        cls = WORKLOADS[args.workload]
        passes = pass_count(cls, args.seconds, bool(args.trace))
        workload = cls(args.seed, passes)
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, passes)
        plain, with_trace, spans = run_passes(workload, bool(args.trace))
    except (OSError, ProgramMissing, BenchError, ImportError, subprocess.CalledProcessError) as exc:
        print(f"bench: cannot run mlap1d: {exc}", file=sys.stderr)
        return 2

    passes = plain + with_trace
    ops = [r for p in passes for r in p.records]
    wrong = [r for r in ops if r.outcome == WRONG]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, {len(ops)} ops")
    outcomes = {}
    for r in ops:
        if r.outcome != OK:
            key = f"{r.outcome}: {r.detail if r.outcome != WRONG else r.label}"
            outcomes[key] = outcomes.get(key, 0) + 1
    for key, count in sorted(outcomes.items()):
        print(f"  {count} x {key}")
    for r in wrong:
        print(f"WRONG {r.label}: {r.detail}")

    if not ops or (args.trace and not with_trace):
        metrics, notes = {}, {}  # a wrong answer stopped the run first
    elif args.trace:
        metrics, notes = per_layer(plain, with_trace), {}
        path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")
        print(f"spans of the first traced pass: {path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(plain, setup_s)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")

    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(ops),
                "failed": sum(r.outcome == FAILED for r in ops),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
