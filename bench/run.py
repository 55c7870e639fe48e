#!/usr/bin/env python3
"""The infoplay benchmark: run one workload, check every operation, and
print its metrics.

Run from the repository root:

    python3 bench/run.py --workload selfplay --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics: the median wall time of the
workload's operation list over as many passes as fit in ``--seconds``
(at least two), the median start-up time of fresh interpreters importing
``infoplay.cli``, and the process's peak RSS.  Both times are restated at
a reference machine speed, measured by a calibration kernel timed during
each pass and in each started interpreter (see ``speed.py``), since the
host's speed drifts by up to 2x while a run lasts.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run (software versions, load
average, samples, failures and, when traced, every span) is written to
``.bench_out/``; artifacts live in ``.bench_tmp/`` while the run lasts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
RECORDS = ROOT / ".bench_out"
WORKLOAD_NAMES = ("selfplay", "decoder", "capacity")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_STARTS = 7  # single starts spread widely; setup_s is their median
MIN_PASSES = 2  # a second pass also checks that the artifacts reproduce
IMPORTTIME_STARTS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_UNITS = {
    "setup.interpreter_s": "s",
    "setup.import_numpy_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_infoplay_s": "s",
}
HEALTH_UNITS = {"process.cpu_s": "s", "trace.overhead_frac": "fraction",
                "error_rate": "fraction"}

_SIGNAL_READY = "import sys; sys.stdout.write('.'); sys.stdout.flush()"
# Run in the child after it has signalled: the calibration kernel's median
# time, on the child's CPU at that moment (see speed.py).
_KERNEL_AFTER = (f"sys.path.insert(0, {str(BENCH)!r}); import speed, statistics; "
                 "print(statistics.median(speed.kernel() for _ in range(3)))")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_start(code: str) -> tuple[float, float]:
    """Seconds from launching a fresh interpreter until it has run ``code``,
    and the seconds the calibration kernel took in it right after."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", f"{code}; {_SIGNAL_READY}; {_KERNEL_AFTER}"],
                          stdout=subprocess.PIPE, env=_child_env()) as proc:
        ready = proc.stdout.read(1)
        seconds = time.perf_counter() - start
        kernel = proc.stdout.read()
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"interpreter running {code!r} exited with {proc.returncode}")
    return seconds, float(kernel)


def median_start(code: str, starts: int) -> float:
    """Median start time, each start restated at the reference speed by
    the kernel time measured in the same interpreter."""
    import speed

    time_start(code)  # untimed: fills the page cache and writes bytecode
    return statistics.median(speed.scale(seconds, kernel, kernel)
                             for seconds, kernel in (time_start(code) for _ in range(starts)))


def import_seconds() -> dict[str, float]:
    """Import time of numpy, scipy and infoplay in a fresh interpreter, from
    ``-X importtime``: the self time of every module of each package."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import infoplay.cli"],
                          capture_output=True, text=True, env=_child_env(), check=True)
    totals = {"numpy": 0.0, "scipy": 0.0, "infoplay": 0.0}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) / 1e6
    return totals


def setup_metrics(trace: bool) -> dict[str, float]:
    if not trace:
        return {"setup_s": median_start("import infoplay.cli", SETUP_STARTS)}
    runs = [import_seconds() for _ in range(IMPORTTIME_STARTS)]
    return {
        "setup.interpreter_s": median_start("pass", SETUP_STARTS),
        **{f"setup.import_{package}_s": statistics.median(run[package] for run in runs)
           for package in ("numpy", "scipy", "infoplay")},
    }


def run_pass(wl, workload: str, seed: int, workdir: Path, tracer=None, ops=None,
             sampler=None):
    """Run the workload's operation list once and check every operation.

    Returns (wall seconds, CPU seconds, {operation: (fingerprint, problems)}).
    Only running the operations is timed; checking them is not.  A
    ``sampler`` (``speed.SpeedSampler``) runs around the operations, and
    its time is part of the wall and CPU seconds returned.
    """
    ops = wl.WORKLOADS[workload] if ops is None else ops
    passdir = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    outputs = {}
    cpu_start, start = time.process_time(), time.perf_counter()
    with sampler or nullcontext():
        for op in ops:
            try:
                with tracer.op(op.name) if tracer else nullcontext():
                    outputs[op.name] = wl.run_op(op, wl.op_seed(workload, seed, op), passdir,
                                                 outputs)
            except Exception:  # one failed operation is counted, not fatal
                traceback.print_exc()
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    results = {}
    for op in ops:
        if op.name not in outputs:
            results[op.name] = (None, ["raised"])
            continue
        try:
            results[op.name] = wl.fingerprint(op, outputs[op.name], seed == wl.DEFAULT_SEED)
        except Exception as exc:  # unreadable or missing artifacts
            results[op.name] = (None, [f"check failed: {exc!r}"])
    shutil.rmtree(passdir)
    return wall, cpu, results


def tally_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over passes of one workload at one
    seed; every pass must also reproduce the first pass's artifacts."""
    attempted, failed, messages = 0, 0, []
    for number, results in enumerate(passes):
        for name, (prints, problems) in results.items():
            first = passes[0][name][0]
            if prints is not None and first is not None and prints != first:
                problems = problems + ["artifacts differ from the first pass"]
            attempted += 1
            if problems:
                failed += 1
                messages.append(f"pass {number} {name}: {'; '.join(problems)}")
    return attempted, failed, messages


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def software() -> dict:
    import infoplay

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "infoplay": infoplay.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def measure(args, workdir: Path) -> dict:
    load_start = os.getloadavg()
    setup = setup_metrics(args.trace)
    # imported only now: the BLAS thread variables must be set before numpy loads
    sys.path.insert(0, str(SRC))
    import speed
    import tracer as tracing
    import workloads as wl

    run_pass(wl, args.workload, 1, workdir, ops=wl.WARMUP[args.workload])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "software": software()}
    if args.trace:
        wall, cpu, untraced = run_pass(wl, args.workload, args.seed, workdir)
        tr = tracing.Tracer()
        tracing.install(tr)
        traced_wall, _, traced = run_pass(wl, args.workload, args.seed, workdir, tracer=tr)
        passes = [untraced, traced]
        capacity_results = sum(1 for op in wl.WORKLOADS[args.workload]
                               if op.states and traced[op.name][0] is not None)
        metrics = {**setup, **tracing.trace_metrics(tr, capacity_results),
                   "process.cpu_s": cpu,
                   "trace.overhead_frac": (traced_wall - wall) / wall}
        units = {**SETUP_UNITS, **tracing.TRACE_METRICS, **HEALTH_UNITS}
        record.update(walls={"untraced": wall, "traced": traced_wall},
                      stats=tr.stats, missing_targets=tr.missing,
                      spans=[dict(zip(("name", "start", "end", "parent", "op"), s))
                             for s in tr.spans])
    else:
        walls, raw_walls, slowdowns, cpus, passes = [], [], [], [], []
        begin = time.perf_counter()
        while True:
            started = time.perf_counter()
            sampler = speed.SpeedSampler()
            _, cpu, results = run_pass(wl, args.workload, args.seed, workdir, sampler=sampler)
            walls.append(sampler.scaled_s)
            raw_walls.append(sampler.raw_s)
            slowdowns.append(sampler.slowdown)
            cpus.append(cpu)
            passes.append(results)
            now = time.perf_counter()
            if len(walls) >= MIN_PASSES and now - begin + (now - started) > args.seconds:
                break
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"wall_s": statistics.median(walls), **setup, "peak_rss_mb": peak_kib / 1024}
        units = END_TO_END_UNITS
        record.update(walls=walls, raw_walls=raw_walls, slowdowns=slowdowns,
                      cpu_s_with_samples=cpus)
    attempted, failed, messages = tally_failures(passes)
    if args.trace:
        metrics["error_rate"] = failed / attempted
    record.update(load_average={"start": load_start, "end": os.getloadavg()},
                  failures=messages)
    for message in messages:
        print(f"bench: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces the committed configs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "infoplay" / "cli.py").is_file():
        print(f"bench: no infoplay sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    os.environ["TMPDIR"] = str(workdir)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
