"""Self-tests of the benchmark.  They run the benchmark itself, so they
take a few minutes:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
OTHER_SEED = 5


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Boom(Exception):
    pass


@pytest.mark.parametrize("span", [False, True])
def test_wrapper_is_transparent(span):
    tr = tracing.Tracer()
    marker = object()

    def returns(x, *, y):
        return x, y, marker

    def raises():
        raise Boom("from the wrapped function")

    assert tr.wrap(returns, "ok", span)(1, y=2) == (1, 2, marker)
    with pytest.raises(Boom, match="from the wrapped function"):
        tr.wrap(raises, "boom", span)()
    assert (tr.calls("ok"), tr.calls("boom")) == (1, 1)
    assert len(tr._stack) == 1 and tr._span == -1


def test_self_time_excludes_wrapped_children():
    tr = tracing.Tracer()
    inner = tr.wrap(lambda: sum(range(20000)), "inner")
    outer = tr.wrap(lambda: [inner() for _ in range(5)], "outer", span=True)
    outer()
    assert tr.calls("inner") == 5
    assert tr.self_time("outer") == pytest.approx(tr.total("outer") - tr.total("inner"))
    assert 0 < tr.self_time("outer") < tr.total("outer")


def test_declared_names_match_the_code():
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == {**run.SETUP_UNITS, **tracing.TRACE_METRICS,
                                      **run.HEALTH_UNITS}
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)


def test_untraced_run_prints_the_end_to_end_metrics():
    result = _result(_bench("--workload", "capacity", "--seed", str(OTHER_SEED),
                            "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES * len(workloads.WORKLOADS["capacity"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_bench("--workload", workload, "--seed", str(OTHER_SEED),
                                    "--seconds", "1", "--trace", "1"))
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _declared("per_layer")
    counts = [name for name, unit in _declared("per_layer").items() if unit == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "capacity", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_sampler_restores_the_timer_and_handler():
    import signal
    import speed

    previous = signal.getsignal(signal.SIGALRM)
    # an interval shorter than one sample: samples must not nest
    with speed.SpeedSampler(interval=0.001) as sampler:
        sum(i * i for i in range(1_000_000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    samples = sampler.samples
    assert len(samples) >= 3 and all(a[1] <= b[0] for a, b in zip(samples, samples[1:]))
    assert 0 < sampler.raw_s and 0 < sampler.scaled_s
    assert speed.scale(2.0, speed.REFERENCE_S, speed.REFERENCE_S) == 2.0
