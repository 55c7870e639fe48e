"""Call tracing for the benchmark's traced pass.

The tracer sees infoplay from outside: it replaces module attributes with
timing wrappers and changes no file of the package.  A function imported
by name into another module (``from .games import apply_move``) is bound
there separately, so each binding in ``TARGETS`` is wrapped on its own;
all bindings of one function share one key.

Coarse calls (an experiment run, a BCJR call, a training episode) become
spans: name, start, end, parent span and operation id, kept in memory.
The hot leaves, called millions of times, only count calls and add up
time, because one record per call would cost more than the call.  Every
wrapped call adds its duration to the innermost enclosing wrapped call,
so the self time of a key is its time minus that of the wrapped calls it
made.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.tally: defaultdict = defaultdict(float)  # facts recorded by hooks
        self.missing: list[str] = []  # targets this version of infoplay lacks
        self._stack = [[0.0]]  # seconds spent in wrapped children, per open call
        self._span = -1  # index of the innermost open span
        self._op = None

    @contextmanager
    def op(self, name: str):
        """Tag the spans recorded inside the block with operation ``name``."""
        self._op = name
        try:
            yield
        finally:
            self._op = None

    def wrap(self, fn, key: str, span: bool = False, hook=None):
        """Return a wrapper of ``fn`` that records its calls under ``key``.

        The wrapper returns what ``fn`` returns and lets its exceptions
        through.  ``hook(tally, args, kwargs, result, seconds)`` runs after
        each successful call of a span.
        """
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = _clock

        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds = clock() - start
                    stack.pop()
                    stack[-1][0] += seconds
                    stat[0] += 1
                    stat[1] += seconds
                    stat[2] += seconds - frame[0]

            return counted

        spans = self.spans

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            record = [key, 0.0, 0.0, self._span, self._op]
            self._span = len(spans)
            spans.append(record)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                seconds = end - start
                stack.pop()
                stack[-1][0] += seconds
                stat[0] += 1
                stat[1] += seconds
                stat[2] += seconds - frame[0]
                record[1], record[2] = start, end
                self._span = record[3]
            if hook is not None:
                hook(self.tally, args, kwargs, result, seconds)
            return result

        return spanned

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0,))[0]

    def total(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0))[1]

    def self_time(self, *keys: str) -> float:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def spans_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        count = 0
        for record in self.spans:
            if record[0] != name:
                continue
            parent = record[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count


# -- hooks: facts a span's arguments or result carry ---------------------


def _bcjr_hook(tally, args, kwargs, result, seconds):
    batch, steps = args[0].shape  # ls: (blocks, trellis steps)
    tally["turbo.bit_steps"] += batch * steps
    tally[f"turbo.bit_steps.b{batch}"] += batch * steps
    tally[f"turbo.bcjr_s.b{batch}"] += seconds


def _curve_hook(tally, args, kwargs, result, seconds):
    tally["exit_chart.grid_points"] += len(result.points)


def _enumeration_hook(tally, args, kwargs, result, seconds):
    tally["capacity.states_interned"] += result.count


def _evaluation_hook(tally, args, kwargs, result, seconds):
    tally["selfplay.decision_points"] += len(result.actual_a) + len(result.actual_b)


def _snapshot_hook(tally, args, kwargs, result, seconds):
    tally["selfplay.snapshot_bytes"] += len(result.encode())


# (module, attribute, key, span, hook)
TARGETS = [
    ("infoplay.cli", "run", "cli.run", True, None),
    ("infoplay.entropy", "j_inverse", "entropy.j_inverse", True, None),
    ("infoplay.entropy", "j_function", "entropy.j_function", False, None),
    ("infoplay.entropy", "_llr_information", "entropy.llr_information", False, None),
    ("infoplay.turbo", "_llr_information", "entropy.llr_information", False, None),
    ("infoplay.exit_chart", "_llr_information", "entropy.llr_information", False, None),
    ("infoplay.entropy", "mutual_information_plugin", "entropy.mi_plugin", False, None),
    ("infoplay.selfplay", "mutual_information_plugin", "entropy.mi_plugin", False, None),
    ("infoplay.turbo", "_bcjr_batch", "turbo.bcjr", True, _bcjr_hook),
    ("infoplay.exit_chart", "_bcjr_batch", "turbo.bcjr", True, _bcjr_hook),
    ("infoplay.turbo", "rsc_encode", "turbo.encode", False, None),
    ("infoplay.exit_chart", "rsc_encode", "turbo.encode", False, None),
    ("infoplay.turbo", "random_interleaver", "turbo.interleaver", True, None),
    ("infoplay.turbo", "s_random_interleaver", "turbo.interleaver", True, None),
    ("infoplay.turbo", "simulate_turbo", "turbo.simulate", True, None),
    ("infoplay.turbo", "trace_csv", "turbo.output", True, None),
    ("infoplay.exit_chart", "measure_exit_curve", "exit_chart.curve", True, _curve_hook),
    ("infoplay.exit_chart", "tunnel_analysis", "exit_chart.analysis", True, None),
    ("infoplay.exit_chart", "decoding_trajectory", "exit_chart.analysis", True, None),
    ("infoplay.exit_chart", "render_exit_chart", "exit_chart.analysis", True, None),
    ("infoplay.exit_chart", "exit_curve_csv", "exit_chart.analysis", True, None),
    ("infoplay.games", "apply_move", "games.apply_move", False, None),
    ("infoplay.selfplay", "apply_move", "games.apply_move", False, None),
    ("infoplay.capacity", "apply_move", "games.apply_move", False, None),
    ("infoplay.games", "legal_moves", "games.legal_moves", False, None),
    ("infoplay.selfplay", "legal_moves", "games.legal_moves", False, None),
    ("infoplay.capacity", "legal_moves", "games.legal_moves", False, None),
    ("infoplay.games", "GameState.key", "games.state_key", False, None),
    ("infoplay.capacity", "enumerate_reachable_states", "capacity.enumerate", True,
     _enumeration_hook),
    ("infoplay.capacity", "capacity_bounds", "capacity.bounds", True, None),
    ("infoplay.capacity", "capacity_csv", "capacity.output", True, None),
    ("infoplay.selfplay", "learn", "selfplay.learn", True, None),
    ("infoplay.selfplay", "_training_episode", "selfplay.train_episode", True, None),
    ("infoplay.selfplay", "_evaluate", "selfplay.eval_pass", True, _evaluation_hook),
    ("infoplay.selfplay", "agent_exit_curve", "selfplay.agent_exit", True, None),
    ("infoplay.selfplay", "agent_to_text", "selfplay.snapshot", True, _snapshot_hook),
    ("infoplay.selfplay", "load_agent", "selfplay.snapshot", True, None),
    ("infoplay.selfplay", "generation_csv", "selfplay.output", True, None),
]


def install(tracer: Tracer) -> None:
    """Replace every target attribute with a wrapper recording into
    ``tracer``.  A target this version of infoplay lacks is listed in
    ``tracer.missing`` and skipped."""
    for module_name, attribute, key, span, hook in TARGETS:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, name, None)
        if fn is None:
            tracer.missing.append(f"{module_name}.{attribute}")
            continue
        setattr(owner, name, tracer.wrap(fn, key, span, hook))


# name -> unit of every per-layer metric computed from a traced pass
TRACE_METRICS = {
    "cli.run.calls": "count",
    "cli.self_s": "s",
    "entropy.j_inverse.calls": "count",
    "entropy.j_inverse_s": "s",
    "entropy.j_function.calls": "count",
    "entropy.llr_information_s": "s",
    "entropy.mi_plugin.calls": "count",
    "entropy.mi_plugin_s": "s",
    "turbo.bcjr.calls": "count",
    "turbo.bcjr.bit_steps": "count",
    "turbo.bcjr.us_per_bit_step.b1": "us",
    "turbo.bcjr.us_per_bit_step.b20": "us",
    "turbo.bcjr.us_per_bit_step.b200": "us",
    "turbo.encode_s": "s",
    "turbo.interleaver_s": "s",
    "turbo.self_s": "s",
    "exit_chart.curve_s": "s",
    "exit_chart.grid_point_s": "s",
    "exit_chart.bcjr_calls_per_curve": "count",
    "exit_chart.analysis_s": "s",
    "games.apply_move.calls": "count",
    "games.legal_moves.calls": "count",
    "games.state_key.calls": "count",
    "games.apply_move_us": "us",
    "games.self_s": "s",
    "capacity.enumerations": "count",
    "capacity.useful_ratio": "fraction",
    "capacity.states_interned": "count",
    "capacity.states_per_s": "1/s",
    "capacity.self_s": "s",
    "selfplay.generations": "count",
    "selfplay.train_episodes": "count",
    "selfplay.decision_points": "count",
    "selfplay.train_episode_us": "us",
    "selfplay.eval_pass_s": "s",
    "selfplay.agent_exit_s": "s",
    "selfplay.snapshot_s": "s",
    "selfplay.snapshot_bytes": "bytes",
    "selfplay.self_s": "s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def trace_metrics(tr: Tracer, capacity_results: int) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed as in TRACE_METRICS.

    ``capacity_results`` is the number of state counts the pass reported;
    against the enumerations run it gives the capacity layer's useful
    ratio.  A layer the workload never calls reads 0.
    """
    t = tr.tally
    enumerations = tr.calls("capacity.enumerate")
    values = {
        "cli.run.calls": tr.calls("cli.run"),
        "cli.self_s": tr.self_time("cli.run"),
        "entropy.j_inverse.calls": tr.calls("entropy.j_inverse"),
        "entropy.j_inverse_s": tr.total("entropy.j_inverse"),
        "entropy.j_function.calls": tr.calls("entropy.j_function"),
        "entropy.llr_information_s": tr.total("entropy.llr_information"),
        "entropy.mi_plugin.calls": tr.calls("entropy.mi_plugin"),
        "entropy.mi_plugin_s": tr.total("entropy.mi_plugin"),
        "turbo.bcjr.calls": tr.calls("turbo.bcjr"),
        "turbo.bcjr.bit_steps": int(t["turbo.bit_steps"]),
        "turbo.encode_s": tr.total("turbo.encode"),
        "turbo.interleaver_s": tr.total("turbo.interleaver"),
        "turbo.self_s": tr.self_time("turbo.simulate", "turbo.output"),
        "exit_chart.curve_s": tr.total("exit_chart.curve"),
        "exit_chart.grid_point_s": _ratio(tr.total("exit_chart.curve"),
                                          t["exit_chart.grid_points"]),
        "exit_chart.bcjr_calls_per_curve": _ratio(
            tr.spans_under("turbo.bcjr", "exit_chart.curve"), tr.calls("exit_chart.curve")),
        "exit_chart.analysis_s": tr.total("exit_chart.analysis"),
        "games.apply_move.calls": tr.calls("games.apply_move"),
        "games.legal_moves.calls": tr.calls("games.legal_moves"),
        "games.state_key.calls": tr.calls("games.state_key"),
        "games.apply_move_us": 1e6 * _ratio(tr.total("games.apply_move"),
                                            tr.calls("games.apply_move")),
        "games.self_s": tr.self_time("games.apply_move", "games.legal_moves",
                                     "games.state_key"),
        "capacity.enumerations": enumerations,
        "capacity.useful_ratio": _ratio(capacity_results, enumerations),
        "capacity.states_interned": int(t["capacity.states_interned"]),
        "capacity.states_per_s": _ratio(t["capacity.states_interned"],
                                        tr.total("capacity.enumerate")),
        "capacity.self_s": tr.self_time("capacity.enumerate", "capacity.bounds",
                                        "capacity.output"),
        "selfplay.generations": tr.calls("selfplay.eval_pass"),
        "selfplay.train_episodes": tr.calls("selfplay.train_episode"),
        "selfplay.decision_points": int(t["selfplay.decision_points"]),
        "selfplay.train_episode_us": 1e6 * _ratio(tr.total("selfplay.train_episode"),
                                                  tr.calls("selfplay.train_episode")),
        "selfplay.eval_pass_s": tr.total("selfplay.eval_pass"),
        "selfplay.agent_exit_s": tr.total("selfplay.agent_exit"),
        "selfplay.snapshot_s": tr.total("selfplay.snapshot"),
        "selfplay.snapshot_bytes": int(t["selfplay.snapshot_bytes"]),
        "selfplay.self_s": tr.self_time(
            "selfplay.learn", "selfplay.train_episode", "selfplay.eval_pass",
            "selfplay.agent_exit", "selfplay.snapshot", "selfplay.output"),
    }
    for batch in (1, 20, 200):
        values[f"turbo.bcjr.us_per_bit_step.b{batch}"] = 1e6 * _ratio(
            t[f"turbo.bcjr_s.b{batch}"], t[f"turbo.bit_steps.b{batch}"])
    return values
