"""Experiment runner: load a key-value config, dispatch to one of the
library experiments, and write CSV/SVG artifacts plus a checksum manifest.

Config files are INI-style with exactly one nesting level:

    [experiment]
    kind = capacity          ; one of the kinds shown by `infoplay list`
    name = my_run            ; optional output subdirectory (default: kind)
    seed = 42                ; optional; auto-generated and echoed if absent

    [params]
    rows = 3                 ; kind-specific, see `infoplay list`

Artifacts are assembled in a temporary directory and renamed into place
only on success, so a failed run leaves nothing behind.  Identical
resolved config and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import secrets
import shutil
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import capacity as cap
from . import exit_chart as exit_mod
from . import selfplay as sp
from . import turbo as turbo_mod
from .errors import (ConfigError, EstimationError, NumericalContractError, ResourceCapError,
                     ValidationError)
from .games import BOARD_FULL_SCORING, GameSpec, K_IN_A_ROW, PLAYER_A, PLAYER_B

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4


@dataclass(frozen=True)
class Param:
    name: str
    kind: str  # int | float | str | octal | floats | path
    default: object = None
    required: bool = False
    help: str = ""


_BOARD_PARAMS = [Param("rows", "int", 3), Param("cols", "int", 3), Param("k", "int", 3)]

# one param per LearnConfig field, typed by its default
_LEARN_PARAMS = [
    Param(f.name, "int" if isinstance(f.default, int) else "float", f.default)
    for f in fields(sp.LearnConfig)
]

SCHEMAS: dict[str, list[Param]] = {
    "capacity": [
        Param("rows", "int", required=True),
        Param("cols", "int", required=True),
        Param("win", "str", K_IN_A_ROW, help=f"{K_IN_A_ROW} or {BOARD_FULL_SCORING}"),
        Param("k", "int", 3),
        Param("max_states", "int", cap.DEFAULT_STATE_CAP),
        Param("require_exact", "int", 0, help="fail (exit 3) if enumeration blows the cap"),
    ],
    "turbo": [
        Param("n_info", "int", 1024),
        Param("ebn0_db", "float", 2.0),
        Param("blocks", "int", 10),
        Param("iterations", "int", 8),
        Param("interleaver", "str", "uniform", help="uniform or s_random"),
        Param("feedback", "octal", "7"),
        Param("feedforward", "octal", "5"),
        Param("memory", "int", 2),
    ],
    "exit": [
        Param("ebn0_db", "float", 0.8),
        Param("rate", "float", 1.0 / 3.0, help="code rate used for the noise variance"),
        Param("ia_grid", "floats", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"),
        Param("samples_per_point", "int", 10000),
        Param("feedback", "octal", "7"),
        Param("feedforward", "octal", "5"),
        Param("memory", "int", 2),
    ],
    "selfplay": _BOARD_PARAMS + _LEARN_PARAMS,
    "agent-exit": [
        Param("agent_a", "path", required=True, help="snapshot from a selfplay run"),
        Param("agent_b", "path", required=True),
        *_BOARD_PARAMS,
        Param("ia_grid", "floats", "0,0.2,0.4,0.6,0.8,1.0"),
        Param("episodes", "int", 400),
    ],
}


def _parse_value(param: Param, raw: str, config_dir: Path):
    try:
        if param.kind == "int":
            return int(raw)
        if param.kind == "float":
            return float(raw)
        if param.kind == "octal":
            return int(raw, 8)
        if param.kind == "floats":
            return tuple(float(x) for x in raw.split(","))
        if param.kind == "path":
            p = Path(raw)
            return p if p.is_absolute() else config_dir / p
        return raw
    except ValueError as exc:
        raise ConfigError(f"params.{param.name}: cannot parse {raw!r} as {param.kind}") from exc


@dataclass(frozen=True)
class ResolvedConfig:
    kind: str
    name: str
    seed: int
    params: dict


def _check_seed(seed: int) -> int:
    """``seed`` if numpy's ``SeedSequence`` accepts it (>= 0)."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def load_config(path) -> ResolvedConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    kind = exp.get("kind", "")
    if kind not in SCHEMAS:
        raise ConfigError(
            f"experiment.kind must be one of {sorted(SCHEMAS)}, got {kind!r}"
        )
    name = exp.get("name", kind)
    if name in ("", ".", "..") or Path(name).name != name:
        # run() replaces <output-dir>/<name> wholesale
        raise ConfigError(f"experiment.name must be a plain directory name, got {name!r}")
    if "seed" in exp:
        try:
            seed = int(exp["seed"])
        except ValueError as exc:
            raise ConfigError(f"experiment.seed: {exp['seed']!r} is not an integer") from exc
        _check_seed(seed)
    else:
        seed = secrets.randbits(63)  # echoed into the manifest and headers
    raw_params = dict(parser["params"]) if "params" in parser else {}
    schema = {p.name: p for p in SCHEMAS[kind]}
    unknown = set(raw_params) - set(schema)
    if unknown:
        raise ConfigError(f"unknown params for kind {kind!r}: {sorted(unknown)}")
    params = {}
    for p in schema.values():
        if p.name in raw_params:
            params[p.name] = _parse_value(p, raw_params[p.name], path.parent)
        elif p.required:
            raise ConfigError(f"params.{p.name} is required for kind {kind!r}")
        elif isinstance(p.default, str) and p.kind != "str":
            params[p.name] = _parse_value(p, p.default, path.parent)
        else:
            params[p.name] = p.default
    return ResolvedConfig(kind=kind, name=name, seed=seed, params=params)


def _game_from_params(params) -> GameSpec:
    win = params.get("win", K_IN_A_ROW)
    k = params["k"] if win == K_IN_A_ROW else None
    return GameSpec(rows=params["rows"], cols=params["cols"], win_condition=win, k=k)


def _run_capacity(rc: ResolvedConfig, outdir: Path) -> dict:
    game = _game_from_params(rc.params)
    max_states = rc.params["max_states"]
    bound = cap.capacity_bounds(game, max_states=max_states)
    if rc.params["require_exact"] and bound.exact_states is None:
        # exit 3 instead of leaving the field empty
        raise ResourceCapError(
            f"reachable-state enumeration exceeded the cap of {max_states} states"
        )
    (outdir / "capacity.csv").write_text(cap.capacity_csv([bound], seed=rc.seed))
    return {"game_id": bound.game_id, "states": bound.exact_states}


def _run_turbo(rc: ResolvedConfig, outdir: Path) -> dict:
    p = rc.params
    code = turbo_mod.RscCode(p["feedback"], p["feedforward"], p["memory"])
    trace = turbo_mod.simulate_turbo(
        n_info=p["n_info"], ebn0_db=p["ebn0_db"], n_blocks=p["blocks"],
        max_iters=p["iterations"], seed=rc.seed, code=code,
        interleaver_kind=p["interleaver"],
    )
    (outdir / "turbo_trace.csv").write_text(turbo_mod.trace_csv(trace, seed=rc.seed))
    final_ber = float(trace.ber[:, -1].mean())
    return {"blocks": p["blocks"], "final_ber": final_ber}


def _run_exit(rc: ResolvedConfig, outdir: Path) -> dict:
    p = rc.params
    code = turbo_mod.RscCode(p["feedback"], p["feedforward"], p["memory"])
    channel = turbo_mod.ChannelModel(p["ebn0_db"], rate=p["rate"])
    curve = exit_mod.measure_exit_curve(
        code, channel, p["ia_grid"], p["samples_per_point"], seed=rc.seed,
        label=f"bcjr@{p['ebn0_db']}dB",
    )
    report = exit_mod.tunnel_analysis(curve, curve)
    trajectory = exit_mod.decoding_trajectory(curve, curve)
    (outdir / "exit_curve.csv").write_text(exit_mod.exit_curve_csv([curve], seed=rc.seed))
    (outdir / "exit_chart.svg").write_text(
        exit_mod.render_exit_chart(curve, curve, trajectory)
    )
    return {
        "tunnel": report.status,
        "min_gap": report.min_gap,
        "trajectory_converged": trajectory.converged,
    }


def _run_selfplay(rc: ResolvedConfig, outdir: Path) -> dict:
    p = rc.params
    game = _game_from_params(p)
    config = sp.LearnConfig(**{param.name: p[param.name] for param in _LEARN_PARAMS})
    records, agent_a, agent_b = sp.learn(game, config, seed=rc.seed)
    (outdir / "generations.csv").write_text(sp.generation_csv(records, seed=rc.seed))
    sp.save_agent(agent_a, game, outdir / "agent_a.txt")
    sp.save_agent(agent_b, game, outdir / "agent_b.txt")
    last = records[-1]
    return {
        "generations_run": len(records),
        "stopped_early": len(records) < config.generations,
        "final_draw_rate": last.draw_rate,
    }


def _run_agent_exit(rc: ResolvedConfig, outdir: Path) -> dict:
    p = rc.params
    game = _game_from_params(p)
    agent_a = sp.load_agent(p["agent_a"], game)
    agent_b = sp.load_agent(p["agent_b"], game)
    if (agent_a.role, agent_b.role) != (PLAYER_A, PLAYER_B):
        raise ConfigError(f"agent_a and agent_b hold roles {agent_a.role} and "
                          f"{agent_b.role}; they must hold A and B")
    root = np.random.SeedSequence(rc.seed)
    seed_a, seed_b = root.spawn(2)
    curve_a = sp.agent_exit_curve(agent_a, agent_b, game, p["ia_grid"], p["episodes"], seed_a)
    curve_b = sp.agent_exit_curve(agent_b, agent_a, game, p["ia_grid"], p["episodes"], seed_b)
    report = exit_mod.tunnel_analysis(curve_a, curve_b)
    (outdir / "agent_exit_curves.csv").write_text(
        exit_mod.exit_curve_csv([curve_a, curve_b], seed=rc.seed)
    )
    (outdir / "agent_exit_chart.svg").write_text(
        exit_mod.render_exit_chart(curve_a, curve_b)
    )
    return {"tunnel": report.status, "min_gap": report.min_gap}


_RUNNERS = {
    "capacity": _run_capacity,
    "turbo": _run_turbo,
    "exit": _run_exit,
    "selfplay": _run_selfplay,
    "agent-exit": _run_agent_exit,
}


def run(config_path, output_dir=None, seed=None) -> Path:
    """Execute the configured experiment; returns the final artifact
    directory."""
    rc = load_config(config_path)
    if seed is not None:
        rc = replace(rc, seed=_check_seed(int(seed)))
    base = Path(output_dir) if output_dir is not None else Path.cwd()
    base.mkdir(parents=True, exist_ok=True)
    final_dir = base / rc.name
    tmp_dir = Path(tempfile.mkdtemp(prefix=f".{rc.name}.partial-", dir=base))
    try:
        extras = _RUNNERS[rc.kind](rc, tmp_dir)
        manifest = {
            "kind": rc.kind,
            "name": rc.name,
            "seed": rc.seed,
            "params": {k: _manifest_value(v) for k, v in rc.params.items()},
            "artifacts": {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(tmp_dir.iterdir())
            },
            "results": extras,
        }
        (tmp_dir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )
        if final_dir.exists():
            shutil.rmtree(final_dir)
        tmp_dir.rename(final_dir)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return final_dir


def _manifest_value(v):
    if isinstance(v, Path):
        return str(v)
    if isinstance(v, tuple):
        return list(v)
    return v


def list_experiments() -> str:
    """Stable listing of experiment kinds and their parameter schemas.

    Grammar: one unindented line per kind, then one indented line per
    parameter of the form ``name: type (required)`` or
    ``name: type = default``, optionally followed by ``# help``.
    """
    lines = []
    for kind in sorted(SCHEMAS):
        lines.append(kind)
        for p in SCHEMAS[kind]:
            spec = f"  {p.name}: {p.kind}"
            spec += " (required)" if p.required else f" = {p.default}"
            if p.help:
                spec += f"  # {p.help}"
            lines.append(spec)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="infoplay",
        description="Run information-theoretic decoding and self-play experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="path to the INI config")
    run_p.add_argument("--output-dir", default=None, help="artifact directory root")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_parser("list", help="list experiment kinds and parameter schemas")
    args = parser.parse_args(argv)

    if args.command == "list":
        sys.stdout.write(list_experiments())
        return EXIT_OK
    try:
        final_dir = run(args.config, output_dir=args.output_dir, seed=args.seed)
    except (ConfigError, ValidationError, EstimationError, OSError) as exc:
        # so are a game where one side never moves and an unreadable snapshot
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:  # e.g. turbo blocks or EXIT samples too many to hold
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NumericalContractError as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(final_dir)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
