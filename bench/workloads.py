"""The benchmark's workloads: operation lists, per-operation seeds, and the
correctness gate applied to every operation.

An operation is one experiment run through ``infoplay.cli.run`` on a
config this module writes, or one library enumeration.  At
``DEFAULT_SEED`` every operation uses the seed of the committed config it
reproduces, and its artifacts must match digests recorded from the
committed ``out/`` manifests, the turbo trace fixture, or the seed commit.
Any other workload seed derives each operation's seed from the workload
seed and the operation name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from infoplay import capacity, cli
from infoplay.games import GameSpec

DEFAULT_SEED = 0

# The committed selfplay config stops by its plateau rule at generation 51
# at seed 11.  Pinning 51 generations (and a window the rule can never
# fill) gives the same artifacts there and the same work at every seed.
SELFPLAY_GENERATIONS = 51


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # an infoplay experiment kind, or "enumerate"
    seed: int  # the committed config's seed, used at DEFAULT_SEED
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)  # fingerprint key -> sha256 at DEFAULT_SEED
    rows: int = 0  # CSV data rows every seed must produce
    states: int = 0  # exact state count (capacity operations)
    reads: str = ""  # the selfplay operation whose snapshots an agent-exit run reads


EXIT_GRID_POINTS = 10  # the CLI's default I_A grid

WORKLOADS: dict[str, tuple[Op, ...]] = {
    # Nearly all time is in games and selfplay (apply_move, GameState.key);
    # training writes the value tables, evaluation and agent-exit read them.
    "selfplay": (
        Op("ttt_selfplay", "selfplay", 11,
           {"rows": 3, "cols": 3, "k": 3, "generations": SELFPLAY_GENERATIONS,
            "stop_window": SELFPLAY_GENERATIONS + 1},
           expect={
               "generations.csv":
                   "019ef9b8255f71596ee55d2ad77e093e50b5e4b9cc2b668d2baa4d4f5bf8547f",
               "agent_a.txt:tables":
                   "6c7e61dffdfa55d8377f2bb7ce8f5a0aea024a954c94c0be488292a3bd8723da",
               "agent_b.txt:tables":
                   "15383e89d964b25fb60a5de83f86190b20e18b351a4f3dab4e64ebea0585df87",
           },
           rows=SELFPLAY_GENERATIONS),
        Op("ttt_agent_exit", "agent-exit", 43,
           {"ia_grid": "0,0.2,0.4,0.6,0.8,1.0", "episodes": 400},
           expect={
               "agent_exit_curves.csv":
                   "b399977248918e925c1b8f19ebc2348449d8818864457e11fc2dabdd55c17b03",
               "agent_exit_chart.svg":
                   "d3ccdcb747e0c36f26a693622848ad17764ed2608839f3698ea27e3fdfad69f9",
           },
           rows=2 * 6, reads="ttt_selfplay"),
    ),
    # All time is in turbo, exit_chart and entropy; BCJR runs at batch 5,
    # 20 and 200 and on one long block at batch 1.
    "decoder": (
        Op("turbo_fixture", "turbo", 987654321,
           {"n_info": 256, "ebn0_db": 1.5, "blocks": 5, "iterations": 6},
           expect={"turbo_trace.csv":
                   "2dc67b1aecbfe56aa99975de1e8d5db7441a106ec8eca8f28aa73b9dc2dbe95d"},
           rows=5 * 6),
        Op("turbo_2db", "turbo", 42,
           {"n_info": 1024, "ebn0_db": 2.0, "blocks": 20, "iterations": 8},
           expect={"turbo_trace.csv":
                   "6719c873cc77668ef03c6e0254ca5df67e6e05d4973b6aed0a47e0589dfcb1e8"},
           rows=20 * 8),
        Op("turbo_waterfall_1db", "turbo", 7,
           {"n_info": 1024, "ebn0_db": 1.0, "blocks": 200, "iterations": 8},
           expect={"turbo_trace.csv":
                   "d1bcd22560d75ed5b6fd0b49102ea7e8bd501177ea00616e3a1b91376e6f5030"},
           rows=200 * 8),
        Op("turbo_srandom_4096", "turbo", 42,
           {"n_info": 4096, "ebn0_db": 1.0, "blocks": 1, "iterations": 8,
            "interleaver": "s_random"},
           expect={"turbo_trace.csv":
                   "6b5a9bda057e316e89040b9fd74f7485b1dc1027b04829b988863872c06bea8e"},
           rows=8),
        Op("exit_08db", "exit", 42,
           {"ebn0_db": 0.8, "samples_per_point": 20000},
           expect={"exit_curve.csv":
                   "f0ffd4baba14e5282501ca7cfb94691c112a1d5c3eacedf912f454806a90bc1e"},
           rows=EXIT_GRID_POINTS),
        Op("exit_m4db", "exit", 1,
           {"ebn0_db": -4.0, "samples_per_point": 20000},
           expect={"exit_curve.csv":
                   "f0b765d83fa31e31dc122879c6c81a70e9778a2bc2de10da232d11e7b373da2a"},
           rows=EXIT_GRID_POINTS),
    ),
    # Exhaustive games traffic with no RNG and no agents: about 500k
    # states deduplicated through a set, memory growing with the count.
    "capacity": (
        Op("ttt_capacity", "capacity", 42, {"rows": 3, "cols": 3, "k": 3},
           expect={"capacity.csv":
                   "0cb0182e7518aa03a5e624cc2aaeaaee1838c1c16276671a89f4bc3ac8fcdfd5"},
           rows=1, states=5478),
        Op("cap_3x4_k3_exact", "capacity", 42,
           {"rows": 3, "cols": 4, "k": 3, "require_exact": 1},
           expect={"capacity.csv":
                   "e97ef9c1445877d963e0b416b3d559a0b19fbab0674093b3b2893fe514e5f947"},
           rows=1, states=111_973),
        Op("cap_3x4_k4", "capacity", 42, {"rows": 3, "cols": 4, "k": 4},
           expect={"capacity.csv":
                   "aa53201d7b9f22bfadc95bbdea3f6956b8a6a19fa1b325b11268e4e2d6a68f03"},
           rows=1, states=142_231),
        Op("cap_2x6_k3", "capacity", 42, {"rows": 2, "cols": 6, "k": 3},
           expect={"capacity.csv":
                   "947a5818fb3093cf94d24e189824259a3724ead109ec601a452cb6e473d7e867"},
           rows=1, states=126_109),
        Op("enum_3x4_k3_symmetric", "enumerate", 0, {"rows": 3, "cols": 4, "k": 3},
           states=28_275),
    ),
}

# Small configs run once before timing, so lazy set-up inside numpy and
# infoplay is done before the first measured pass.
WARMUP: dict[str, tuple[Op, ...]] = {
    "selfplay": (
        Op("warm_selfplay", "selfplay", 1,
           {"generations": 1, "episodes_per_generation": 20, "eval_episodes": 100}),
        Op("warm_agent_exit", "agent-exit", 1, {"ia_grid": "0,1", "episodes": 100},
           reads="warm_selfplay"),
    ),
    "decoder": (
        Op("warm_turbo", "turbo", 1, {"n_info": 64, "blocks": 2, "iterations": 1}),
        Op("warm_exit", "exit", 1, {"ia_grid": "0,0.5", "samples_per_point": 1000}),
    ),
    "capacity": (
        Op("warm_capacity", "capacity", 1, {"rows": 2, "cols": 3, "k": 3}),
        Op("warm_enumerate", "enumerate", 0, {"rows": 2, "cols": 3, "k": 3}),
    ),
}


def op_seed(workload: str, workload_seed: int, op: Op) -> int:
    if workload_seed == DEFAULT_SEED:
        return op.seed
    text = f"{workload}/{workload_seed}/{op.name}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def _config_text(op: Op, seed: int, params: dict) -> str:
    lines = ["[experiment]", f"kind = {op.kind}", f"name = {op.name}", f"seed = {seed}",
             "", "[params]"]
    lines += [f"{key} = {value}" for key, value in params.items()]
    return "\n".join(lines) + "\n"


def run_op(op: Op, seed: int, workdir: Path, outputs: dict):
    """Run one operation; returns its artifact directory, or the state
    count for a library enumeration.  ``outputs`` holds the artifact
    directories of the operations already run in this pass."""
    if op.kind == "enumerate":
        game = GameSpec(rows=op.params["rows"], cols=op.params["cols"], k=op.params["k"])
        return capacity.enumerate_reachable_states(game, symmetry_reduction=True).count
    params = dict(op.params)
    if op.reads:
        params["agent_a"] = outputs[op.reads] / "agent_a.txt"
        params["agent_b"] = outputs[op.reads] / "agent_b.txt"
    config = workdir / f"{op.name}.ini"
    config.write_text(_config_text(op, seed, params))
    return cli.run(config, output_dir=workdir)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot_tables_digest(text: str) -> str:
    """Digest of an agent snapshot's value (V) and opponent-count (O)
    tables, independent of line order, number formatting and derived rows."""
    rows = []
    for line in text.splitlines():
        tag, _, rest = line.partition(" ")
        key, _, data = rest.partition(" ")
        if tag == "V":
            rows.append(f"V {key} {float(data)!r}")
        elif tag == "O":
            counts = sorted((int(m), int(c)) for m, _, c in
                            (item.partition(":") for item in data.split(",")))
            rows.append(f"O {key} " + ",".join(f"{m}:{c}" for m, c in counts if c))
    return _sha256("\n".join(sorted(rows)).encode())


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _in_unit_interval(rows, columns) -> bool:
    return all(0.0 <= float(row[c]) <= 1.0 for row in rows for c in columns)


def _check_artifacts(op: Op, outdir: Path) -> list[str]:
    """Checks that hold at every seed."""
    problems = []
    if op.kind == "selfplay":
        rows = _csv_rows(outdir / "generations.csv")
        if len(rows) != op.rows:
            problems.append(f"{len(rows)} generations, expected {op.rows}")
        for name in ("agent_a.txt", "agent_b.txt"):
            tags = {line[:2] for line in (outdir / name).read_text().splitlines()}
            if not {"V ", "O "} <= tags:
                problems.append(f"{name} lacks value or opponent-count rows")
    elif op.kind in ("agent-exit", "exit"):
        csv = "agent_exit_curves.csv" if op.kind == "agent-exit" else "exit_curve.csv"
        rows = _csv_rows(outdir / csv)
        if len(rows) != op.rows or not _in_unit_interval(rows, (1, 2)):
            problems.append(f"{csv}: {len(rows)} rows or I_A/I_E outside [0, 1]")
    elif op.kind == "turbo":
        rows = _csv_rows(outdir / "turbo_trace.csv")
        if len(rows) != op.rows or not _in_unit_interval(rows, (2, 3, 4)):
            problems.append(f"turbo_trace.csv: {len(rows)} rows or fields outside [0, 1]")
    elif op.kind == "capacity":
        rows = _csv_rows(outdir / "capacity.csv")
        counts = [int(row[1]) for row in rows if row[1]]
        if counts != [op.states]:
            problems.append(f"state counts {counts}, expected [{op.states}]")
    return problems


def fingerprint(op: Op, result, at_default_seed: bool) -> tuple[dict, list[str]]:
    """Digest every artifact of one operation and run its checks.

    Returns (fingerprint, problems).  The fingerprint maps each artifact
    other than the manifest to its sha256, plus ``<snapshot>:tables`` for
    agent snapshots; two runs of one operation at one seed must give equal
    fingerprints.  Problems is empty when the operation passed.
    """
    if op.kind == "enumerate":
        problems = [] if result == op.states else [f"{result} states, expected {op.states}"]
        return {"states": str(result)}, problems
    outdir = Path(result)
    files = {f.name: _sha256(f.read_bytes()) for f in sorted(outdir.iterdir())
             if f.name != "manifest.json"}
    manifest = json.loads((outdir / "manifest.json").read_text())
    problems = [] if manifest["artifacts"] == files else ["manifest digests differ from files"]
    problems += _check_artifacts(op, outdir)
    prints = dict(files)
    for name in ("agent_a.txt", "agent_b.txt"):
        if name in files:
            prints[f"{name}:tables"] = snapshot_tables_digest((outdir / name).read_text())
    if at_default_seed:
        for key, digest in op.expect.items():
            if prints.get(key) != digest:
                problems.append(f"{key}: digest {prints.get(key)} differs from the recorded one")
    return prints, problems
