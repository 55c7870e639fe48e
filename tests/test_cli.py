"""Experiment runner: config schema, artifacts, atomicity, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoplay.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    SCHEMAS,
    _game_from_params,
    list_experiments,
    load_config,
    main,
    run,
)
from infoplay import exit_chart, selfplay, turbo
from infoplay.errors import ConfigError
from infoplay.games import GameSpec, tic_tac_toe
from infoplay.selfplay import agent_from_text


def write_config(path: Path, kind: str, params: dict, seed=42, name=None) -> Path:
    lines = ["[experiment]", f"kind = {kind}", f"seed = {seed}"]
    if name:
        lines.append(f"name = {name}")
    lines.append("[params]")
    lines += [f"{k} = {v}" for k, v in params.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


ROOT = Path(__file__).resolve().parent.parent

CAPACITY_PARAMS = {"rows": 3, "cols": 3, "k": 3}
TURBO_PARAMS = {"n_info": 64, "blocks": 2, "iterations": 2}
EXIT_PARAMS = {"ia_grid": "0,0.4,0.8", "samples_per_point": 1000}
SELFPLAY_PARAMS = {
    "generations": 2,
    "episodes_per_generation": 50,
    "eval_episodes": 100,
    "anneal_generations": 2,
}

# a valid snapshot for 3x3-k3; the agent-exit cases below read it as a.txt
# (role A) and b.txt (role B) next to their config
SNAPSHOT = "\n".join([
    "# infoplay-agent-v3",
    "role {role}",
    "game 3x3-k3",
    "V ....A....:B 0.75",
    "O ....A....:B 0:3,8:1",
]) + "\n"

# per kind, params that run in well under a second
SMALL_PARAMS = {
    "capacity": dict(CAPACITY_PARAMS, max_states=10_000),
    "turbo": dict(TURBO_PARAMS, n_info=16, blocks=1),
    "exit": {"ia_grid": "0,0.5", "samples_per_point": 1000},
    "selfplay": dict(SELFPLAY_PARAMS, generations=1, episodes_per_generation=5),
    "agent-exit": {"agent_a": "a.txt", "agent_b": "b.txt", "ia_grid": "0,1", "episodes": 100},
}

_BOARD_VALUES = {"rows": (1, 2, 0, -1), "cols": (1, 2, 0, -1), "k": (1, 2, 0, -2, "full")}

# per kind, values each param is fuzzed with besides "nan", "x" and "2%":
# zero, negatives and edge values, every size kept small
FUZZ_VALUES = {
    "capacity": dict(_BOARD_VALUES, max_states=(10, 0, -1), require_exact=(1, -1)),
    "turbo": {"n_info": (1, 2, 0, -3), "ebn0_db": (0, -5, "inf"), "blocks": (2, 0, -1),
              "iterations": (2, 0, -1), "interleaver": ("s_random", "x"),
              "feedback": ("13", "0", "9"), "feedforward": ("0", "17"), "memory": (1, 3, 0, -1)},
    "exit": {"ebn0_db": (0, -5, "inf"), "rate": (1, 0, -1, 2),
             "ia_grid": ("0.5,0.2", "0", "0,1", "-1,0.5"), "samples_per_point": (999, 0, -1),
             "feedback": ("0",), "feedforward": ("0",), "memory": (1, 0, -1)},
    "selfplay": dict(_BOARD_VALUES, generations=(2, 0, -1), episodes_per_generation=(1, 0, -1),
                     eval_episodes=(99, 0), stop_window=(1, 0, -1), stop_delta=(0, -1, "inf"),
                     step_size=(1, 0, 2, -1), step_size_end=(1, -1, 2),
                     epsilon_start=(0, 1, -1, 2), epsilon_end=(0, -1, 2),
                     anneal_generations=(1, 0, -1), eval_epsilon=(1, -1, 2, "inf")),
    "agent-exit": dict(_BOARD_VALUES,
                       agent_a=("b.txt", "missing.txt", "junk.txt", ".", "a\0.txt"),
                       agent_b=("a.txt", "missing.txt"), ia_grid=("1,0", "0", "-1,2"),
                       episodes=(99, 0, -1)),
}


def fuzzed_overrides(kind: str):
    """``(kind, overrides)`` with up to three params of ``kind`` set to
    fuzz values, to be laid over its small params."""
    pairs = [(name, value) for name, values in FUZZ_VALUES[kind].items()
             for value in (*values, "nan", "x", "2%")]
    return st.tuples(st.just(kind), st.lists(st.sampled_from(pairs), max_size=3).map(dict))


def run_main(kind: str, params: dict) -> int:
    """``main(["run", ...])`` on a config of ``kind`` with ``params``, in a
    fresh directory that also holds the snapshots a.txt and b.txt."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "a.txt").write_text(SNAPSHOT.format(role="A"))
        (tmp / "b.txt").write_text(SNAPSHOT.format(role="B"))
        (tmp / "junk.txt").write_bytes(b"\xff\xfe not a snapshot")
        cfg = write_config(tmp / "c.ini", kind, params)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["run", str(cfg), "--output-dir", str(tmp / "out")])


def run_demo_copy(tmp_path: Path, demo: str) -> str:
    """Run a copy of ``demos/<demo>`` in ``tmp_path`` and return its
    stdout; a demo writes into output/ next to itself, so the copy writes
    nothing into the repository."""
    script = tmp_path / demo
    script.write_bytes((ROOT / "demos" / demo).read_bytes())
    src = str(ROOT / "src")
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True, timeout=600).stdout


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: importing the package must not load it
    src = str(ROOT / "src")
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe = "import sys, infoplay; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


class TestConfigLoading:
    def test_resolves_defaults_and_seed(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "capacity", CAPACITY_PARAMS, seed=7)
        rc = load_config(cfg)
        assert rc.kind == "capacity" and rc.seed == 7
        assert rc.params["require_exact"] == 0  # default filled in

    @pytest.mark.parametrize("raw, k", [("2", 2), ("full", None)])
    def test_k_sets_the_line_length(self, tmp_path, raw, k):
        cfg = write_config(tmp_path / "c.ini", "capacity", {"rows": 2, "cols": 3, "k": raw})
        assert _game_from_params(load_config(cfg).params) == GameSpec(2, 3, k=k)

    @pytest.mark.parametrize("raw", ["x", "Full", "2.0"])
    def test_k_neither_int_nor_full(self, tmp_path, raw):
        cfg = write_config(tmp_path / "c.ini", "capacity", dict(CAPACITY_PARAMS, k=raw))
        with pytest.raises(ConfigError, match="params.k: cannot parse"):
            load_config(cfg)

    def test_missing_required_param(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "capacity", {"rows": 3})
        with pytest.raises(ConfigError, match="cols"):
            load_config(cfg)

    def test_unknown_param(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "capacity", dict(CAPACITY_PARAMS, bogus=1))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(cfg)

    def test_unknown_kind(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "quantum", {})
        with pytest.raises(ConfigError, match="kind"):
            load_config(cfg)

    def test_unparseable_value(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "capacity", dict(CAPACITY_PARAMS, rows="three"))
        with pytest.raises(ConfigError, match="rows"):
            load_config(cfg)

    def test_auto_seed_is_echoed(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nkind = capacity\n[params]\nrows = 3\ncols = 3\n")
        rc = load_config(path)
        assert isinstance(rc.seed, int)


class TestRun:
    def test_capacity_artifacts(self, tmp_path):
        import hashlib

        cfg = write_config(tmp_path / "c.ini", "capacity", CAPACITY_PARAMS, seed=9)
        outdir = run(cfg, output_dir=tmp_path / "out")
        csv = (outdir / "capacity.csv").read_text()
        assert "5478" in csv
        assert csv.startswith("# seed=9\n")
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seed"] == 9
        digest = hashlib.sha256((outdir / "capacity.csv").read_bytes()).hexdigest()
        assert manifest["artifacts"]["capacity.csv"] == digest

    @pytest.mark.parametrize("params,digest", [
        ({"rows": 3, "cols": 3, "k": 3},
         "0cb0182e7518aa03a5e624cc2aaeaaee1838c1c16276671a89f4bc3ac8fcdfd5"),
        ({"rows": 3, "cols": 4, "k": 3, "require_exact": 1},
         "e97ef9c1445877d963e0b416b3d559a0b19fbab0674093b3b2893fe514e5f947"),
        ({"rows": 3, "cols": 4, "k": 4},
         "aa53201d7b9f22bfadc95bbdea3f6956b8a6a19fa1b325b11268e4e2d6a68f03"),
        ({"rows": 2, "cols": 6, "k": 3},
         "947a5818fb3093cf94d24e189824259a3724ead109ec601a452cb6e473d7e867"),
    ])
    def test_capacity_csv_digests(self, tmp_path, params, digest):
        # the four capacity runs of the benchmark's capacity workload, at its
        # seed: a faster enumeration must write the same bytes
        cfg = write_config(tmp_path / "c.ini", "capacity", params, seed=42)
        outdir = run(cfg, output_dir=tmp_path / "out")
        assert hashlib.sha256((outdir / "capacity.csv").read_bytes()).hexdigest() == digest

    def test_demo_runs_regenerate_committed_out(self, tmp_path):
        # the selfplay demo, then the agent-exit demo on its fresh snapshots,
        # reproduce the committed out/ artifacts byte for byte
        configs = ROOT / "demos" / "configs"
        agent_exit = (configs / "agent_exit.ini").read_text()
        agent_exit = agent_exit.replace("../../out/ttt_selfplay/", "ttt_selfplay/")
        assert agent_exit.count("= ttt_selfplay/") == 2
        (tmp_path / "agent_exit.ini").write_text(agent_exit)
        for cfg in (configs / "selfplay.ini", tmp_path / "agent_exit.ini"):
            outdir = run(cfg, output_dir=tmp_path)
            committed = ROOT / "out" / outdir.name
            expected = json.loads((committed / "manifest.json").read_text())["artifacts"]
            manifest = json.loads((outdir / "manifest.json").read_text())
            assert manifest["artifacts"] == expected, outdir.name
            for name, digest in expected.items():
                assert hashlib.sha256((committed / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("demo,outputs", [
        ("selfplay_learning.py", ("generations.csv", "agent_exit.svg")),
        ("exit_tunnel.py", ("exit_+0.8dB.svg", "exit_-4.0dB.svg")),
    ])
    def test_demo_scripts_regenerate_committed_output(self, tmp_path, demo, outputs):
        run_demo_copy(tmp_path, demo)
        for name in outputs:
            committed = ROOT / "demos" / "output" / name
            assert (tmp_path / "output" / name).read_bytes() == committed.read_bytes(), name

    @pytest.mark.parametrize("demo,rows", [
        ("capacity_bounds.py", ("3x3-k3,5478,", "4x4-k4,9722011,")),
        ("turbo_waterfall.py", ()),
    ])
    def test_print_only_demo_scripts_run(self, tmp_path, demo, rows):
        lines = run_demo_copy(tmp_path, demo).splitlines()
        for row in rows:
            assert any(line.startswith(row) for line in lines), row

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "turbo", TURBO_PARAMS, seed=10)
        out1 = run(cfg, output_dir=tmp_path / "o1")
        out2 = run(cfg, output_dir=tmp_path / "o2")
        assert (out1 / "turbo_trace.csv").read_bytes() == (out2 / "turbo_trace.csv").read_bytes()

    def test_exit_svg_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "exit", EXIT_PARAMS, seed=11)
        out1 = run(cfg, output_dir=tmp_path / "o1")
        out2 = run(cfg, output_dir=tmp_path / "o2")
        assert (out1 / "exit_chart.svg").read_bytes() == (out2 / "exit_chart.svg").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "turbo", TURBO_PARAMS, seed=10)
        out1 = run(cfg, output_dir=tmp_path / "o1")
        out2 = run(cfg, output_dir=tmp_path / "o2", seed=11)
        assert (out1 / "turbo_trace.csv").read_text() != (out2 / "turbo_trace.csv").read_text()
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 11

    def test_selfplay_then_agent_exit_chain(self, tmp_path):
        sp_cfg = write_config(tmp_path / "sp.ini", "selfplay", SELFPLAY_PARAMS,
                              seed=12, name="train")
        sp_out = run(sp_cfg, output_dir=tmp_path / "out")
        assert (sp_out / "generations.csv").exists()
        ae_cfg = write_config(
            tmp_path / "ae.ini",
            "agent-exit",
            {
                "agent_a": str(sp_out / "agent_a.txt"),
                "agent_b": str(sp_out / "agent_b.txt"),
                "ia_grid": "0,0.5,1.0",
                "episodes": 150,
            },
            seed=13,
        )
        ae_out = run(ae_cfg, output_dir=tmp_path / "out")
        assert (ae_out / "agent_exit_curves.csv").exists()
        assert (ae_out / "agent_exit_chart.svg").exists()

    def test_board_full_scoring_selfplay_then_agent_exit(self, tmp_path):
        board = {"rows": 1, "cols": 3, "k": "full"}
        out = tmp_path / "out"
        sp_cfg = write_config(tmp_path / "sp.ini", "selfplay", dict(SELFPLAY_PARAMS, **board),
                              name="train")
        assert main(["run", str(sp_cfg), "--output-dir", str(out)]) == EXIT_OK
        for role in "ab":
            assert "\ngame 1x3-full\n" in (out / "train" / f"agent_{role}.txt").read_text()
        assert json.loads((out / "train" / "manifest.json").read_text())["params"]["k"] is None
        ae_cfg = write_config(tmp_path / "ae.ini", "agent-exit",
                              dict(board, agent_a="out/train/agent_a.txt",
                                   agent_b="out/train/agent_b.txt", episodes=100))
        assert main(["run", str(ae_cfg), "--output-dir", str(out)]) == EXIT_OK
        assert (out / "agent-exit" / "agent_exit_curves.csv").exists()

    def test_failed_run_leaves_no_partial_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "agent-exit",
                           {"agent_a": "missing_a.txt", "agent_b": "missing_b.txt"})
        out_base = tmp_path / "out"
        with pytest.raises(FileNotFoundError):
            run(cfg, output_dir=out_base)
        assert list(out_base.iterdir()) == []

    def test_overwrites_previous_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "capacity", CAPACITY_PARAMS, seed=9)
        out1 = run(cfg, output_dir=tmp_path / "out")
        out2 = run(cfg, output_dir=tmp_path / "out")
        assert out1 == out2 and (out2 / "capacity.csv").exists()


class TestMainEntry:
    def test_list_prints_five_kinds(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        kinds = [line for line in out.splitlines() if line and not line.startswith(" ")]
        assert kinds == sorted(SCHEMAS)
        assert len(kinds) == 5

    def test_list_is_stable(self):
        # sha256 of the listing of the schemas as committed; a schema edit must update it
        digest = hashlib.sha256(list_experiments().encode()).hexdigest()
        assert digest == "783da0dffa7e461cc53f0f720a31cab4223e7581c81712884bb8294fa76a53fe"

    def test_schema_grammar(self):
        for line in list_experiments().splitlines():
            if line.startswith("  "):
                body = line[2:].split("  # ")[0]
                name, _, rest = body.partition(": ")
                assert name and rest
                assert rest.split(" ")[0] in ("int", "int_or_full", "float", "str", "octal",
                                              "floats", "path")
                assert "(required)" in rest or "=" in rest

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nkind = nonsense\n")
        assert main(["run", str(bad)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == EXIT_CONFIG

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cap.ini", "capacity",
            dict(CAPACITY_PARAMS, max_states=100, require_exact=1),
        )
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 3
        assert "100 states" in capsys.readouterr().err
        assert not (tmp_path / "out" / "capacity").exists()

    @pytest.mark.parametrize("require_exact", [0, 1])
    @pytest.mark.parametrize("max_states", [-5, 0])
    def test_malformed_state_cap_exit_code(self, tmp_path, capsys, max_states, require_exact):
        cfg = write_config(tmp_path / "cap.ini", "capacity",
                           dict(CAPACITY_PARAMS, max_states=max_states,
                                require_exact=require_exact))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: max_states must be at least 1, got {max_states}\n"

    def test_numerical_contract_exit_code(self, tmp_path, monkeypatch, capsys):
        import infoplay.cli as cli_mod
        from infoplay.errors import NumericalContractError

        def broken(rc, outdir):
            raise NumericalContractError("curve dipped 0.30 beyond tolerance")

        monkeypatch.setitem(cli_mod._RUNNERS, "capacity", broken)
        cfg = write_config(tmp_path / "c.ini", "capacity", CAPACITY_PARAMS)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 4
        assert "numerical contract" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("role A\n", ""),  # no role line
        ("0:3,8:1", "3:x"),  # count not an integer
        ("0:3,8:1", "12:1"),  # move beyond the 9 cells
        ("0:3,8:1", "3:-1"),  # negative count
        ("game 3x3-k3\n", ""),  # no game line
        ("0.75", "high"),  # value not a float
        ("0.75", "0.75\u00e9"),  # not ASCII
        ("....A....:B 0.75", "AAAA.....:B 0.75"),  # stone balance broken
        ("....A....:B 0.75", "....A....:A 0.75"),  # wrong player to move
        ("....A....:B 0.75", ".........:B 0.75"),  # B cannot move first
        ("0:3,8:1", "4:99999999999999999999999"),  # count beyond int64
        ("0:3,8:1", "4:100000"),  # a move on an occupied cell
        ("V ....A....:B 0.75", "V ....A....:B 0.75\nV ....A....:B 0.5"),  # repeated key
        ("O ....A....:B 0:3,8:1", "O ....A....:B 0:3,8:1\nO ....A....:B 1:1"),
        ("# infoplay-agent-v3", "# infoplay-agent-v1"),  # old format, no longer read
        ("0.75", "1e300"),  # a value TD(0) cannot reach
    ])
    def test_malformed_snapshot_exit_code(self, tmp_path, capsys, old, new):
        agent_from_text(SNAPSHOT.format(role="A"), tic_tac_toe())  # valid unedited
        (tmp_path / "a.txt").write_text(SNAPSHOT.format(role="A").replace(old, new, 1),
                                        encoding="utf-8")
        (tmp_path / "b.txt").write_text(SNAPSHOT.format(role="B"))
        cfg = write_config(tmp_path / "ae.ini", "agent-exit",
                           {"agent_a": "a.txt", "agent_b": "b.txt", "episodes": 100})
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    def agent_exit_error(self, tmp_path, capsys, snapshot_a: str) -> str:
        """stderr of a default 3x3-k3 agent-exit run on ``snapshot_a`` as
        agent A, which must exit 2 and write nothing."""
        (tmp_path / "a.txt").write_text(snapshot_a)
        (tmp_path / "b.txt").write_text(SNAPSHOT.format(role="B"))
        cfg = write_config(tmp_path / "ae.ini", "agent-exit",
                           {"agent_a": "a.txt", "agent_b": "b.txt", "episodes": 100})
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert list((tmp_path / "out").iterdir()) == []
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_version_2_snapshot_exit_code(self, tmp_path, capsys):
        # version 2 also held the exploration rate and step size
        v2 = SNAPSHOT.format(role="A").replace("# infoplay-agent-v3", "# infoplay-agent-v2")
        v2 = v2.replace("game 3x3-k3\n", "game 3x3-k3\nstep_size 0.25\nepsilon 0.1\n")
        assert "bad header" in self.agent_exit_error(tmp_path, capsys, v2)

    def test_snapshot_of_another_game_exit_code(self, tmp_path, capsys):
        # the game line is checked before the table keys it would reject
        other = "# infoplay-agent-v3\nrole A\ngame 1x2-k2\nV .A:B 0.5\n"
        err = self.agent_exit_error(tmp_path, capsys, other)
        assert "snapshot is for game '1x2-k2', not '3x3-k3'" in err

    def test_side_that_never_moves_exit_code(self, tmp_path, capsys):
        # on 1x1-k1 A's first stone wins, so agent A has no B move to predict
        for role in "AB":
            (tmp_path / f"{role}.txt").write_text(
                f"# infoplay-agent-v3\nrole {role}\ngame 1x1-k1\n")
        cfg = write_config(tmp_path / "ae.ini", "agent-exit",
                           {"agent_a": "A.txt", "agent_b": "B.txt",
                            "rows": 1, "cols": 1, "k": 1, "episodes": 100})
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "never moved" in err and "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_huge_board_capacity_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "capacity", {"rows": 100_000, "cols": 100_000})
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_OK
        row = (tmp_path / "out" / "capacity" / "capacity.csv").read_text().splitlines()[-1]
        assert row.startswith("100000x100000-k3,,,")

    def test_percent_is_read_literally(self, tmp_path):
        # no interpolation: a bad value holding "%" exits 2, and a name and
        # snapshot paths holding one are kept as written
        assert run_main("capacity", dict(SMALL_PARAMS["capacity"], rows="2%")) == EXIT_CONFIG
        snapshots = tmp_path / "runs" / "50%"
        snapshots.mkdir(parents=True)
        (snapshots / "a.txt").write_text(SNAPSHOT.format(role="A"))
        (snapshots / "b.txt").write_text(SNAPSHOT.format(role="B"))
        params = dict(SMALL_PARAMS["agent-exit"], agent_a="runs/50%/a.txt",
                      agent_b="runs/50%/b.txt")
        cfg = write_config(tmp_path / "c.ini", "agent-exit", params, name="x%y")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "x%y" / "manifest.json").read_text())
        assert manifest["name"] == "x%y"
        assert manifest["params"]["agent_a"] == str(snapshots / "a.txt")

    def test_memory_beyond_cap_exit_code(self, tmp_path, monkeypatch):
        # memory 17 with polynomials valid for it is refused before any
        # trellis over its 2**17 states is built
        def no_trellis(code):
            raise AssertionError(f"trellis built for memory {code.memory}")

        monkeypatch.setattr(turbo, "_Trellis", no_trellis)
        cfg = write_config(tmp_path / "t.ini", "turbo",
                           dict(TURBO_PARAMS, feedback="400001", memory=17))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_out_of_memory_exit_code(self, tmp_path, capsys):
        # the first large array, the (blocks, n_info) bits, needs 8.9 PiB:
        # beyond a 128 TiB address space, so it fails at once under any
        # overcommit mode and touches no memory
        cfg = write_config(tmp_path / "t.ini", "turbo",
                           dict(TURBO_PARAMS, n_info=1000, blocks=10_000_000_000_000))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_refused_shared_mapping_exit_code(self, tmp_path, capfd, monkeypatch):
        # split as on two CPUs: the lower half's 5 x 10**15 x 3 results need
        # a 107 PiB mapping and the whole trace 213 PiB, both beyond a
        # 128 TiB address space, so each is refused at once with nothing
        # mapped, forked or touched
        monkeypatch.setattr(turbo.os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = write_config(tmp_path / "t.ini", "turbo", {"iterations": 10**15})
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_RESOURCE
        out, err = capfd.readouterr()
        assert out == "" and err.startswith("out of memory: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("kind,overrides", [
        ("turbo", {"blocks": 10**20}),
        ("turbo", {"n_info": 2**62}),
        ("turbo", {"iterations": 10**20}),
        ("exit", {"samples_per_point": 10**20}),
        ("selfplay", {"rows": 10**20}),
    ], ids=["turbo-blocks", "turbo-n-info", "turbo-iterations", "exit-samples", "selfplay-rows"])
    def test_size_past_the_address_space_exit_code(self, tmp_path, capfd, monkeypatch,
                                                   kind, overrides):
        # refused before the interleaver, any decode (mmap or fork) or the
        # match's first state is built
        def allocated(*args):
            raise AssertionError("built before the size was refused")

        monkeypatch.setattr(turbo, "random_interleaver", allocated)
        monkeypatch.setattr(exit_chart, "_decode_in_halves", allocated)
        monkeypatch.setattr(selfplay._Match, "_intern", allocated)
        cfg = write_config(tmp_path / "c.ini", kind, overrides)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_RESOURCE
        out, err = capfd.readouterr()
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert "exceeds the address space" in err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("text", [
        b"[experiment]\nkind = selfplay\n[params]\nrows = \xff\xfe\n",
        b"[experiment]\nkind = agent-exit\n[params]\nagent_a = a\0.txt\nagent_b = b.txt\n",
    ], ids=["not-utf-8", "nul-in-path"])
    def test_malformed_config_bytes_exit_code(self, tmp_path, capfd, text):
        (tmp_path / "c.ini").write_bytes(text)
        assert main(["run", str(tmp_path / "c.ini"), "--output-dir", str(tmp_path)]) == EXIT_CONFIG
        out, err = capfd.readouterr()
        assert out == "" and err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.ini"]

    def test_out_of_memory_in_the_forked_half_exit_code(self, tmp_path, capfd, monkeypatch):
        # five blocks split as two in a forked child and three in the caller;
        # decoding the child's two fails, in the child and again when the
        # caller redoes them
        real_fork, real_iterations = os.fork, turbo._turbo_iterations
        forks, caller_rows = [], []

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        def iterations(ls, *args):
            caller_rows.append(ls.shape[0])
            if ls.shape[0] == 2:
                raise MemoryError("injected into the lower half")
            return real_iterations(ls, *args)

        monkeypatch.setattr(turbo.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(turbo, "_FORK_BREAK_EVEN", 1)
        monkeypatch.setattr(turbo.os, "fork", counting_fork)
        monkeypatch.setattr(turbo, "_turbo_iterations", iterations)
        cfg = write_config(tmp_path / "t.ini", "turbo", dict(TURBO_PARAMS, blocks=5))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_RESOURCE
        assert len(forks) == 1 and caller_rows == [3, 2]
        out, err = capfd.readouterr()
        assert out == ""
        assert err == "out of memory: injected into the lower half\n"
        assert list((tmp_path / "out").iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("kind,overrides", [
        ("selfplay", {"rows": 2, "cols": 1, "k": 1}),  # B never moves: no MI estimate
        ("turbo", {"iterations": 0}),
        ("turbo", {"n_info": -3}),
        ("agent-exit", {"agent_a": "missing.txt"}),
        ("selfplay", {"anneal_generations": -1}),
        ("agent-exit", {"agent_a": "b.txt", "agent_b": "a.txt"}),
        ("turbo", {"ebn0_db": 4000}),  # Eb/N0 overflows a float
        ("turbo", {"ebn0_db": -4000}),  # Eb/N0 underflows to zero
        ("exit", {"ebn0_db": 4000}),
        ("exit", {"ebn0_db": -4000}),
    ], ids=["one-side-never-moves", "no-iterations", "negative-n-info", "missing-snapshot",
            "negative-anneal", "swapped-snapshots", "turbo-ebn0-huge", "turbo-ebn0-tiny",
            "exit-ebn0-huge", "exit-ebn0-tiny"])
    def test_unusable_config_exit_code(self, kind, overrides):
        assert run_main(kind, dict(SMALL_PARAMS[kind], **overrides)) == EXIT_CONFIG

    @pytest.mark.parametrize("config_seed,cli_seed", [(-3, None), (42, "-1")],
                             ids=["config", "command-line"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, config_seed, cli_seed):
        cfg = write_config(tmp_path / "c.ini", "turbo", SMALL_PARAMS["turbo"], seed=config_seed)
        argv = ["run", str(cfg), "--output-dir", str(tmp_path / "out")]
        assert main(argv + (["--seed", cli_seed] if cli_seed else [])) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "[experiment]\nkind = turbo\nseeed = 4\n[params]\nblocks = 2\n",
        "[experiment]\nkind = turbo\nseed = 4\nnmae = x\n[params]\nblocks = 2\n",
        "[experiment]\nkind = turbo\nseed = 4\n[parms]\nblocks = 2\n",
        "[DEFAULT]\nseed = 4\n[experiment]\nkind = turbo\n",
    ], ids=["seed", "name", "params", "default"])
    def test_misspelled_config_exit_code(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        (out / "keep").mkdir(parents=True)
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("config error: unknown ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["keep"]

    def test_config_without_params_runs_on_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[experiment]\nkind = turbo\nseed = 4\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "turbo" / "manifest.json").read_text())
        assert manifest["params"] == {
            p.name: int(p.default, 8) if p.kind == "octal" else p.default
            for p in SCHEMAS["turbo"]}

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\0b", None],
                             ids=["empty", "dot", "dotdot", "nested", "nul", "absolute"])
    def test_unsafe_name_exit_code(self, tmp_path, name):
        name = str(tmp_path / "elsewhere") if name is None else name
        out = tmp_path / "out"
        (out / "keep").mkdir(parents=True)
        (out / "keep" / "marker").write_text("kept\n")
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[experiment]\nkind = capacity\nseed = 1\nname = {name}\n"
                       "[params]\nrows = 2\ncols = 2\nk = 2\n")
        assert main(["run", str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
        assert (out / "keep" / "marker").read_text() == "kept\n"
        assert sorted(p.name for p in out.iterdir()) == ["keep"]

    @settings(max_examples=400, deadline=None)
    @given(case=st.sampled_from(sorted(FUZZ_VALUES)).flatmap(fuzzed_overrides))
    def test_fuzzed_config_ends_in_an_exit_code(self, case):
        kind, overrides = case
        assert run_main(kind, dict(SMALL_PARAMS[kind], **overrides)) in (0, 2, 3, 4)

    def test_run_via_main(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", "capacity", CAPACITY_PARAMS, seed=1)
        code = main(["run", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "capacity" / "capacity.csv").exists()
