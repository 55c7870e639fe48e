"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import brute_force_map, minimax_value, ref_move, ref_start

from infoplay.capacity import capacity_bounds, enumerate_reachable_states, log2_factorial
from infoplay.cli import run as cli_run
from infoplay.entropy import JointCounts, LlrBlock, binary_entropy, mutual_information_plugin
from infoplay.exit_chart import ExitCurve, OPEN, decoding_trajectory, tunnel_analysis
from infoplay.games import DRAW, tic_tac_toe
from infoplay.selfplay import LearnConfig, _evaluate, _Match, _play_episode, elo_win_prob, learn
from infoplay.turbo import ChannelModel, RscCode, bcjr_decode, rsc_encode, simulate_turbo, transmit


@contextmanager
def criterion(cid, text):
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{cid} FAIL: {text}")
        raise
    print(f"[acceptance] C{cid} PASS: {text}")


def test_criterion_1_capacity_bound():
    with criterion(1, "log2(361!) in [2551, 2553] in under 1 ms"):
        log2_factorial(361)  # warm-up (numpy import paths)
        t0 = time.perf_counter()
        value = log2_factorial(361)
        elapsed = time.perf_counter() - t0
        assert 2551.0 <= value <= 2553.0
        assert elapsed < 1e-3


def test_criterion_2_elo_formula():
    with criterion(2, "equal ratings give exactly 0.5; win probs sum to 1 within 1e-12"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        for _ in range(100):
            e = rng.normal(1500, 500)
            c = rng.uniform(1e-4, 1e-1)
            assert elo_win_prob(e, e, c) == 0.5
        for _ in range(10_000):
            a, b = rng.normal(1500, 400, size=2)
            total = elo_win_prob(a, b) + elo_win_prob(b, a)
            assert abs(total - 1.0) <= 1e-12
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_mi_estimator_oracle():
    with criterion(3, "plug-in MI of 1e6 BSC(0.1) samples within 0.01 of 1 - H_b(0.1)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240403)
        n = 10**6
        x = rng.integers(0, 2, n)
        y = x ^ (rng.random(n) < 0.1)
        counts = np.bincount(2 * x + y, minlength=4).reshape(2, 2)
        estimate = mutual_information_plugin(JointCounts(counts)).value
        closed_form = 1.0 - binary_entropy(0.1)
        assert closed_form == pytest.approx(0.531, abs=5e-4)
        assert abs(estimate - closed_form) <= 0.01
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_bcjr_brute_force_equivalence():
    with criterion(4, "BCJR equals exhaustive MAP within 1e-6/bit on 200 noisy blocks"):
        t0 = time.perf_counter()
        code = RscCode(0o7, 0o5, 2)
        channel = ChannelModel(0.0, rate=0.5)
        rng = np.random.default_rng(4)
        for _ in range(200):
            bits = rng.integers(0, 2, 8)
            sys_bits, par_bits = rsc_encode(bits, code)
            rx_sys = transmit(sys_bits, channel, seed=rng.integers(2**32))
            rx_par = transmit(par_bits, channel, seed=rng.integers(2**32))
            la = rng.normal(0.0, 1.0, 8)
            app, _ = bcjr_decode(rx_sys, rx_par, LlrBlock(la, bits), code)
            expected = brute_force_map(rx_sys.llrs, rx_par.llrs, la, 8)
            np.testing.assert_allclose(app.llrs, expected, atol=1e-6)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_5_turbo_waterfall():
    with criterion(5, "100-block rate-1/3 turbo: iterations help at 2 dB and 2 dB beats 0.5 dB"):
        t0 = time.perf_counter()
        ber = {}
        for ebn0 in (2.0, 0.5):
            trace = simulate_turbo(1024, ebn0, 100, max_iters=8, seed=20240810)
            ber[ebn0] = {1: float(trace.ber[:, 0].mean()), 8: float(trace.ber[:, 7].mean())}
        assert ber[2.0][8] <= ber[2.0][1]
        assert ber[2.0][8] < ber[0.5][8]
        assert time.perf_counter() - t0 < 300.0


def test_criterion_6_exit_trajectory_duality():
    with criterion(6, "trajectory converges iff tunnel open; crossing pair stalls at the pinch"):
        t0 = time.perf_counter()
        open_grid = np.linspace(0, 1, 6)
        corpus = {
            "open": (
                ExitCurve(tuple((x, min(1.0, x + 0.2)) for x in open_grid)),
                ExitCurve(tuple((x, x) for x in open_grid)),
            ),
            "identity": (
                ExitCurve(tuple((x, x) for x in np.linspace(0, 1, 11))),
                ExitCurve(tuple((x, x) for x in np.linspace(0, 1, 11))),
            ),
            "crossing": (
                ExitCurve(tuple((x, 0.5 + 0.2 * x) for x in np.linspace(0, 1, 65))),
                ExitCurve(tuple((x, x) for x in np.linspace(0, 1, 65))),
            ),
        }
        for name, (a, b) in corpus.items():
            report = tunnel_analysis(a, b)
            traj = decoding_trajectory(a, b)
            assert traj.converged == (report.status == OPEN), name
        report = tunnel_analysis(*corpus["crossing"])
        traj = decoding_trajectory(*corpus["crossing"])
        grid_resolution = 1 / 64
        assert report.pinch_point[0] == pytest.approx(0.625, abs=grid_resolution)
        assert traj.steps[-1][0] == pytest.approx(report.pinch_point[0], abs=grid_resolution)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_7_state_enumeration():
    with criterion(7, "enumeration counts 5478 tic-tac-toe states; log2 under labeling bound"):
        t0 = time.perf_counter()
        game = tic_tac_toe()
        res = enumerate_reachable_states(game)
        assert res.count == 5478
        assert res.log2_count == pytest.approx(12.42, abs=0.01)
        assert res.log2_count <= 9 * math.log2(3) + 1e-12
        assert 9 * math.log2(3) == pytest.approx(14.26, abs=0.01)
        assert capacity_bounds(game).exact_log2_states == pytest.approx(res.log2_count, abs=1e-12)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_8_selfplay_convergence_and_stopping():
    with criterion(8, "committed config: draws >= 0.9, stopping fires, MI window stable, "
                      "rules agree with the oracle"):
        t0 = time.perf_counter()
        game = tic_tac_toe()
        config = LearnConfig()  # the committed default config
        records, agent_a, agent_b = learn(game, config, seed=11)

        # the stopping rule fired before the generation cap
        assert len(records) < config.generations

        # draw rate over the final 100 evaluation games
        rng = np.random.default_rng(123)
        match = _Match(agent_a, agent_b, game)
        final_eval = _evaluate(match, 100, rng, 0.0)
        assert final_eval.outcomes.count(DRAW) / 100 >= 0.9

        # recorded MI series is non-decreasing over its final window within 0.05
        window = config.stop_window
        for series in ([r.i_ba.value for r in records], [r.i_ab.value for r in records]):
            tail = series[-window:]
            assert all(b >= a - 0.05 for a, b in zip(tail, tail[1:]))

        # oracle cross-check: converged greedy play never leaves the
        # game-theoretic draw (tabular minimax).  Each game is replayed
        # under the oracle's rules, which give every position and its
        # status; the match must agree with both.
        cache = {}
        minimax_value(ref_start(game), game, cache)
        replay_rng = np.random.default_rng(5)
        for _ in range(100):
            sids, moves = _play_episode(match, replay_rng, epsilon=0.0)
            state = ref_start(game)
            for sid, move in zip(sids[1:], moves):  # every state after a move
                state = ref_move(state, move, game)
                assert ((state.position(), state.status)
                        == (match.positions[sid], match.status[sid]))
                assert minimax_value(state, game, cache) == 0
        # the rules: after 100 uniformly random games on the same match,
        # every position it built, each from its parent
        for _ in range(100):
            _play_episode(match, replay_rng, epsilon=1.0)
        ref = {0: ref_start(game)}
        for sid, kids in enumerate(match.child_ids):
            for move, kid in zip(match.moves[sid], kids or ()):
                ref[kid] = ref_move(ref[sid], move, game)
                assert ((ref[kid].position(), ref[kid].status)
                        == (match.positions[kid], match.status[kid]))
        assert time.perf_counter() - t0 < 300.0


def write_config(path, kind, params, seed, name):
    lines = ["[experiment]", f"kind = {kind}", f"seed = {seed}", f"name = {name}", "[params]"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_criterion_9_experiment_determinism(tmp_path):
    with criterion(9, "every experiment kind reruns to byte-identical CSV artifacts"):
        selfplay_params = {
            "generations": 2,
            "episodes_per_generation": 50,
            "eval_episodes": 100,
            "anneal_generations": 2,
        }
        # selfplay runs first so agent-exit has snapshots to chain from
        fixture = cli_run(
            write_config(tmp_path / "sp0.ini", "selfplay", selfplay_params, 5, "fixture"),
            output_dir=tmp_path / "fixture",
        )
        configs = {
            "capacity": {"rows": 3, "cols": 3, "k": 3},
            "turbo": {"n_info": 128, "blocks": 3, "iterations": 3},
            "exit": {"ia_grid": "0,0.4,0.8", "samples_per_point": 1000},
            "selfplay": selfplay_params,
            "agent-exit": {
                "agent_a": str(fixture / "agent_a.txt"),
                "agent_b": str(fixture / "agent_b.txt"),
                "ia_grid": "0,0.5,1.0",
                "episodes": 150,
            },
        }
        for kind, params in configs.items():
            cfg = write_config(tmp_path / f"{kind}.ini", kind, params, 77, kind)
            out1 = cli_run(cfg, output_dir=tmp_path / "run1")
            out2 = cli_run(cfg, output_dir=tmp_path / "run2")
            csvs = sorted(p.name for p in out1.glob("*.csv"))
            assert csvs, kind
            for name in csvs:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (kind, name)
            m1 = json.loads((out1 / "manifest.json").read_text())
            m2 = json.loads((out2 / "manifest.json").read_text())
            assert m1["artifacts"] == m2["artifacts"], kind
