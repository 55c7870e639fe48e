"""Self-play agents, cross-MI measurement, Elo, learning loop, snapshots."""

import copy
import functools
import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoplay.capacity import enumerate_reachable_states
from infoplay.entropy import _seed_sequence
from infoplay.errors import EstimationError, ValidationError
from infoplay.exit_chart import tunnel_analysis
from infoplay.games import (
    A_WINS,
    B_WINS,
    DRAW,
    GameSpec,
    ONGOING,
    tic_tac_toe,
)
from infoplay.selfplay import (
    _DRAW_BLOCK,
    _TIE_TOL,
    AgentModel,
    _Draws,
    EvaluationResult,
    LearnConfig,
    _Match,
    _evaluate,
    _generation_record,
    _paired_mi,
    _play_episode,
    _snapshot_key,
    _stop_rule_fires,
    _training_episode,
    agent_exit_curve,
    agent_from_text,
    agent_to_text,
    elo_update,
    elo_win_prob,
    generation_csv,
    learn,
)

from oracles import RefState, minimax_value, ref_move, ref_moves, ref_start

GAME = tic_tac_toe()


class RefTable:
    """The states of ``game`` by id in order of first sight, built by the
    reference rules alone (``ref_start``, ``ref_moves``, ``ref_move``), with
    each state's position as the oracle computes it: the reference for the
    match's interning, and the table the reference loops below walk."""

    def __init__(self, game):
        self.game = game
        self.states, self.positions, self.moves, self.child_ids, self._ids = [], [], [], [], {}
        self.intern(ref_start(game))

    def intern(self, state):
        sid = self._ids.get(state)
        if sid is None:
            sid = self._ids[state] = len(self.states)
            self.states.append(state)
            self.positions.append(state.position())
            ongoing = state.status == ONGOING
            self.moves.append(tuple(ref_moves(state)) if ongoing else ())
            self.child_ids.append(None)
        return sid

    def children(self, sid):
        if self.child_ids[sid] is None:
            state, game = self.states[sid], self.game
            self.child_ids[sid] = tuple(self.intern(ref_move(state, m, game))
                                        for m in self.moves[sid])
        return self.child_ids[sid]


def interner(game):
    return RefTable(game)


def walk(table, limit=math.inf):
    """Expand the states of ``table`` in id order, which interns their
    children as the walk goes, until all are expanded or ``limit`` are."""
    sid = 0
    while sid < min(len(table.positions), limit):
        table.children(sid)
        sid += 1
    return table


def _reachable_positions(game):
    return walk(interner(game)).positions


_REACHABLE_POSITIONS = _reachable_positions(GAME)

QUICK_CONFIG = LearnConfig(
    generations=6, episodes_per_generation=200, eval_episodes=100, anneal_generations=4
)

# sha256 of generation_csv and of both agents' sorted V/O tables after
# learn(GAME, QUICK_CONFIG, seed=31), recorded before self-play moved from
# GameState objects onto interned state ids: the refactor must not move a
# single draw of the random stream
QUICK_SEED31_CSV_SHA256 = "3e9a809ba45fe4a2e2c84431c97cfe3c59d9d9fa99bcc3942a9c4334dac31a54"
QUICK_SEED31_TABLES_SHA256 = "33d250029f02f8d29dff94e70c9f0a6a750967c05260d9af10d2812d0207820c"


def text_key(position, cells):
    """The oracle's text key of ``position``, read cell by cell."""
    return RefState(tuple(1 if position >> i & 1 else 2 if position >> cells + i & 1 else 0
                          for i in range(cells))).key()


def tables_text(game, *agents):
    """Both tables of each agent, one sorted row per entry under the
    oracle's text key."""
    rows = []
    for agent in agents:
        value = {text_key(p, game.cells): v for p, v in agent.value.items()}
        counts = {text_key(p, game.cells): row for p, row in agent.opponent_counts.items()}
        for key in sorted(value):
            rows.append(f"{agent.role} V {key} {value[key]!r}")
        for key in sorted(counts):
            packed = ",".join(f"{m}:{int(c)}" for m, c in enumerate(counts[key]) if c)
            rows.append(f"{agent.role} O {key} {packed}")
    return "\n".join(rows)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestEloWinProb:
    def test_equal_ratings_exact_half(self):
        for e in (0.0, 1000.0, -3.5, 2700.0):
            assert elo_win_prob(e, e, 1 / 400) == 0.5

    def test_direct_values(self):
        assert elo_win_prob(1800, 1400, 1 / 400) == pytest.approx(1 / (1 + 10**-1), abs=1e-4)
        assert elo_win_prob(1800, 1400, 1 / 400) == pytest.approx(0.9091, abs=1e-4)
        assert elo_win_prob(1600, 1400, 1 / 400) == pytest.approx(0.7597, abs=1e-4)

    def test_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a, b = rng.normal(1500, 400, size=2)
            assert elo_win_prob(a, b) + elo_win_prob(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_translation_invariance(self):
        for t in (-500.0, 123.4, 10000.0):
            assert elo_win_prob(1600 + t, 1400 + t) == pytest.approx(
                elo_win_prob(1600, 1400), abs=1e-12
            )

    def test_bad_scale_rejected(self):
        with pytest.raises(ValidationError):
            elo_win_prob(1500, 1500, 0.0)

    @pytest.mark.parametrize("c_elo", [float("nan"), math.inf])
    def test_scale_that_is_no_number_rejected(self, c_elo):
        with pytest.raises(ValidationError, match="c_elo"):
            elo_win_prob(1500, 1500, c_elo)


class TestEloUpdate:
    def test_draw_between_equals_changes_nothing(self):
        assert elo_update(1500, 1500, DRAW, k_factor=32) == (1500, 1500)

    def test_win_between_equals_moves_half_k(self):
        e_a, e_b = elo_update(1500, 1500, A_WINS, k_factor=32)
        assert e_a == 1516 and e_b == 1484

    def test_rating_sum_conserved(self):
        rng = np.random.default_rng(9)
        e_a, e_b = 1500.0, 1300.0
        outcomes = [A_WINS, B_WINS, DRAW]
        for _ in range(1000):
            e_a, e_b = elo_update(e_a, e_b, outcomes[rng.integers(3)], k_factor=24)
        assert e_a + e_b == pytest.approx(2800.0, abs=1e-6)

    def test_bad_k_rejected(self):
        with pytest.raises(ValidationError):
            elo_update(1500, 1500, DRAW, k_factor=0)

    @pytest.mark.parametrize("k_factor", [float("nan"), math.inf])
    def test_k_that_is_no_number_rejected(self, k_factor):
        with pytest.raises(ValidationError, match="k_factor"):
            elo_update(0, 0, DRAW, k_factor=k_factor)


TABLE_GAMES = (
    tic_tac_toe(),
    GameSpec(rows=3, cols=4, k=4),
    GameSpec(rows=1, cols=3, k=None),
)


def seated(game):
    """A ``_Match`` of two fresh agents on ``game``."""
    return _Match(AgentModel(role="A"), AgentModel(role="B"), game)


@st.composite
def small_games(draw):
    """A board of up to 3 x 4 cells, k-in-a-row for any valid k or scored
    when full."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    k = draw(st.one_of(st.none(), st.integers(1, max(rows, cols))))
    if k is None:
        return GameSpec(rows, cols, k=None)
    return GameSpec(rows, cols, k=k)


class TestMatchInterning:
    @settings(max_examples=40, deadline=None)
    @given(game=small_games())
    @example(game=GameSpec(1, 1, k=1))
    @example(game=GameSpec(1, 1, k=None))
    @example(game=GameSpec(3, 4, k=3))
    def test_walk_agrees_with_the_rules(self, game):
        # the 3 x 4 boards of k >= 2 hold 10,562 to 143,365 states; a walk
        # of their first ids keeps the test short
        match, ref = walk(seated(game), 6_100), walk(interner(game), 6_100)
        assert match.positions == ref.positions
        assert match.moves == ref.moves
        assert match.child_ids == ref.child_ids
        assert match.status == [state.status for state in ref.states]

    @pytest.mark.parametrize("game, count", [(GAME, 5478), (GameSpec(3, 4, k=3), 111_973)],
                             ids=lambda x: getattr(x, "game_id", x))
    def test_a_full_walk_interns_every_reachable_state(self, game, count):
        match = walk(seated(game))
        assert len(match.positions) == enumerate_reachable_states(game).count == count
        assert None not in match.child_ids

    @settings(max_examples=200, deadline=None)
    @given(game=st.sampled_from(TABLE_GAMES),
           picks=st.lists(st.integers(min_value=0, max_value=11), max_size=12))
    def test_table_agrees_with_the_rules(self, game, picks):
        # walk a random legal line through both the match and the rules
        match = seated(game)
        state, sid = ref_start(game), 0
        for pick in [*picks, None]:
            assert match.positions[sid] == state.position()
            assert match.status[sid] == state.status
            assert (not match.moves[sid]) == (state.status != ONGOING)
            if state.status != ONGOING:
                assert match.moves[sid] == ()
                break
            moves = ref_moves(state)
            assert list(match.moves[sid]) == moves
            for move, kid in zip(moves, match.children(sid)):
                assert match.positions[kid] == ref_move(state, move, game).position()
            if pick is None:
                break
            i = pick % len(moves)
            state, sid = ref_move(state, moves[i], game), match.children(sid)[i]

    def test_ids_follow_first_sight(self):
        match = seated(tic_tac_toe())
        assert len(match.positions) == 1 and match.child_ids == [None]
        assert match.children(0) == tuple(range(1, 10))
        assert len(match.positions) == 10

    @pytest.mark.parametrize("game", TABLE_GAMES, ids=lambda game: game.game_id)
    def test_every_interned_state_is_seated_from_its_agents_dicts(self, game):
        # both agents hold entries, distinct from each other, at most of the
        # first 200 states, so an entry read from the wrong agent shows; a
        # state belongs to A when A has one more stone than B, else to B
        cells, agent_a, agent_b = game.cells, AgentModel(role="A"), AgentModel(role="B")
        for i, p in enumerate(walk(seated(game), 200).positions):
            if i % 3:
                agent_a.value[p], agent_b.value[p] = float(i), -float(i)
            if i % 4:
                agent_a.opponent_counts[p] = [i] + [0] * (cells - 1)
                agent_b.opponent_counts[p] = [0] * (cells - 1) + [i + 1]
        match = walk(_Match(agent_a, agent_b, game), 200)  # children() interns as it goes
        assert match.agents[0] is agent_a and match.agents[1] is agent_b
        assert len(match.value) == len(match.updated) == len(match.counts)
        assert len(match.value) == len(match.positions)
        assert not any(match.updated)
        owners = [agent_a if (p & (1 << cells) - 1).bit_count() > (p >> cells).bit_count()
                  else agent_b for p in match.positions]
        assert match.value == [o.value.get(p, 0.0) for o, p in zip(owners, match.positions)]
        assert match.counts == [o.opponent_counts.get(p)
                                for o, p in zip(owners, match.positions)]
        for agent in match.agents:
            owned = [i for i, owner in enumerate(owners) if owner is agent]
            assert any(match.value[i] for i in owned)
            assert any(match.counts[i] is not None for i in owned)

    @pytest.mark.parametrize("role", ["A", "B"])
    def test_two_agents_of_one_role_are_rejected(self, role):
        with pytest.raises(ValidationError):
            _Match(AgentModel(role=role), AgentModel(role=role), GAME)

    def test_agents_sit_by_role_in_either_argument_order(self):
        runs = []
        for swapped in (False, True):
            agent_a, agent_b, _ = fixed_line_agents([0, 4, 8, 1, 7, 2, 6])
            match = _Match(*((agent_b, agent_a) if swapped else (agent_a, agent_b)), GAME)
            assert match.agents[0] is agent_a and match.agents[1] is agent_b
            path = _play_episode(match, np.random.default_rng(7), 0.3)
            rng = np.random.default_rng(8)
            for _ in range(20):
                _training_episode(match, rng, 0.3, 0.5)
            match.write_back()
            # each agent's dicts hold only its own afterstates (A's: one
            # more A stone than B's; B's: equal counts), which are also the
            # states where the other agent's moves are observed
            for agent, surplus in ((agent_a, 1), (agent_b, 0)):
                for position in agent.value.keys() | agent.opponent_counts.keys():
                    n_b = (position >> GAME.cells).bit_count()
                    assert (position & (1 << GAME.cells) - 1).bit_count() - n_b == surplus
            runs.append((path, agent_a, agent_b))
        assert runs[0] == runs[1]


def play(match, seed, epsilon):
    """One ``_play_episode`` game of ``match`` at exploration rate
    ``epsilon`` from a fresh seeded stream: the moves played and the
    outcome."""
    sids, moves = _play_episode(match, np.random.default_rng(seed), epsilon)
    return moves, match.status[sids[-1]]


class TestSelfPlayEpisode:
    def test_reproducible_given_seed(self):
        a, b = AgentModel(role="A"), AgentModel(role="B")
        moves1, final1 = play(_Match(a, b, GAME), seed=5, epsilon=0.1)
        moves2, final2 = play(_Match(a, b, GAME), seed=5, epsilon=0.1)
        assert moves1 == moves2 and final1 == final2
        assert final1 in (A_WINS, B_WINS, DRAW)

    def test_stone_balance_on_every_transcript_state(self):
        match = _Match(AgentModel(role="A"), AgentModel(role="B"), GAME)
        for seed in range(50):
            sids, moves = _play_episode(match, np.random.default_rng(seed), 0.1)
            assert len(sids) == len(moves) + 1
            for ply, sid in enumerate(sids):
                position = match.positions[sid]
                n_a = (position & (1 << GAME.cells) - 1).bit_count()
                n_b = (position >> GAME.cells).bit_count()
                # the players alternate, A first
                assert n_a - n_b == ply % 2

    def test_minimax_agent_never_loses_to_random(self):
        cache = {}
        minimax_value(ref_start(GAME), GAME, cache)
        oracle = AgentModel(role="A", value=dict(cache))
        # greedy play: B's untrained values tie every move, so B plays uniformly
        rando = AgentModel(role="B")
        match = _Match(oracle, rando, GAME)
        losses = sum(play(match, seed=s, epsilon=0.0)[1] == B_WINS for s in range(1000))
        assert losses == 0

    def test_one_cell_game_single_move(self):
        game = GameSpec(rows=1, cols=1, k=None)
        moves, final = play(_Match(AgentModel(role="A"), AgentModel(role="B"), game), 1, 0.1)
        assert len(moves) == 1 and final == A_WINS


def fixed_line_agents(moves):
    """Agents whose greedy play follows the given move list exactly, with
    agent A's opponent model reproducing B's moves."""
    agent_a, agent_b = AgentModel(role="A"), AgentModel(role="B")
    state = ref_start(GAME)
    for mv in moves:
        after = ref_move(state, mv, GAME)
        if state.to_move == "A":
            agent_a.value[after.position()] = 1.0
        else:
            agent_b.value[after.position()] = 1.0
            counts = [0] * GAME.cells
            counts[mv] = 5
            agent_a.opponent_counts[state.position()] = counts
        state = after
    return agent_a, agent_b, state


def cross_mi(agent_a, agent_b, game, episodes, seed):
    """Cross MI measured as ``learn`` measures it: a greedy frozen
    evaluation pass on a ``_Match`` of the two agents, then the record
    ``_generation_record`` makes of it."""
    ev = _evaluate(_Match(agent_a, agent_b, game), episodes, _Draws(seed), 0.0)
    return _generation_record(1, ev, game, 1000.0, 1000.0)


@st.composite
def paired_moves(draw):
    """``(cells, predicted, actual)``: a board of 2 to 16 cells and equally
    long, non-empty move lists on it."""
    cells = draw(st.integers(2, 16))
    move = st.integers(0, cells - 1)
    pairs = draw(st.lists(st.tuples(move, move), min_size=1, max_size=200))
    predicted, actual = zip(*pairs)
    return cells, predicted, actual


class TestMeasureCrossMi:
    def test_unpredictable_opponent_gives_no_information(self):
        a, b = AgentModel(role="A"), AgentModel(role="B")  # both untrained: uniform play
        cross = cross_mi(a, b, GAME, episodes=10_000, seed=1)
        assert cross.i_ba <= 0.05
        assert cross.i_ab <= 0.05

    def test_perfect_prediction_reaches_move_entropy(self):
        agent_a, agent_b, final = fixed_line_agents([0, 4, 8, 1, 7, 2, 6])
        assert final.status == A_WINS
        cross = cross_mi(agent_a, agent_b, GAME, episodes=100, seed=2)
        # B's pooled move distribution is uniform over its 3 distinct moves
        assert cross.i_ba == pytest.approx(math.log2(3) / math.log2(9), abs=1e-9)

    def test_partially_trained_fixture(self):
        records, fa, fb = learn(GAME, QUICK_CONFIG, seed=424242)
        cross = cross_mi(fa, fb, GAME, episodes=300, seed=777)
        assert cross.i_ba == pytest.approx(0.5258825257923885, abs=1e-12)
        assert cross.i_ab == pytest.approx(0.7829829740474211, abs=1e-12)

    def test_decoded_bits_per_game_below_state_capacity(self):
        # the information decoded about the opponent in one game cannot
        # exceed the board's exact state content
        from infoplay.capacity import capacity_bounds

        cap_bits = capacity_bounds(GAME).exact_log2_states
        records, fa, fb = learn(GAME, QUICK_CONFIG, seed=424242)
        cross = cross_mi(fa, fb, GAME, episodes=300, seed=777)
        assert 0.0 <= cross.bits_ba_per_game <= cap_bits
        assert 0.0 <= cross.bits_ab_per_game <= cap_bits
        for r in records:
            assert r.bits_ba_per_game <= cap_bits
            assert r.bits_ab_per_game <= cap_bits

    def test_too_few_episodes_rejected(self):
        # learn's evaluation pass and the agent EXIT curve both refuse
        # fewer than 100 games
        with pytest.raises(ValidationError, match="eval_episodes"):
            LearnConfig(eval_episodes=50)
        a, b = AgentModel(role="A"), AgentModel(role="B")
        with pytest.raises(ValidationError, match="episodes"):
            agent_exit_curve(a, b, GAME, [0.0, 1.0], episodes=50, seed=1)

    @pytest.mark.parametrize("episodes", [150.0, True])
    def test_agent_exit_episodes_must_be_an_int(self, episodes):
        a, b = AgentModel(role="A"), AgentModel(role="B")
        with pytest.raises(ValidationError, match="episodes must be an int"):
            agent_exit_curve(a, b, GAME, [0.0, 1.0], episodes=episodes, seed=1)

    def test_too_few_decision_points_rejected(self):
        # in the 1x1 game B never gets to move, so I_{B-A} has no data
        game = GameSpec(rows=1, cols=1, k=None)
        a, b = AgentModel(role="A"), AgentModel(role="B")
        with pytest.raises(EstimationError):
            cross_mi(a, b, game, episodes=100, seed=1)

    @settings(max_examples=200, deadline=None)
    @given(case=paired_moves())
    @example(case=(16, tuple(range(16)), tuple(range(16))))  # all of log2(cells)
    @example(case=(2, (0,), (1,)))
    def test_paired_mi_bounds_property(self, case):
        # moves on a board of n cells carry at most log2(n) bits, so the
        # normalised value stays within [0, 1]
        cells, predicted, actual = case
        bits, normalised = _paired_mi(predicted, actual, cells)
        assert 0.0 <= bits <= math.log2(cells) + 1e-12
        assert 0.0 <= normalised <= 1.0 + 1e-12


class TestLearn:
    def test_infinite_delta_stops_after_window(self):
        cfg = LearnConfig(
            generations=30,
            episodes_per_generation=50,
            eval_episodes=100,
            stop_window=4,
            stop_delta=math.inf,
        )
        records, _, _ = learn(GAME, cfg, seed=6)
        assert len(records) == 4

    def test_generation_cap_one(self):
        cfg = LearnConfig(generations=1, episodes_per_generation=50, eval_episodes=100)
        records, _, _ = learn(GAME, cfg, seed=7)
        assert len(records) == 1 and records[0].generation == 1

    def test_bit_exact_determinism(self):
        r1, a1, b1 = learn(GAME, QUICK_CONFIG, seed=99)
        r2, a2, b2 = learn(GAME, QUICK_CONFIG, seed=99)
        assert r1 == r2
        assert a1.value == a2.value
        assert a1.opponent_counts == a2.opponent_counts

    def test_stopping_rule_matches_reference_scan(self):
        records, _, _ = learn(GAME, QUICK_CONFIG, seed=424242)
        cfg = QUICK_CONFIG
        fired_at = None
        for g in range(1, len(records) + 1):
            if _stop_rule_fires(records[:g], cfg.stop_window, cfg.stop_delta):
                fired_at = g
                break
        if fired_at is None:
            assert len(records) == cfg.generations
        else:
            assert len(records) == fired_at

    def test_rates_sum_to_one(self):
        records, _, _ = learn(GAME, QUICK_CONFIG, seed=13)
        for r in records:
            assert 0.0 <= r.a_win_rate and 0.0 <= r.draw_rate
            assert r.a_win_rate + r.draw_rate <= 1.0

    def test_pinned_run_digests(self):
        records, fa, fb = learn(GAME, QUICK_CONFIG, seed=31)
        assert sha256(generation_csv(records)) == QUICK_SEED31_CSV_SHA256
        assert sha256(tables_text(GAME, fa, fb)) == QUICK_SEED31_TABLES_SHA256

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            LearnConfig(eval_episodes=10)
        with pytest.raises(ValidationError):
            LearnConfig(stop_delta=0.0)

    @pytest.mark.parametrize("field", ["generations", "episodes_per_generation",
                                       "eval_episodes", "stop_window", "anneal_generations"])
    @pytest.mark.parametrize("value", [150.0, True])
    def test_counts_must_be_ints(self, field, value):
        # learn slices and ranges by these counts, and True would read as 1
        with pytest.raises(ValidationError, match=f"{field} must be an int"):
            LearnConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("step_size", 0.0, r"step_size must lie in \(0, 1\]"),
        ("step_size_end", 2.0, r"step_size_end must lie in \[0, 1\]"),
        ("step_size_end", -1.0, r"step_size_end must lie in \[0, 1\]"),
    ])
    def test_step_size_ranges_named_per_field(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            LearnConfig(**{field: value})
        LearnConfig(step_size=1.0, step_size_end=0.0)  # both range ends are valid

    def test_stop_window_needs_two_generations(self):
        # one generation holds no change, so the rule would fire at once
        with pytest.raises(ValidationError, match="stop_window must be >= 2"):
            LearnConfig(stop_window=1)
        LearnConfig(stop_window=2)

    def test_negative_anneal_generations_rejected(self):
        with pytest.raises(ValidationError, match="anneal_generations"):
            LearnConfig(anneal_generations=-1)

    @pytest.mark.parametrize("anneal", [0])
    def test_anneal_defaults_to_all_generations(self, anneal):
        cfg = LearnConfig(generations=3, episodes_per_generation=20, eval_episodes=100,
                          anneal_generations=anneal)
        over_all = learn(GAME, replace(cfg, anneal_generations=cfg.generations), seed=1)
        assert learn(GAME, cfg, seed=1) == over_all  # records and both agents' tables
        # the schedule shows in the run: holding the start rates differs
        assert learn(GAME, replace(cfg, anneal_generations=1), seed=1) != over_all


class TestAgentExitCurve:
    def test_untrained_agent_no_information_at_zero(self):
        a, b = AgentModel(role="A"), AgentModel(role="B")
        curve = agent_exit_curve(a, b, GAME, [0.0, 1.0], episodes=400, seed=3)
        assert curve.ie[0] <= 0.05

    def test_revelation_cannot_hurt(self):
        records, fa, fb = learn(GAME, QUICK_CONFIG, seed=21)
        curve = agent_exit_curve(fa, fb, GAME, [0.0, 0.5, 1.0], episodes=400, seed=4)
        assert curve.ie[-1] >= curve.ie[0]

    def test_trained_pair_feeds_tunnel_analysis(self):
        records, fa, fb = learn(GAME, QUICK_CONFIG, seed=21)
        grid = np.linspace(0.0, 1.0, 6)
        curve_a = agent_exit_curve(fa, fb, GAME, grid, episodes=300, seed=5)
        curve_b = agent_exit_curve(fb, fa, GAME, grid, episodes=300, seed=6)
        report = tunnel_analysis(curve_a, curve_b)
        assert report.status in ("open", "pinched")
        assert np.isfinite(report.min_gap)

    def test_role_collision_rejected(self):
        a1, a2 = AgentModel(role="A"), AgentModel(role="A")
        with pytest.raises(ValidationError):
            agent_exit_curve(a1, a2, GAME, [0.0, 1.0], episodes=100, seed=1)

    def test_side_that_never_moves_raises_estimation_error(self):
        # on 1x1-k1 A's first stone wins: B never moves, so A's curve pools
        # no move, and B's has one cell to normalise by
        game = GameSpec(rows=1, cols=1, k=1)
        a, b = (agent_from_text(f"# infoplay-agent-v3\nrole {role}\ngame 1x1-k1\n", game)
                for role in "AB")
        with pytest.raises(EstimationError, match="no B move"):
            agent_exit_curve(a, b, game, [0.0, 1.0], episodes=100, seed=1)
        with pytest.raises(EstimationError, match="one-cell board"):
            agent_exit_curve(b, a, game, [0.0, 1.0], episodes=100, seed=1)


def test_numpy_integers_of_one_reads_no_bits():
    # self-play skips the draw when there is one option; that moves no later
    # draw only because integers(1) returns 0 without touching the stream,
    # whether or not half of a 32-bit word is buffered
    for seed in (0, 1, 2026):
        rng = np.random.default_rng(seed)
        buffered = []
        for _ in range(4):
            before = rng.bit_generator.state
            buffered.append(before["has_uint32"])
            assert rng.integers(1) == 0
            assert rng.bit_generator.state == before
            rng.integers(3)  # one 32-bit draw: toggles the buffered half-word
        assert buffered == [0, 1, 0, 1]


# one bound per branch of numpy's bounded draw: no bits, small bounds, just
# above 2**31, a bound whose threshold rejects a quarter of the half-words
# (2**32 % (3 * 2**30) == 2**30) and the full 32-bit range
_DRAW_BOUNDS = (1, 2, 3, 9, 2**31 + 1, 3 * 2**30, 2**32)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       pattern=st.lists(st.sampled_from((None,) + _DRAW_BOUNDS), min_size=1, max_size=30),
       length=st.integers(1, 3 * _DRAW_BLOCK))
# the last word of a block leaves its high half buffered across the refill
@example(seed=5, pattern=[None] * (_DRAW_BLOCK - 1) + [9, None, 9], length=_DRAW_BLOCK + 2)
@example(seed=7, pattern=[3 * 2**30], length=3 * _DRAW_BLOCK)
def test_draws_match_numpy_generator(seed, pattern, length):
    # None stands for random(), a number n for integers(n)
    draws, rng = _Draws(seed), np.random.default_rng(seed)
    got, expected = [], []
    for n in itertools.islice(itertools.cycle(pattern), length):
        if n is None:
            got.append(draws.random())
            expected.append(rng.random())
        else:
            got.append(draws.integers(n))
            expected.append(int(rng.integers(n)))
    assert got == expected


def test_selfplay_builds_no_numpy_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("self-play built a numpy Generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    config = LearnConfig(generations=2, episodes_per_generation=20, eval_episodes=100)
    _, agent_a, agent_b = learn(GAME, config, seed=3)
    cross_mi(agent_a, agent_b, GAME, episodes=100, seed=4)
    agent_exit_curve(agent_a, agent_b, GAME, [0.0, 1.0], episodes=100, seed=5)


_SMALL_GAME = GameSpec(rows=2, cols=3, k=2)
_SMALL_POSITIONS = _reachable_positions(_SMALL_GAME)
# exact ties, ties within _TIE_TOL, a tie exactly _TIE_TOL below the best,
# negative zero, the largest value just outside tolerance and clear gaps
_TIE_VALUES = (0.0, _TIE_TOL / 2, -_TIE_TOL / 2, 0.5, 0.5 + _TIE_TOL / 3, -0.25, 1.0,
               1.0 - _TIE_TOL, -0.0, math.nextafter(1.0 - _TIE_TOL, -math.inf))


def ref_choose(agent, table, sid, rng, epsilon):
    """The epsilon-greedy choice worked out afresh, with a draw at every
    choice, one option included."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(len(table.moves[sid])))
    vals = [agent.value.get(table.positions[kid], 0.0) for kid in table.children(sid)]
    ties = [i for i, v in enumerate(vals) if v >= max(vals) - _TIE_TOL]
    return ties[rng.integers(len(ties))]


def ref_predict(agent, position, cells, rng):
    counts = agent.opponent_counts.get(position, [0])
    if max(counts) == 0:
        return int(rng.integers(cells))
    ties = [move for move, count in enumerate(counts) if count == max(counts)]
    return ties[rng.integers(len(ties))]


def ref_play(agent_a, agent_b, table, rng, epsilon):
    sid, path = 0, []
    while table.moves[sid]:
        agent = agent_a if table.states[sid].to_move == "A" else agent_b
        i = ref_choose(agent, table, sid, rng, epsilon)
        path.append((sid, table.moves[sid][i]))
        sid = table.children(sid)[i]
    return path, sid


def ref_evaluate(agent_a, agent_b, table, episodes, rng, epsilon):
    cells = table.game.cells
    outcomes, pred_b, act_b, pred_a, act_a = [], [], [], [], []
    for _ in range(episodes):
        path, final = ref_play(agent_a, agent_b, table, rng, epsilon)
        outcomes.append(table.states[final].status)
        for sid, move in path:
            if table.states[sid].to_move == "B":
                pred_b.append(ref_predict(agent_a, table.positions[sid], cells, rng))
                act_b.append(move)
            else:
                pred_a.append(ref_predict(agent_b, table.positions[sid], cells, rng))
                act_a.append(move)
    return tuple(outcomes), tuple(pred_b), tuple(act_b), tuple(pred_a), tuple(act_a)


def ref_exit_points(agent, opponent, game, grid, episodes, seed):
    agent_a, agent_b = (agent, opponent) if agent.role == "A" else (opponent, agent)
    table = interner(game)
    points = []
    for ss, ia in zip(_seed_sequence(seed).spawn(len(grid)), grid):
        rng = np.random.default_rng(ss)
        predicted, actual = [], []
        for _ in range(episodes):
            path, _ = ref_play(agent_a, agent_b, table, rng, 0.0)
            for sid, move in path:
                if table.states[sid].to_move == agent.role:
                    continue
                if rng.random() < ia:
                    predicted.append(move)
                else:
                    predicted.append(ref_predict(agent, table.positions[sid], game.cells, rng))
                actual.append(move)
        points.append((float(ia), _paired_mi(predicted, actual, game.cells)[1]))
    return tuple(points)


def ref_td_update(agent, position, target, step):
    old = agent.value.get(position, 0.0)
    agent.value[position] = old + step * (target - old)


def ref_training_episode(agent_a, agent_b, table, rng, epsilon, step):
    """A training game that observes and updates right after each move,
    so every later choice reads the values as they are at that move."""
    cells, states, positions = table.game.cells, table.states, table.positions
    last_after = {"A": None, "B": None}
    sid = 0
    while table.moves[sid]:
        mover = states[sid].to_move
        agent, other = (agent_a, agent_b) if mover == "A" else (agent_b, agent_a)
        i = ref_choose(agent, table, sid, rng, epsilon)
        after = table.children(sid)[i]
        counts = other.opponent_counts.setdefault(positions[sid], [0] * cells)
        counts[table.moves[sid][i]] += 1
        if last_after[mover] is not None:
            ref_td_update(agent, last_after[mover], agent.value.get(positions[after], 0.0),
                          step)
        last_after[mover] = positions[after]
        sid = after
    outcome = states[sid].status
    for agent in (agent_a, agent_b):
        if last_after[agent.role] is not None:
            won = outcome == (A_WINS if agent.role == "A" else B_WINS)
            reward = 0.0 if outcome == DRAW else (1.0 if won else -1.0)
            ref_td_update(agent, last_after[agent.role], reward, step)
    return outcome


@st.composite
def frozen_agent_pairs(draw):
    """A game and two agents whose value tables hold exact and near ties and
    whose opponent counts hold tied argmaxes, all-zero rows and, for every
    position left out, unvisited states."""
    game = draw(st.sampled_from([_SMALL_GAME, GAME]))
    positions = st.sampled_from(_SMALL_POSITIONS if game is _SMALL_GAME else _REACHABLE_POSITIONS)
    agents = []
    for role in "AB":
        value = draw(st.dictionaries(positions, st.sampled_from(_TIE_VALUES), max_size=40))
        counts = draw(st.dictionaries(
            positions, st.lists(st.integers(0, 2), min_size=game.cells, max_size=game.cells),
            max_size=40))
        agents.append(AgentModel(role=role, value=value, opponent_counts=counts))
    return game, agents[0], agents[1]


# the walkers take a numpy Generator or the library's own stream
STREAMS = [pytest.param(np.random.default_rng, id="generator"),
           pytest.param(_Draws, id="draws")]


class TestFrozenPasses:
    """Frozen passes work out each state's ties once and draw only when
    there is a choice; they must match a reference that does neither."""

    @pytest.mark.parametrize("stream", STREAMS)
    @settings(max_examples=40, deadline=None)
    @given(pair=frozen_agent_pairs(), epsilon=st.sampled_from([0.0, 0.1, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_evaluate_matches_reference(self, stream, pair, epsilon, seed):
        game, agent_a, agent_b = pair
        ev = _evaluate(_Match(agent_a, agent_b, game), 60, stream(seed), epsilon)
        expected = ref_evaluate(agent_a, agent_b, interner(game), 60, stream(seed), epsilon)
        assert (ev.outcomes, ev.predicted_b, ev.actual_b, ev.predicted_a,
                ev.actual_a) == expected

    @settings(max_examples=25, deadline=None)
    @given(pair=frozen_agent_pairs(), seed=st.integers(0, 2**32 - 1))
    def test_agent_exit_curve_matches_reference(self, pair, seed):
        game, agent_a, agent_b = pair
        for agent, opponent in ((agent_a, agent_b), (agent_b, agent_a)):
            curve = agent_exit_curve(agent, opponent, game, [0.0, 0.5], 100, seed)
            assert curve.points == ref_exit_points(agent, opponent, game, [0.0, 0.5],
                                                   100, seed)


class TestGreedyPick:
    """The walker's greedy pick at the edges of ``_TIE_TOL``: the first two
    moves of the root lead to afterstates valued ``first`` and ``second``,
    every other move to -1.  Greedy games from many seeds must open with
    exactly the tied moves, with and without a memo."""

    @pytest.mark.parametrize("first, second, opening", [
        (1.0, 1.0 - _TIE_TOL, {0, 1}),  # v >= best - _TIE_TOL holds with equality
        (1.0 - _TIE_TOL, 1.0, {0, 1}),
        (1.0, math.nextafter(1.0 - _TIE_TOL, -math.inf), {0}),
        (math.nextafter(1.0 - _TIE_TOL, -math.inf), 1.0, {1}),
        (-0.0, 0.0, {0, 1}),
        (0.0, -0.0, {0, 1}),
        (0.5, 0.5, {0, 1}),
        (-0.5, 0.25, {1}),
    ])
    @pytest.mark.parametrize("stream", STREAMS)
    def test_ties_at_the_tolerance(self, first, second, opening, stream):
        table = interner(_SMALL_GAME)
        kids = table.children(0)
        value = {table.positions[kid]: -1.0 for kid in kids}
        value[table.positions[kids[0]]], value[table.positions[kids[1]]] = first, second
        agent_a, agent_b = AgentModel(role="A", value=value), AgentModel(role="B")
        for memo in (None, {}):
            match = _Match(agent_a, agent_b, _SMALL_GAME)
            played = set()
            for seed in range(64):
                _, moves = _play_episode(match, stream(seed), 0.0, memo)
                ref_path, _ = ref_play(agent_a, agent_b, table, stream(seed), 0.0)
                assert moves == [move for _, move in ref_path]
                played.add(moves[0])
            assert played == opening
            if memo is not None:
                assert memo[0] == sorted(opening)


class TestTrainingEpisode:
    @pytest.mark.parametrize("stream", STREAMS)
    @settings(max_examples=40, deadline=None)
    @given(pair=frozen_agent_pairs(), epsilon=st.sampled_from([0.0, 0.1, 1.0]),
           step_size=st.sampled_from([0.25, 1.0, 0.0]), seed=st.integers(0, 2**32 - 1))
    def test_updating_after_the_game_matches_updating_online(self, stream, pair, epsilon,
                                                             step_size, seed):
        game, agent_a, agent_b = pair
        ref_a, ref_b = copy.deepcopy(agent_a), copy.deepcopy(agent_b)
        match, ref_table = _Match(agent_a, agent_b, game), interner(game)
        rng, ref_rng = stream(seed), stream(seed)
        # one memo for the episodes of a frozen generation, as ``learn`` keeps it
        memo = {} if step_size == 0.0 else None
        for _ in range(5):
            outcome = _training_episode(match, rng, epsilon, step_size, memo)
            assert outcome == ref_training_episode(ref_a, ref_b, ref_table, ref_rng, epsilon,
                                                   step_size)
        match.write_back()
        for agent, ref in ((agent_a, ref_a), (agent_b, ref_b)):
            assert agent.value == ref.value
            assert agent.opponent_counts == ref.opponent_counts

    def test_entries_at_states_an_agent_does_not_own_are_left_alone(self):
        # A's greedy first move (cell 0) leads to A's afterstate, where B
        # moves next; B's greedy reply (cell 4) leads to B's.  Each agent is
        # given a value and a count row at the other's state, which no pass
        # reads or writes: read in place of the owner's, the value -1 would
        # turn the greedy line away
        a_state, b_state = 1, 1 | 1 << 4 + GAME.cells
        runs = []
        for foreign in ({}, {"A": b_state, "B": a_state}):
            agent_a, agent_b, _ = fixed_line_agents([0, 4, 8, 1, 7, 2, 6])
            agents = {"A": agent_a, "B": agent_b}
            for role, position in foreign.items():
                agents[role].value[position] = -1.0
                agents[role].opponent_counts[position] = [7] * GAME.cells
            planted = copy.deepcopy(agents)
            match = _Match(agent_a, agent_b, GAME)
            path = _play_episode(match, np.random.default_rng(7), 0.0)
            assert path[0][:3] == [0, match._ids[a_state], match._ids[b_state]]
            rng = np.random.default_rng(8)
            for _ in range(20):
                _training_episode(match, rng, 0.3, 0.5)
            match.write_back()
            for role, position in foreign.items():
                agent = agents[role]
                assert agent.value.pop(position) == planted[role].value[position]
                assert (agent.opponent_counts.pop(position)
                        == planted[role].opponent_counts[position])
            runs.append((path, agent_a, agent_b))
        assert runs[0] == runs[1]


def ref_learn(game, config, seed):
    """``learn``'s generation loop on the reference loops above, which keep
    the agents' tables as dicts throughout."""
    agent_a, agent_b = AgentModel(role="A"), AgentModel(role="B")
    table = interner(game)
    root = _seed_sequence(seed)
    anneal = config.anneal_generations or config.generations
    elo_a = elo_b = 1000.0
    records = []
    for gen in range(1, config.generations + 1):
        frac = 0.0 if anneal <= 1 else min(1.0, (gen - 1) / (anneal - 1))
        epsilon = config.epsilon_start + frac * (config.epsilon_end - config.epsilon_start)
        step = config.step_size + frac * (config.step_size_end - config.step_size)
        ss_train, ss_eval = root.spawn(2)
        rng = np.random.default_rng(ss_train)
        for _ in range(config.episodes_per_generation):
            ref_training_episode(agent_a, agent_b, table, rng, epsilon, step)
        ev = EvaluationResult(*ref_evaluate(agent_a, agent_b, table, config.eval_episodes,
                                            np.random.default_rng(ss_eval),
                                            config.eval_epsilon))
        records.append(_generation_record(gen, ev, game, elo_a, elo_b))
        elo_a, elo_b = records[-1].elo_a, records[-1].elo_b
        if _stop_rule_fires(records, config.stop_window, config.stop_delta):
            break
    return records, agent_a, agent_b


class TestLearnMatchesReference:
    """A whole run keeps its tables as lists by state id across generations
    and writes them back at the end; it must match the reference loop,
    which updates the agents' dicts directly (once keyed by text, hence
    the test names)."""

    @pytest.mark.parametrize("game", [GameSpec(rows=1, cols=4, k=2),
                                      GameSpec(rows=2, cols=2, k=2), _SMALL_GAME,
                                      GameSpec(rows=2, cols=3, k=None)],
                             ids=lambda game: game.game_id)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), generations=st.integers(2, 4),
           episodes=st.integers(1, 40), anneal=st.sampled_from([0, 2]),
           eval_epsilon=st.sampled_from([0.0, 0.1]),
           stop_delta=st.sampled_from([0.02, math.inf]))
    def test_learn_matches_text_keyed_loop(self, game, seed, generations, episodes, anneal,
                                           eval_epsilon, stop_delta):
        config = LearnConfig(generations=generations, episodes_per_generation=episodes,
                             eval_episodes=100, anneal_generations=anneal,
                             eval_epsilon=eval_epsilon, stop_window=2, stop_delta=stop_delta)
        records, agent_a, agent_b = learn(game, config, seed)
        ref_records, ref_a, ref_b = ref_learn(game, config, seed)
        assert records == ref_records
        for agent, ref in ((agent_a, ref_a), (agent_b, ref_b)):
            assert agent == ref  # role and both tables
        assert tables_text(game, agent_a, agent_b) == tables_text(game, ref_a, ref_b)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_frozen_generations_match_text_keyed_loop(self, seed):
        """Generations 2-4 run at step size 0, with enough episodes that
        their greedy ties come from the generation's memo."""
        config = LearnConfig(generations=4, episodes_per_generation=40, eval_episodes=100,
                             anneal_generations=2, stop_window=5, stop_delta=math.inf)
        records, agent_a, agent_b = learn(_SMALL_GAME, config, seed)
        ref_records, ref_a, ref_b = ref_learn(_SMALL_GAME, config, seed)
        assert [r.generation for r in records] == [1, 2, 3, 4]
        assert records == ref_records
        assert (tables_text(_SMALL_GAME, agent_a, agent_b)
                == tables_text(_SMALL_GAME, ref_a, ref_b))


# boards whose every position the snapshot round trip is checked on
KEY_GAMES = (GameSpec(1, 4, k=2), GameSpec(2, 2, k=2), GameSpec(2, 3, k=3), GAME)


@functools.cache
def full_walks(game):
    """A full walk of a fresh ``_Match`` of ``game`` and of the oracle's table."""
    return walk(seated(game)), walk(interner(game))


class TestSnapshots:
    def test_round_trip_preserves_behavior_and_bytes(self, tmp_path):
        records, fa, fb = learn(GAME, QUICK_CONFIG, seed=31)
        text = agent_to_text(fa, GAME)
        clone = agent_from_text(text, GAME)
        assert clone.value == fa.value
        assert clone.opponent_counts == fa.opponent_counts
        assert agent_to_text(clone, GAME) == text

    def test_header_and_game_checks(self):
        with pytest.raises(ValidationError):
            agent_from_text("not a snapshot\n", GAME)
        a = AgentModel(role="A")
        text = agent_to_text(a, GAME)
        other = GameSpec(rows=4, cols=4, k=3)
        with pytest.raises(ValidationError):
            agent_from_text(text, other)
        # version 2 also held the exploration rate and step size
        v2 = text.replace("# infoplay-agent-v3", "# infoplay-agent-v2").replace(
            "game 3x3-k3\n", "game 3x3-k3\nstep_size 0.25\nepsilon 0.1\n")
        with pytest.raises(ValidationError, match="bad header"):
            agent_from_text(v2, GAME)

    @pytest.mark.parametrize("old,new", [
        ("role A\n", ""),
        ("game 3x3-k3\n", ""),
        ("0:3,8:1", "3:x"),
        ("0:3,8:1", "12:1"),
        ("0:3,8:1", "3:-1"),
        ("0.75", "high"),
        ("0.75", "nan"),
        ("....A....:B 0.75", "....A...:B 0.75"),
        # keys of states no game reaches: stone balance or player to move
        ("....A....:B 0.75", "AAAA.....:B 0.75"),
        ("....A....:B 0.75", "....A....:A 0.75"),
        ("....A....:B 0.75", ".........:B 0.75"),
        ("O ....A....:B", "O ....B....:A"),
        ("0:3,8:1", "4:99999999999999999999999"),  # count beyond int64
        ("0:3,8:1", "0:3,0:1"),  # one move counted twice
        ("0:3,8:1", "0:3,4:1"),  # a move on the cell A already holds
        ("0:3,8:1", "4:0"),
        # a repeated line, which would silently win over the first
        ("V ....A....:B 0.75", "V ....A....:B 0.75\nV ....A....:B 0.5"),
        ("O ....A....:B 0:3,8:1", "O ....A....:B 0:3,8:1\nO ....A....:B 1:1"),
        ("role A\n", "role A\nrole B\n"),
        ("role A\n", "role A\nstep_size 0.25\n"),  # a version 2 line
        ("O ....A....:B 0:3,8:1", "O ....A....:B 0:3,8:1\nP .........:A 0:1.0"),  # no P tag
        ("0.75", "-1.0000000000000002"),  # a value TD(0) cannot reach
    ])
    def test_malformed_snapshot_raises_validation_error(self, old, new):
        text = "\n".join([
            "# infoplay-agent-v3",
            "role A",
            "game 3x3-k3",
            "V ....A....:B 0.75",
            "O ....A....:B 0:3,8:1",
        ]) + "\n"
        agent_from_text(text, GAME)  # the unedited text is valid
        assert old in text
        with pytest.raises(ValidationError):
            agent_from_text(text.replace(old, new, 1), GAME)

    @settings(max_examples=100, deadline=None)
    @given(role=st.sampled_from("AB"),
           value=st.dictionaries(st.sampled_from(_REACHABLE_POSITIONS), st.floats(-1.0, 1.0)),
           counts=st.dictionaries(
               st.sampled_from(_REACHABLE_POSITIONS),
               st.lists(st.integers(0, 2**40), min_size=9, max_size=9),
           ).map(lambda rows: {  # counts only on empty cells
               p: [0 if (p | p >> 9) >> m & 1 else c for m, c in enumerate(row)]
               for p, row in rows.items()}))
    @example(role="B", value={}, counts={1 << 4: [0] * 9})
    def test_round_trip_property(self, role, value, counts):
        agent = AgentModel(role=role, value=value, opponent_counts=counts)
        text = agent_to_text(agent, GAME)
        clone = agent_from_text(text, GAME)
        assert agent_to_text(clone, GAME) == text
        assert clone.role == role
        assert clone.value == value
        assert clone.opponent_counts == counts

    @settings(max_examples=10, deadline=None)
    @given(game=st.sampled_from([_SMALL_GAME, GAME]), seed=st.integers(0, 2**32 - 1),
           episodes=st.integers(1, 60))
    def test_counts_stay_int_lists_through_learn_and_snapshots(self, game, seed, episodes):
        config = LearnConfig(generations=2, episodes_per_generation=episodes,
                             eval_episodes=100)
        _, agent_a, agent_b = learn(game, config, seed)
        for agent in (agent_a, agent_b):
            text = agent_to_text(agent, game)
            clone = agent_from_text(text, game)
            assert agent.opponent_counts  # each agent saw the other move
            for model in (agent, clone):
                for row in model.opponent_counts.values():
                    assert type(row) is list and len(row) == game.cells
                    assert all(type(count) is int for count in row)
            assert clone.opponent_counts == agent.opponent_counts
            assert clone.value == agent.value
            assert agent_to_text(clone, game) == text

    def test_snapshot_keys_exhaustive(self):
        # a key is accepted exactly when its board has a reachable stone
        # balance and its suffix names the player to move (A iff #A == #B)
        keys = [f"{''.join(board)}:{player}"
                for board in itertools.product(".AB", repeat=9) for player in "AB"]
        keys += ["........:A", "..........:A", "A.......:B", "A.........:B",
                 ".........", "A........", ".........:", ".........:AB",
                 ".........:A:A", "A........:B:", "X........:A", "a........:A", ""]
        for key in keys:
            board, colon, player = key.partition(":")
            n_a, n_b = board.count("A"), board.count("B")
            valid = (colon == ":" and len(board) == 9 and set(board) <= set(".AB")
                     and n_a - n_b in (0, 1) and player == ("A" if n_a == n_b else "B"))
            if valid:
                a = sum(1 << i for i, c in enumerate(board) if c == "A")
                b = sum(1 << i for i, c in enumerate(board) if c == "B")
                assert _snapshot_key(key, GAME) == a | b << 9
            else:
                with pytest.raises(ValidationError):
                    _snapshot_key(key, GAME)

    @settings(max_examples=30, deadline=None)
    @given(game=st.sampled_from(KEY_GAMES), role=st.sampled_from("AB"),
           values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
           counts=st.lists(st.integers(0, 2**40), min_size=1, max_size=8),
           stride=st.integers(1, 5))
    def test_every_walked_position_round_trips(self, game, role, values, counts, stride):
        # every position a full walk interns gets a value, every
        # ``stride``-th one a count row on its empty cells
        match, ref = full_walks(game)
        assert match.positions == ref.positions
        cells = game.cells
        value = {p: values[sid % len(values)] for sid, p in enumerate(match.positions)}
        rows = {p: [0 if (p | p >> cells) >> m & 1 else counts[(sid + m) % len(counts)]
                    for m in range(cells)]
                for sid, p in enumerate(match.positions) if sid % stride == 0}
        agent = AgentModel(role=role, value=value, opponent_counts=rows)
        text = agent_to_text(agent, game)
        assert agent_from_text(text, game) == agent
        # each position is written under the oracle's key of its state
        keys = [state.key() for state in ref.states]
        expected = sorted(f"V {keys[sid]} {value[p]!r}" for sid, p in enumerate(ref.positions))
        expected += sorted(
            f"O {keys[sid]} " + ",".join(f"{m}:{c}" for m, c in enumerate(rows[p]) if c)
            for sid, p in enumerate(ref.positions) if p in rows)
        assert text.splitlines() == ["# infoplay-agent-v3", f"role {role}",
                                     f"game {game.game_id}", *expected]


class TestGenerationCsv:
    def test_columns_and_seed(self):
        records, _, _ = learn(
            GAME,
            LearnConfig(generations=2, episodes_per_generation=50, eval_episodes=100),
            seed=41,
        )
        text = generation_csv(records, seed=41)
        lines = text.strip().split("\n")
        assert lines[0] == "# seed=41"
        assert lines[1] == "generation,i_ba,i_ab,elo_a,elo_b,draw_rate,a_win_rate"
        assert lines[2].startswith("1,")
        assert len(lines) == 2 + len(records)
