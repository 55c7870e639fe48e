"""Two self-play agents with internal opponent models, instrumented with
information-theoretic measurements.

Each tabular agent keeps an afterstate value table (TD(0) learning), an
epsilon-greedy policy derived from it, and an opponent model built from
observed move frequencies; the opponent model is the agent's internal
channel.  The harness measures how much of each opponent's behavior the
other agent decodes (plug-in MI between predicted and actual moves,
normalized by log2 of the board size), tracks Elo, and stops learning
when the exchanged information stops increasing.

Both tables are keyed by position, the integer A's cell mask | (B's mask
<< cells) that capacity enumeration also counts.  Text keys appear only
in the snapshot reader and writer at the end of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._table import csv_text
from .entropy import _seed_sequence, mutual_information_plugin
from .errors import EstimationError, ValidationError, require_addressable, require_ints
from .exit_chart import ExitCurve, _check_ia_grid
from .games import (
    A_WINS,
    B_WINS,
    DRAW,
    GameSpec,
    ONGOING,
    PLAYER_A,
    PLAYER_B,
    line_masks,
)

SNAPSHOT_HEADER = "# infoplay-agent-v3"

_TIE_TOL = 1e-12

# every learning run starts both agents at this rating
ELO_INITIAL = 1000.0


# raw 64-bit words a ``_Draws`` fetches at a time: enough to amortise the
# call into numpy, small enough to add no measurable memory
_DRAW_BLOCK = 512


class _Draws:
    """The draws of ``np.random.default_rng(seed)`` that self-play uses,
    ``random()`` and ``integers(n)`` for 1 <= n <= 2**32, served from raw
    PCG64 words fetched in blocks.

    Both methods reproduce numpy's Generator bit for bit: ``random()`` keeps
    the top 53 bits of a word (``next_double``), and ``integers(n)`` is
    Lemire's bounded method with rejection on 32-bit half-words, taking the
    low half of a word first and keeping the high half for the next call,
    as PCG64's ``next_uint32`` does.  The streams therefore depend only on
    PCG64's raw output.  Words are fetched ahead, so a ``_Draws`` must own
    its stream.
    """

    __slots__ = ("_raw", "_words", "_half")

    def __init__(self, seed):
        self._raw = np.random.PCG64(seed).random_raw
        self._words: list[int] = []  # reversed, so the next word is last
        self._half = None  # the buffered high half-word, if any

    def _fill(self) -> list:
        self._words = self._raw(_DRAW_BLOCK)[::-1].tolist()
        return self._words

    def random(self) -> float:
        words = self._words or self._fill()
        return (words.pop() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        if n == 1:
            return 0  # numpy reads no bits for a single value
        while True:
            x = self._half
            if x is None:
                word = (self._words or self._fill()).pop()
                x, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                self._half = None
            m = x * n
            low = m & 0xFFFFFFFF
            # 2**32 % n < n, so the threshold is only worked out below n
            if low >= n or low >= 0x100000000 % n:
                return m >> 32


@dataclass
class AgentModel:
    """One tabular self-play agent: its role and its two tables.

    Both tables are keyed by position, the key a ``_Match`` interns.
    ``value`` maps this agent's afterstates, the positions it moves into,
    to expected outcome in [-1, 1] from its perspective.
    ``opponent_counts`` maps the states where its opponent moves, which
    are the same positions, to observed opponent move counts, a list of
    one int per cell; the binned prediction used for MI measurement is the
    count argmax (an unvisited state yields an uninformed guess over the
    whole board, since a fresh internal channel carries no information,
    not even cell occupancy).
    These dicts are the agent's durable form: a self-play pass reads them
    into lists by state id and works on those, and only a snapshot writes
    their keys as text.  The exploration rate and step size belong to the
    pass that plays.
    """

    role: str
    value: dict = field(default_factory=dict)
    opponent_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.role not in (PLAYER_A, PLAYER_B):
            raise ValidationError(f"role must be 'A' or 'B', got {self.role!r}")


class _Match:
    """Agents A and B seated on the states of one self-play pass.

    A state is capacity's integer key, A's cell mask | (B's mask << cells),
    interned to ids in order of first sight (the empty board is id 0).  Per
    id the match keeps the key, status, legal moves (empty cells in row-major
    order; none iff terminal) and child ids (None until ``children`` expands
    the state).  A child is won when the mover's mask covers a mask of
    ``line_masks`` through the move.

    Seat 0 is A, who moves first, so at the even plies; seat 1 is B.  Each
    agent sits by its role, whatever the argument order.  A state of s
    stones belongs to seat (s - 1) & 1, the player who made move s (B for
    the empty board): it is that player's afterstate, and that player
    observes the next move made there.  So each table is one list by state
    id, read from the owner's dicts as the state is interned and stored
    back into them at ``write_back``: ``value`` (afterstate values, 0.0
    when unset), ``updated`` (whether the pass has updated each value; an
    updated value may be 0.0, and snapshots still write it) and ``counts``
    (opponent-count rows, None for a state never observed).
    """

    __slots__ = ("game", "positions", "status", "moves", "child_ids", "_ids", "_full",
                 "agents", "value", "updated", "counts")

    def __init__(self, agent_a: AgentModel, agent_b: AgentModel, game: GameSpec):
        require_addressable(board=game.cells)
        by_role = {agent_a.role: agent_a, agent_b.role: agent_b}
        if by_role.keys() != {PLAYER_A, PLAYER_B}:
            raise ValidationError("a match seats one agent of role A and one of role B")
        self.agents = (by_role[PLAYER_A], by_role[PLAYER_B])
        self.value, self.updated, self.counts = [], [], []
        self.game = game
        self.positions, self.status, self.moves, self.child_ids = [], [], [], []
        self._ids: dict[int, int] = {}
        # a full board is drawn unless scored: A's stones are one more on an odd board
        self._full = A_WINS if game.k is None and game.cells % 2 else DRAW
        self._intern(0, ONGOING, tuple(range(game.cells)))

    def _intern(self, position: int, status: str, moves: tuple) -> int:
        sid = self._ids[position] = len(self.positions)
        self.positions.append(position)
        self.status.append(status)
        self.moves.append(moves)
        self.child_ids.append(None)
        owner = self.agents[(position.bit_count() - 1) & 1]
        self.value.append(owner.value.get(position, 0.0))
        self.updated.append(False)
        self.counts.append(owner.opponent_counts.get(position))
        return sid

    def children(self, sid: int) -> tuple:
        """Child ids of state ``sid``, one per legal move, in move order."""
        kids = self.child_ids[sid]
        if kids is None:
            position, moves = self.positions[sid], self.moves[sid]
            if (self.game.cells - len(moves)) % 2:  # B moves at the odd plies
                shift, won = self.game.cells, B_WINS
            else:
                shift, won = 0, A_WINS
            mine = position >> shift  # the mover's stones; B's, above A's, meet no line
            lines, kids = line_masks(self.game), []
            for i, m in enumerate(moves):
                child = position | 1 << m << shift
                if (kid := self._ids.get(child)) is None:
                    wins = any((mine | 1 << m) & line == line for line in lines[m])
                    rest = () if wins else moves[:i] + moves[i + 1:]
                    status = won if wins else ONGOING if rest else self._full
                    kid = self._intern(child, status, rest)
                kids.append(kid)
            kids = self.child_ids[sid] = tuple(kids)
        return kids

    def write_back(self):
        """Store each updated value and each count row into its owner's
        dicts."""
        for key, v, is_updated, row in zip(self.positions, self.value, self.updated,
                                           self.counts):
            owner = self.agents[(key.bit_count() - 1) & 1]
            if is_updated:
                owner.value[key] = v
            if row is not None:
                owner.opponent_counts[key] = row


def _play_episode(match: _Match, rng, epsilon: float,
                  memo: dict | None = None) -> tuple[list, list]:
    """One game between the seated agents: the ids of the states it passes
    through, from the root to the final state, and the move made at each
    decision (one fewer).  Every game the agents play with each other is
    played here.

    Each move is epsilon-greedy at the one rate ``epsilon`` for both
    movers: with probability epsilon a uniform legal move, otherwise a
    uniform pick among the afterstates whose value lies within
    ``_TIE_TOL`` of the best.  The tie list is built only when a second
    value lies within tolerance; else the move is the first best one.  A
    pick among one option takes no draw: numpy's ``integers(1)`` reads no
    bits, so skipping it moves no later draw of the stream.  ``memo``
    (state id -> greedy ties, one-element lists included) serves a pass in
    which both agents are frozen (an evaluation or agent-exit pass, or a
    training generation at step size 0), so each state's ties are worked
    out once; the state fixes the player to move, so one dict serves
    both."""
    random, integers = rng.random, rng.integers
    legal, known, value = match.moves, match.child_ids, match.value
    sid = 0  # the root
    sids, moves = [sid], []
    while options := legal[sid]:
        kids = known[sid] or match.children(sid)
        if epsilon > 0.0 and random() < epsilon:
            i = integers(len(options)) if len(options) > 1 else 0
        else:
            ties = memo.get(sid) if memo else None
            if ties is None:
                vals = [value[kid] for kid in kids]
                ranked = sorted(vals)
                floor = ranked[-1] - _TIE_TOL
                if len(ranked) > 1 and ranked[-2] >= floor:
                    ties = [j for j, v in enumerate(vals) if v >= floor]
                else:
                    i = vals.index(ranked[-1])  # the one value within tolerance
                if memo is not None:
                    memo[sid] = ties or [i]
            if ties:
                i = ties[integers(len(ties))] if len(ties) > 1 else ties[0]
        moves.append(options[i])
        sid = kids[i]
        sids.append(sid)
    return sids, moves


# each outcome's reward to the seats (A, B)
_REWARDS = {A_WINS: (1.0, -1.0), B_WINS: (-1.0, 1.0), DRAW: (0.0, 0.0)}


def _training_episode(match: _Match, rng, epsilon: float, step: float,
                      memo: dict | None = None) -> str:
    """One self-play game at exploration rate ``epsilon``, then TD(0)
    afterstate updates of step size ``step`` and opponent-model
    observation for both agents along its path, in place on the match's
    lists.  Playing first reads the same values as updating online: an
    update only touches an afterstate with fewer stones than any value the
    rest of the game reads.  The state at ply j is the afterstate of seat
    (j - 1) & 1, and each agent's afterstates are updated in play order,
    each toward the value two plies on before that is updated, the last
    toward the agent's reward.  The count row at each decision state is
    the observer's, the agent that moved into it.  ``memo`` is handed to
    ``_play_episode`` and must be None unless ``step`` is 0, which leaves
    every value as it is."""
    sids, moves = _play_episode(match, rng, epsilon, memo)
    value, updated, counts = match.value, match.updated, match.counts
    outcome = match.status[sids[-1]]
    rewards, end = _REWARDS[outcome], len(sids)
    for j in range(1, end):
        after = sids[j]
        target = value[sids[j + 2]] if j + 2 < end else rewards[(j - 1) & 1]
        value[after] += step * (target - value[after])
        updated[after] = True
    for sid, move in zip(sids, moves):
        row = counts[sid]
        if row is None:
            row = counts[sid] = [0] * match.game.cells
        row[move] += 1
    return outcome


def _predict(counts: list, sid: int, cells: int, rng, memo: dict) -> int:
    """Binned prediction of the opponent's move at state ``sid`` from one
    agent's count rows: the argmax of the counts, ties broken uniformly,
    or a uniform guess over the whole board when no count is positive.
    Predictions are made only in frozen passes, so ``memo`` (state id ->
    tied moves) keeps each state's ties for the pass."""
    if (ties := memo.get(sid)) is None:
        row = counts[sid] or ()
        top = max(row, default=0)
        ties = memo[sid] = (range(cells) if top == 0 else
                            [move for move, count in enumerate(row) if count == top])
    return ties[rng.integers(len(ties))] if len(ties) > 1 else ties[0]


@dataclass(frozen=True)
class EvaluationResult:
    outcomes: tuple
    predicted_b: tuple  # A's predictions of B's moves
    actual_b: tuple
    predicted_a: tuple  # B's predictions of A's moves
    actual_a: tuple


def _evaluate(match: _Match, episodes: int, rng, epsilon: float) -> EvaluationResult:
    """Frozen evaluation games between the seated agents; each game is
    played out before its decision points are predicted.  Both agents stay
    frozen for the pass, so each state's greedy and prediction ties are
    worked out once."""
    status, counts, cells = match.status, match.counts, match.game.cells
    choice_ties, prediction_ties = {}, {}
    outcomes, predicted, actual = [], ([], []), ([], [])
    for _ in range(episodes):
        sids, moves = _play_episode(match, rng, epsilon, choice_ties)
        outcomes.append(status[sids[-1]])
        for ply, (sid, move) in enumerate(zip(sids, moves)):
            seat = ply & 1
            predicted[seat].append(_predict(counts, sid, cells, rng, prediction_ties))
            actual[seat].append(move)
    return EvaluationResult(*map(tuple, (outcomes, predicted[1], actual[1],
                                         predicted[0], actual[0])))


def _paired_mi(predicted, actual, cells: int) -> tuple[float, float]:
    """The plug-in MI between predicted and actual moves, in bits and
    normalised by log2(cells)."""
    if cells < 2:
        raise EstimationError("on a one-cell board a move carries no information "
                              "to normalise by log2(cells)")
    counts = np.zeros((cells, cells), dtype=np.int64)
    np.add.at(counts, (np.asarray(predicted), np.asarray(actual)), 1)
    bits = mutual_information_plugin(counts)
    return bits, bits / math.log2(cells)


def elo_win_prob(e_a: float, e_b: float, c_elo: float = 1.0 / 400.0) -> float:
    """Logistic win probability 1 / (1 + 10^(c_elo (e_b - e_a)))."""
    if not 0 < c_elo < math.inf:
        raise ValidationError(f"c_elo must be positive and finite, got {c_elo!r}")
    return 1.0 / (1.0 + 10.0 ** (c_elo * (e_b - e_a)))


def elo_update(e_a: float, e_b: float, outcome: str, k_factor: float = 16.0,
               c_elo: float = 1.0 / 400.0) -> tuple[float, float]:
    """Standard rating update; zero-sum, draws score one half."""
    if not 0 < k_factor < math.inf:
        raise ValidationError(f"k_factor must be positive and finite, got {k_factor!r}")
    scores = {A_WINS: 1.0, DRAW: 0.5, B_WINS: 0.0}
    if outcome not in scores:
        raise ValidationError(f"unknown outcome {outcome!r}")
    delta = k_factor * (scores[outcome] - elo_win_prob(e_a, e_b, c_elo))
    return e_a + delta, e_b - delta


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    i_ba: float  # normalised by log2(cells)
    i_ab: float
    elo_a: float
    elo_b: float
    draw_rate: float
    a_win_rate: float
    bits_ba_per_game: float
    bits_ab_per_game: float


def _generation_record(generation: int, ev: EvaluationResult, game: GameSpec,
                       elo_a: float, elo_b: float) -> GenerationRecord:
    """One generation's record from its evaluation pass ``ev``: cross MI
    each way over the pooled decision points, the ratings ``elo_a`` and
    ``elo_b`` updated by each game in play order, and the outcome rates."""
    if min(len(ev.actual_b), len(ev.actual_a)) < 30:
        raise EstimationError(
            f"too few decision points pooled ({len(ev.actual_b)} for B, "
            f"{len(ev.actual_a)} for A); need at least 30 per direction"
        )
    bits_ba, i_ba = _paired_mi(ev.predicted_b, ev.actual_b, game.cells)
    bits_ab, i_ab = _paired_mi(ev.predicted_a, ev.actual_a, game.cells)
    for outcome in ev.outcomes:
        elo_a, elo_b = elo_update(elo_a, elo_b, outcome)
    n = len(ev.outcomes)
    return GenerationRecord(
        generation, i_ba, i_ab, elo_a, elo_b, ev.outcomes.count(DRAW) / n,
        ev.outcomes.count(A_WINS) / n,
        bits_ba * len(ev.actual_b) / n, bits_ab * len(ev.actual_a) / n)


@dataclass(frozen=True)
class LearnConfig:
    """Committed defaults for the tic-tac-toe scale harness.

    Exploration and the TD step size both anneal linearly over
    ``anneal_generations`` (0: over all ``generations``); the
    step size anneals to zero, which freezes the value tables (and with
    them the greedy play lines) so the exchanged-information series can
    actually plateau and trip the stopping rule.  ``stop_window`` must be
    at least 2: the rule reads the changes between consecutive
    generations in the window, and one generation holds none.
    """

    generations: int = 70
    episodes_per_generation: int = 600
    eval_episodes: int = 200
    stop_window: int = 8
    stop_delta: float = 0.02
    step_size: float = 0.25
    step_size_end: float = 0.0
    epsilon_start: float = 0.35
    epsilon_end: float = 0.05
    anneal_generations: int = 45
    eval_epsilon: float = 0.0

    def __post_init__(self):
        require_ints(generations=self.generations,
                     episodes_per_generation=self.episodes_per_generation,
                     eval_episodes=self.eval_episodes, stop_window=self.stop_window,
                     anneal_generations=self.anneal_generations)
        if self.generations < 1 or self.episodes_per_generation < 1:
            raise ValidationError("generation and episode counts must be >= 1")
        if self.eval_episodes < 100:
            raise ValidationError("eval_episodes must be >= 100")
        if self.anneal_generations < 0:
            raise ValidationError("anneal_generations must be >= 0 (0: all generations)")
        if self.stop_window < 2:
            raise ValidationError("stop_window must be >= 2")
        if not self.stop_delta > 0:
            raise ValidationError("stop_delta must be > 0 (may be inf)")
        for eps in (self.epsilon_start, self.epsilon_end, self.eval_epsilon):
            if not (0.0 <= eps <= 1.0):
                raise ValidationError("exploration rates must lie in [0, 1]")
        if not (0.0 < self.step_size <= 1.0):
            raise ValidationError("step_size must lie in (0, 1]")
        if not (0.0 <= self.step_size_end <= 1.0):
            raise ValidationError("step_size_end must lie in [0, 1] (0 freezes the tables)")


def _stop_rule_fires(records: list, window: int, delta: float) -> bool:
    """The learning process stops once the exchanged information no longer
    increases: every consecutive change among the last ``window`` generation
    records stays below ``delta`` in magnitude, for both directions.
    (Magnitudes, so a transient dip-and-recovery cannot sneak through the
    gate and the stopped window is genuinely flat.)"""
    if len(records) < window:
        return False
    recent = records[-window:]
    return all(abs(b.i_ba - a.i_ba) < delta and abs(b.i_ab - a.i_ab) < delta
               for a, b in zip(recent, recent[1:]))


def learn(game: GameSpec, config: LearnConfig, seed):
    """Run the instrumented self-play loop.

    Per generation: training episodes (epsilon-greedy TD(0) on both
    agents, opponent models updated by observed frequencies), then a
    frozen evaluation pass recording cross MI, Elo, and outcome rates.
    Stops early when the windowed stopping rule fires; the recorded MI
    need not reach 1.0, since learning may stop at a local optimum.
    Deterministic given (game, config, seed): a ``SeedSequence`` seed is
    never advanced, so passing it again repeats the run.  Both agents
    start fresh; their tables are written back from the match once, at the
    end.  A generation whose step size is exactly 0 changes no value, so
    its training episodes share one greedy-ties memo, dropped before its
    evaluation pass.  Returns (records, agent_a, agent_b).
    """
    if not isinstance(config, LearnConfig):
        raise ValidationError("config must be a LearnConfig")
    agent_a, agent_b = AgentModel(role=PLAYER_A), AgentModel(role=PLAYER_B)
    match = _Match(agent_a, agent_b, game)
    root = _seed_sequence(seed)
    anneal = config.anneal_generations or config.generations
    records = []
    for gen in range(1, config.generations + 1):
        frac = 0.0 if anneal <= 1 else min(1.0, (gen - 1) / (anneal - 1))
        epsilon = config.epsilon_start + frac * (config.epsilon_end - config.epsilon_start)
        step = config.step_size + frac * (config.step_size_end - config.step_size)
        ss_train, ss_eval = root.spawn(2)
        train_rng = _Draws(ss_train)
        # x + 0 * (t - x) == x, so a generation at step 0 is frozen
        memo = {} if step == 0.0 else None
        for _ in range(config.episodes_per_generation):
            _training_episode(match, train_rng, epsilon, step, memo)
        memo = None  # dropped before the evaluation pass builds its own
        ev = _evaluate(match, config.eval_episodes, _Draws(ss_eval), config.eval_epsilon)
        # the ratings carry over from the previous generation's record
        elo = (records[-1].elo_a, records[-1].elo_b) if records else (ELO_INITIAL,) * 2
        records.append(_generation_record(gen, ev, game, *elo))
        if _stop_rule_fires(records, config.stop_window, config.stop_delta):
            break
    match.write_back()
    return records, agent_a, agent_b


def agent_exit_curve(agent: AgentModel, opponent: AgentModel, game: GameSpec,
                     ia_grid, episodes: int, seed) -> ExitCurve:
    """EXIT-like transfer curve of one agent's opponent prediction.

    A-priori information is injected by revealing the opponent's true next
    move to the predictor with probability q = I_A (a board-alphabet
    erasure channel of normalized capacity q); the output I_E is the
    normalized plug-in MI between the resulting predictions and the
    opponent's actual moves over fresh frozen evaluation games.
    """
    require_ints(episodes=episodes)
    grid = _check_ia_grid(ia_grid)
    if episodes < 100:
        raise ValidationError("episodes must be >= 100")
    match = _Match(agent, opponent, game)
    counts, opponent_plies = match.counts, 1 - match.agents.index(agent)
    # both agents are frozen for the whole curve
    choice_ties, prediction_ties = {}, {}
    root = _seed_sequence(seed)
    points = []
    for ss, ia in zip(root.spawn(len(grid)), grid):
        rng = _Draws(ss)
        predicted, actual = [], []
        for _ in range(episodes):
            sids, moves = _play_episode(match, rng, 0.0, choice_ties)
            for sid, move in zip(sids[opponent_plies::2], moves[opponent_plies::2]):
                if rng.random() < ia:
                    predicted.append(move)  # revealed
                else:
                    predicted.append(_predict(counts, sid, game.cells, rng, prediction_ties))
                actual.append(move)
        if not actual:
            raise EstimationError(
                f"no {opponent.role} move to predict at I_A = {ia:g}: "
                f"player {opponent.role} never moved in {episodes} games"
            )
        _, i_e = _paired_mi(predicted, actual, game.cells)
        points.append((float(ia), i_e))
    return ExitCurve(points=tuple(points), label=f"agent-{agent.role}", mc_samples=episodes)


def generation_csv(records, seed: int | None = None) -> str:
    header = ("generation", "i_ba", "i_ab", "elo_a", "elo_b", "draw_rate", "a_win_rate")
    rows = ((r.generation, r.i_ba, r.i_ab, r.elo_a, r.elo_b, r.draw_rate, r.a_win_rate)
            for r in records)
    return csv_text(header, rows, seed)


# -- snapshot format -----------------------------------------------------
#
# Only a snapshot names a position by text: the board row-major, one of
# ``_CELL_CHARS`` per cell, a colon and the player to move.

_CELL_CHARS = ".AB"  # an empty cell, A's stone, B's stone
_A_BITS = str.maketrans(_CELL_CHARS, "010")
_B_BITS = str.maketrans(_CELL_CHARS, "001")


def _key_text(position: int, cells: int) -> str:
    """The text key of ``position``."""
    b = position >> cells
    a = position ^ b << cells
    board = "".join([_CELL_CHARS[(a >> i & 1) | (b >> i & 1) << 1] for i in range(cells)])
    return f"{board}:{PLAYER_A if a.bit_count() == b.bit_count() else PLAYER_B}"


def agent_to_text(agent: AgentModel, game: GameSpec) -> str:
    """Versioned plain-text snapshot: role and game, then one line per
    table entry (V: afterstate values, O: opponent move counts), sorted by
    text key."""
    lines = [SNAPSHOT_HEADER, f"role {agent.role}", f"game {game.game_id}"]
    text = {position: _key_text(position, game.cells)
            for position in agent.value.keys() | agent.opponent_counts.keys()}
    for key, v in sorted((text[position], v) for position, v in agent.value.items()):
        lines.append(f"V {key} {v!r}")
    for key, counts in sorted((text[position], row)
                              for position, row in agent.opponent_counts.items()):
        packed = ",".join(f"{m}:{c}" for m, c in enumerate(counts) if c)
        lines.append(f"O {key} {packed}")
    return "\n".join(lines) + "\n"


def _snapshot_key(key: str, game: GameSpec) -> int:
    """The position that the text key ``key`` names, if it is a ``game``
    state.  This is where the parity rule is checked: A moves first, so
    #A - #B is 0 or 1, and A is to move iff #A == #B."""
    cells, (board, _, mover) = game.cells, key.partition(":")
    n_a, n_b = board.count(PLAYER_A), board.count(PLAYER_B)
    if (len(board) != cells or n_a + n_b + board.count(_CELL_CHARS[0]) != cells
            or n_a - n_b not in (0, 1) or mover != (PLAYER_A if n_a == n_b else PLAYER_B)):
        raise ValidationError(f"snapshot key {key!r} is not a {game.game_id} state")
    bits = board[::-1]  # cell 0 is the lowest bit
    return int(bits.translate(_A_BITS), 2) | int(bits.translate(_B_BITS), 2) << cells


_COUNT_MAX = np.iinfo(np.int64).max


def _snapshot_counts(packed: str, position: int, cells: int) -> list[int]:
    """Parse ``move:count,...`` for ``position``; an empty list (all counts
    zero) is allowed, a move on an occupied cell is not."""
    occupied = position | position >> cells
    counts = [0] * cells
    seen = set()
    for item in packed.split(",") if packed else ():
        m, _, c = item.partition(":")
        try:
            move, count = int(m), int(c)
        except ValueError:
            raise ValidationError(f"opponent count {item!r} is not move:count") from None
        if not 0 <= move < cells or not 0 <= count <= _COUNT_MAX:
            raise ValidationError(f"opponent count {item!r} is out of range")
        if occupied >> move & 1:
            raise ValidationError(f"opponent count {item!r} is on an occupied cell")
        if move in seen:
            raise ValidationError(f"opponent count {item!r} repeats move {move}")
        seen.add(move)
        counts[move] = count
    return counts


def _snapshot_float(name: str, text: str) -> float:
    try:
        number = float(text)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ValidationError(f"snapshot {name} {text!r} is not a finite number")
    return number


def _snapshot_unique(seen: dict, key, line: str):
    """The writer puts each key on one line; a repeat would silently win."""
    if key in seen:
        raise ValidationError(f"snapshot line {line!r} repeats an earlier key")


def agent_from_text(text: str, game: GameSpec) -> AgentModel:
    """Read a v3 snapshot.  Any malformed line raises ValidationError."""
    lines = text.strip().split("\n")
    if lines[0] != SNAPSHOT_HEADER:
        raise ValidationError("not an infoplay agent snapshot (bad header)")
    fields: dict[str, str] = {}
    value: dict[int, float] = {}
    counts: dict[int, list[int]] = {}
    positions: dict[str, int] = {}  # each distinct text key is parsed once
    for line in lines[1:]:
        tag, _, rest = line.partition(" ")
        if tag in ("V", "O"):
            key, _, entry = rest.partition(" ")
            if (position := positions.get(key)) is None:
                position = positions[key] = _snapshot_key(key, game)
            if tag == "V":
                _snapshot_unique(value, position, line)
                v = _snapshot_float(f"value of {key}", entry)
                if abs(v) > 1.0:
                    # TD(0) only mixes rewards in [-1, 1] and values already in it
                    raise ValidationError(
                        f"snapshot value of {key} {entry!r} lies outside [-1, 1]")
                value[position] = v
            else:
                _snapshot_unique(counts, position, line)
                counts[position] = _snapshot_counts(entry, position, game.cells)
        elif tag in ("role", "game"):
            _snapshot_unique(fields, tag, line)
            if tag == "game" and rest != game.game_id:
                # before the table lines, whose keys are checked against ``game``
                raise ValidationError(f"snapshot is for game {rest!r}, not {game.game_id!r}")
            fields[tag] = rest
        else:
            raise ValidationError(f"unknown snapshot line tag {tag!r}")
    missing = [name for name in ("role", "game") if name not in fields]
    if missing:
        raise ValidationError(f"snapshot lacks the line(s) {', '.join(missing)}")
    return AgentModel(role=fields["role"], value=value, opponent_counts=counts)


def save_agent(agent: AgentModel, game: GameSpec, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(agent_to_text(agent, game))


def load_agent(path, game: GameSpec) -> AgentModel:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ValidationError(f"snapshot {path} is not ASCII text") from None
    return agent_from_text(text, game)
