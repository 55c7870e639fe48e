"""Board mechanics: legal moves, termination, stone balance.

Each move-rule case is played by the reference rules of ``oracles`` and
through the children of a self-play ``_Match``, the library's live rule
path; the two must agree on every position and status along the line.
"""

import pytest

from infoplay.errors import ValidationError
from infoplay.games import (
    A_WINS,
    B_WINS,
    BOARD_FULL_SCORING,
    DRAW,
    GameSpec,
    ONGOING,
    tic_tac_toe,
)
from infoplay.selfplay import AgentModel, _Match, _snapshot_key

from oracles import ref_move, ref_moves, ref_start


def play(moves, game=None):
    """Play ``moves`` by the reference rules and through a fresh match:
    the reference state, the match and the id of the match's state."""
    game = game or tic_tac_toe()
    state, sid = ref_start(game), 0
    match = _Match(AgentModel(role="A"), AgentModel(role="B"), game)
    for m in moves:
        state = ref_move(state, m, game)
        sid = match.children(sid)[match.moves[sid].index(m)]
        assert match.positions[sid] == state.position()
        assert match.status[sid] == state.status
    return state, match, sid


def offers(match, sid, move):
    """Whether the match lists ``move`` (an int, not a bool) at ``sid``."""
    return any(type(m) is type(move) and m == move for m in match.moves[sid])


class TestLegalMoves:
    def test_empty_board_has_all_cells(self):
        state, match, sid = play([])
        assert ref_moves(state) == list(match.moves[sid]) == list(range(9))

    def test_one_empty_cell(self):
        state, match, sid = play([0, 1, 2, 4, 3, 5, 7, 6])  # cell 8 open, no winner yet
        assert state.status == ONGOING
        assert ref_moves(state) == list(match.moves[sid]) == [8]

    def test_terminal_state_rejected(self):
        state, match, sid = play([0, 3, 1, 4, 2])  # A wins across the top row
        assert state.status == A_WINS
        with pytest.raises(ValueError):
            ref_moves(state)
        assert match.moves[sid] == ()


class TestTermination:
    def test_row_column_and_diagonal_wins(self):
        assert play([0, 3, 1, 4, 2])[0].status == A_WINS
        assert play([1, 0, 2, 3, 4, 6])[0].status == B_WINS  # B takes the left column
        assert play([0, 1, 4, 2, 8])[0].status == A_WINS  # main diagonal
        assert play([2, 1, 4, 3, 6])[0].status == A_WINS  # anti-diagonal

    def test_full_board_draw(self):
        state, match, sid = play([0, 1, 2, 4, 3, 5, 7, 6, 8])
        assert state.status == DRAW
        assert match.moves[sid] == ()

    def test_board_full_scoring_gives_majority_win(self):
        game = GameSpec(rows=1, cols=3, win_condition=BOARD_FULL_SCORING, k=None)
        state, _, _ = play([0, 1, 2], game)
        assert state.status == A_WINS  # 2 stones vs 1

    def test_one_by_one_game(self):
        game = GameSpec(rows=1, cols=1, win_condition=BOARD_FULL_SCORING, k=None)
        state, match, sid = play([], game)
        assert ref_moves(state) == list(match.moves[sid]) == [0]
        assert play([0], game)[0].status == A_WINS


class TestInvariants:
    # a position enters the library from outside only as a snapshot's text
    # key, and the snapshot reader is where the parity rule is checked
    def test_stone_balance_enforced(self):
        with pytest.raises(ValidationError):
            _snapshot_key("AA.......:B", tic_tac_toe())

    def test_player_to_move_follows_from_the_stones(self):
        game = tic_tac_toe()
        assert _snapshot_key(".........:A", game) == 0
        assert _snapshot_key("A........:B", game) == 1
        assert _snapshot_key("AB.......:A", game) == 1 | 1 << 1 + 9
        with pytest.raises(ValidationError):
            _snapshot_key("A........:A", game)

    # a bool is an int subclass, but like a bool cell it is no move
    @pytest.mark.parametrize("move", [1.5, "4", None, -1, 9, True, False])
    def test_malformed_move_rejected(self, move):
        state, match, sid = play([])
        with pytest.raises(ValueError):
            ref_move(state, move, tic_tac_toe())
        assert not offers(match, sid, move)

    def test_moves_alternate(self):
        state, match, sid = play([])
        assert state.to_move == "A"
        state, match, sid = play([4])
        assert state.to_move == "B"
        assert state.cells[4] == 1
        assert match.positions[sid] == 1 << 4

    def test_occupied_cell_rejected(self):
        state, match, sid = play([4])
        with pytest.raises(ValueError):
            ref_move(state, 4, tic_tac_toe())
        assert not offers(match, sid, 4)


class TestSpecValidation:
    def test_k_exceeding_board_rejected(self):
        with pytest.raises(ValidationError):
            GameSpec(rows=3, cols=3, k=4)

    def test_empty_board_rejected(self):
        with pytest.raises(ValidationError):
            GameSpec(rows=0, cols=3)
