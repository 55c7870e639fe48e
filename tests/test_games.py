"""Board mechanics: legal moves, termination, stone balance."""

import pytest

from infoplay.errors import ValidationError
from infoplay.games import (
    A_WINS,
    B_WINS,
    BOARD_FULL_SCORING,
    DRAW,
    GameSpec,
    GameState,
    ONGOING,
    apply_move,
    initial_state,
    legal_moves,
    tic_tac_toe,
)


def play(moves, game=None):
    game = game or tic_tac_toe()
    state = initial_state(game)
    for m in moves:
        state = apply_move(state, m, game)
    return state


class TestLegalMoves:
    def test_empty_board_has_all_cells(self):
        game = tic_tac_toe()
        assert legal_moves(initial_state(game), game) == list(range(9))

    def test_one_empty_cell(self):
        state = play([0, 1, 2, 4, 3, 5, 7, 6])  # cell 8 open, no winner yet
        game = tic_tac_toe()
        assert state.status == ONGOING
        assert legal_moves(state, game) == [8]

    def test_terminal_state_rejected(self):
        state = play([0, 3, 1, 4, 2])  # A wins across the top row
        assert state.status == A_WINS
        with pytest.raises(ValidationError):
            legal_moves(state, tic_tac_toe())


class TestTermination:
    def test_row_column_and_diagonal_wins(self):
        assert play([0, 3, 1, 4, 2]).status == A_WINS
        assert play([1, 0, 2, 3, 4, 6]).status == B_WINS  # B takes the left column
        assert play([0, 1, 4, 2, 8]).status == A_WINS  # main diagonal
        assert play([2, 1, 4, 3, 6]).status == A_WINS  # anti-diagonal

    def test_full_board_draw(self):
        state = play([0, 1, 2, 4, 3, 5, 7, 6, 8])
        assert state.status == DRAW

    def test_board_full_scoring_gives_majority_win(self):
        game = GameSpec(rows=1, cols=3, win_condition=BOARD_FULL_SCORING, k=None)
        state = play([0, 1, 2], game)
        assert state.status == A_WINS  # 2 stones vs 1

    def test_one_by_one_game(self):
        game = GameSpec(rows=1, cols=1, win_condition=BOARD_FULL_SCORING, k=None)
        state = initial_state(game)
        assert legal_moves(state, game) == [0]
        assert apply_move(state, 0, game).status == A_WINS


class TestInvariants:
    def test_stone_balance_enforced(self):
        with pytest.raises(ValidationError):
            GameState(cells=(1, 1, 0, 0, 0, 0, 0, 0, 0))

    def test_player_to_move_follows_from_the_stones(self):
        assert GameState(cells=(0,) * 9).to_move == "A"
        assert GameState(cells=(1,) + (0,) * 8).to_move == "B"
        assert GameState(cells=(1, 2) + (0,) * 7).to_move == "A"
        with pytest.raises(TypeError):
            GameState(cells=(1,) + (0,) * 8, to_move="A")

    @pytest.mark.parametrize("cells, status", [
        ((3,) + (0,) * 8, ONGOING),
        ((-1,) + (0,) * 8, ONGOING),
        ((0,) * 9, "banana"),
        ((1.0,) + (0,) * 8, ONGOING),  # equals 1 but is no int: key() could not index
    ])
    def test_malformed_state_rejected(self, cells, status):
        with pytest.raises(ValidationError):
            GameState(cells=cells, status=status)

    # a bool is an int subclass, but like a bool cell it is no move
    @pytest.mark.parametrize("move", [1.5, "4", None, -1, 9, True, False])
    def test_malformed_move_rejected(self, move):
        game = tic_tac_toe()
        with pytest.raises(ValidationError):
            apply_move(initial_state(game), move, game)

    def test_moves_alternate(self):
        game = tic_tac_toe()
        state = initial_state(game)
        assert state.to_move == "A"
        state = apply_move(state, 4, game)
        assert state.to_move == "B"
        assert state.cells[4] == 1

    def test_occupied_cell_rejected(self):
        game = tic_tac_toe()
        state = apply_move(initial_state(game), 4, game)
        with pytest.raises(ValidationError):
            apply_move(state, 4, game)


class TestSpecValidation:
    def test_k_exceeding_board_rejected(self):
        with pytest.raises(ValidationError):
            GameSpec(rows=3, cols=3, k=4)

    def test_empty_board_rejected(self):
        with pytest.raises(ValidationError):
            GameSpec(rows=0, cols=3)

