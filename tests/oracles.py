"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch (explicit registers,
exhaustive enumeration, plain recursion) so it shares no code path with
the library it checks: nothing is imported from ``infoplay``, and a game
is read only through its ``rows``, ``cols``, ``k`` and ``win_condition``
attributes.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

ONGOING, A_WINS, B_WINS, DRAW = "ongoing", "A_wins", "B_wins", "draw"


def ref_encode_75(bits, terminate=True):
    """Bit-level (7,5) RSC encoder with an explicit two-cell register."""
    r1 = r2 = 0
    sys_out, par_out = [], []
    for u in bits:
        a = u ^ r1 ^ r2
        sys_out.append(u)
        par_out.append(a ^ r2)
        r1, r2 = a, r1
    if terminate:
        for _ in range(2):
            u = r1 ^ r2  # forces the register input to zero
            a = 0
            sys_out.append(u)
            par_out.append(a ^ r2)
            r1, r2 = a, r1
        assert (r1, r2) == (0, 0)
    return np.array(sys_out), np.array(par_out)


def _ref_trellis(code):
    """Transition tables of an RSC code, built bit by bit from its
    polynomials: next state, BPSK parity symbol, the tail input that
    feeds a zero back, and the two incoming (input, state) edges of each
    state in order of (state, input)."""
    m, n = code.memory, 1 << code.memory

    def parity(x):
        return bin(x).count("1") & 1

    next_state = np.zeros((2, n), dtype=int)
    parity_sym = np.zeros((2, n))
    term_bit = np.zeros(n, dtype=int)
    for s in range(n):
        for u in (0, 1):
            a = parity(code.feedback_poly & ((u << m) | s))
            next_state[u, s] = (a << (m - 1)) | (s >> 1)
            parity_sym[u, s] = 1.0 - 2.0 * parity(code.feedforward_poly & ((a << m) | s))
            if a == 0:
                term_bit[s] = u
    in_u = np.zeros((n, 2), dtype=int)
    in_s = np.zeros((n, 2), dtype=int)
    fill = [0] * n
    for s in range(n):
        for u in (0, 1):
            t = next_state[u, s]
            in_u[t, fill[t]], in_s[t, fill[t]] = u, s
            fill[t] += 1
    return next_state, parity_sym, term_bit, in_u, in_s


def ref_bcjr_batch(ls, lp, la, code, terminated, exact=True):
    """Frozen batch-first log-MAP forward/backward: (B, K) channel LLRs and
    (B, N) a-priori LLRs in, (B, N) a-posteriori LLRs out.  Kept as the
    bit-for-bit reference for the library's batch-last kernel."""
    next_state, parity_sym, term_bit, in_u, in_s = _ref_trellis(code)
    n_states = 1 << code.memory
    batch, k_total = ls.shape
    n_info = la.shape[1]
    acc = np.logaddexp if exact else np.maximum

    xu = np.array([1.0, -1.0])
    lsa = ls.copy()
    lsa[:, :n_info] += la
    gamma = 0.5 * lsa[:, :, None, None] * xu[None, None, :, None] + \
        0.5 * lp[:, :, None, None] * parity_sym[None, None, :, :]
    if terminated:
        forced = np.zeros((2, n_states), dtype=bool)
        forced[term_bit, np.arange(n_states)] = True
        gamma[:, n_info:, ~forced] = -np.inf

    alpha = np.full((k_total + 1, batch, n_states), -np.inf)
    alpha[0, :, 0] = 0.0
    for k in range(k_total):
        cand = alpha[k][:, None, :] + gamma[:, k]
        nxt = acc(cand[:, in_u[:, 0], in_s[:, 0]], cand[:, in_u[:, 1], in_s[:, 1]])
        alpha[k + 1] = nxt - nxt.max(axis=1, keepdims=True)

    beta = np.full((batch, n_states), -np.inf)
    if terminated:
        beta[:, 0] = 0.0
    else:
        beta[:] = 0.0
    app = np.empty((batch, n_info))
    for k in range(k_total - 1, -1, -1):
        edge = gamma[:, k] + beta[:, next_state]
        if k < n_info:
            metric = alpha[k][:, None, :] + edge
            app[:, k] = acc.reduce(metric[:, 0, :], axis=1) - acc.reduce(metric[:, 1, :], axis=1)
        beta = acc(edge[:, 0, :], edge[:, 1, :])
        beta -= beta.max(axis=1, keepdims=True)
    return app


def ref_s_random_permutation(n, seed, s=None, max_tries=1000):
    """Greedy S-random placement by direct scan: each step takes the first
    candidate at distance >= s from each of the last s values placed; a
    stuck attempt reshuffles the unplaced values to the front.  Returns
    the permutation as a list, or None when every attempt gets stuck."""
    if s is None:
        s = int(np.sqrt(n / 2))
    rng = np.random.default_rng(seed)
    vector = list(rng.permutation(n))
    for _ in range(max_tries):
        candidates = list(vector)
        perm = []
        while candidates:
            for idx, c in enumerate(candidates):
                if all(abs(c - r) >= s for r in perm[-s:]):
                    perm.append(c)
                    del candidates[idx]
                    break
            else:
                break
        if not candidates:
            return [int(v) for v in perm]
        rng.shuffle(candidates)
        vector = candidates + perm
    return None


def brute_force_map(ls, lp, la, n_info):
    """Exhaustive MAP a-posteriori LLRs for the terminated (7,5) code."""
    metrics = np.empty(2**n_info)
    words = np.empty((2**n_info, n_info), dtype=int)
    for w in range(2**n_info):
        u = np.array([(w >> i) & 1 for i in range(n_info)])
        words[w] = u
        sys_bits, par_bits = ref_encode_75(list(u))
        x_sys = 1 - 2 * sys_bits
        x_par = 1 - 2 * par_bits
        x_u = 1 - 2 * u
        metrics[w] = 0.5 * (
            (x_sys * ls).sum() + (x_par * lp).sum() + (x_u * la).sum()
        )
    app = np.empty(n_info)
    for n in range(n_info):
        app[n] = logsumexp(metrics[words[:, n] == 0]) - logsumexp(metrics[words[:, n] == 1])
    return app


def _makes_run(cells, rows, cols, move, k):
    """Whether the stone at ``move`` lies on a run of at least ``k`` equal
    stones along a row, column or diagonal, counted cell by cell."""
    r0, c0 = divmod(move, cols)
    stone = cells[move]
    for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
        run = 1
        for sign in (1, -1):
            r, c = r0 + sign * dr, c0 + sign * dc
            while 0 <= r < rows and 0 <= c < cols and cells[r * cols + c] == stone:
                run += 1
                r, c = r + sign * dr, c + sign * dc
        if run >= k:
            return True
    return False


class RefState(NamedTuple):
    """A position of the reference rules: cells (0 empty, 1 A, 2 B) and
    status.  A moves first, so A is to move iff both have as many stones."""

    cells: tuple
    status: str = ONGOING

    @property
    def to_move(self):
        return "A" if self.cells.count(1) == self.cells.count(2) else "B"

    def key(self):
        """The text key a snapshot writes: one of ``.AB`` per cell, then
        the player to move."""
        return "".join(".AB"[c] for c in self.cells) + ":" + self.to_move

    def position(self):
        """The integer key the agents' tables use: bit i for A's stone on
        cell i, bit ``cells + i`` for B's."""
        n, key = len(self.cells), 0
        for i, c in enumerate(self.cells):
            if c == 1:
                key |= 1 << i
            elif c == 2:
                key |= 1 << (n + i)
        return key


def ref_start(game):
    return RefState((0,) * (game.rows * game.cols))


def ref_moves(state):
    """The empty cells in row-major order; a finished game has none to ask for."""
    if state.status != ONGOING:
        raise ValueError("the game is over")
    return [i for i, c in enumerate(state.cells) if c == 0]


def ref_move(state, move, game):
    """The position after the player to move places a stone on ``move``.
    A k-in-a-row game is won by a run of at least ``k`` and drawn when the
    board fills; a full board of a scored game goes to the player with
    more stones (A, on an odd board) and is drawn otherwise."""
    if (state.status != ONGOING or type(move) is not int
            or not 0 <= move < len(state.cells) or state.cells[move] != 0):
        raise ValueError(f"illegal move {move!r}")
    stone = 1 if state.to_move == "A" else 2
    cells = state.cells[:move] + (stone,) + state.cells[move + 1:]
    scored = game.win_condition == "board_full_scoring"
    if not scored and _makes_run(cells, game.rows, game.cols, move, game.k):
        status = A_WINS if stone == 1 else B_WINS
    elif 0 in cells:
        status = ONGOING
    else:
        status = A_WINS if scored and cells.count(1) > cells.count(2) else DRAW
    return RefState(cells, status)


def minimax_value(state, game, cache=None):
    """Game-theoretic value of a ``RefState`` from A's perspective: +1 / 0 / -1."""
    cache = {} if cache is None else cache
    if state.status != ONGOING:
        return {A_WINS: 1, B_WINS: -1, DRAW: 0}[state.status]
    key = state.position()
    if key in cache:
        return cache[key]
    children = [minimax_value(ref_move(state, m, game), game, cache)
                for m in ref_moves(state)]
    val = max(children) if state.to_move == "A" else min(children)
    cache[key] = val
    return val


def ref_count_positions(rows, cols, k=None, symmetry=False):
    """Positions reachable from the empty rows x cols board, terminal ones
    included, keyed on (cells, player to move).

    ``k=None`` is board-full scoring (no win rule); otherwise a player
    wins by placing a stone that makes a run of at least ``k`` along a row,
    column or diagonal.  With ``symmetry`` positions are counted up to the
    reflections and rotations of the board.  Plain recursion over tuples
    with ``_makes_run`` as the win check.
    """
    n = rows * cols

    symmetries = [lambda r, c: (r, c), lambda r, c: (rows - 1 - r, c),
                  lambda r, c: (r, cols - 1 - c), lambda r, c: (rows - 1 - r, cols - 1 - c)]
    if rows == cols:
        symmetries += [lambda r, c: (c, r), lambda r, c: (cols - 1 - c, r),
                       lambda r, c: (c, rows - 1 - r), lambda r, c: (cols - 1 - c, rows - 1 - r)]
    if not symmetry:
        symmetries = symmetries[:1]
    images = []
    for symmetry_map in symmetries:
        image = [0] * n
        for r in range(rows):
            for c in range(cols):
                r2, c2 = symmetry_map(r, c)
                image[r * cols + c] = r2 * cols + c2
        images.append(image)

    seen = set()

    def visit(cells, player, over):
        key = (min(tuple(cells[i] for i in image) for image in images), player)
        if key in seen:
            return
        seen.add(key)
        if over:
            return
        stone = 1 if player == "A" else 2
        for p in range(n):
            if cells[p] == 0:
                child = list(cells)
                child[p] = stone
                won = k is not None and _makes_run(child, rows, cols, p, k)
                visit(tuple(child), "B" if player == "A" else "A", won or 0 not in child)

    visit((0,) * n, "A", False)
    return len(seen)
