"""
Capacity bounds for placement games
===================================

How much information can a game's board carry?  Two upper bounds and,
for small games, the exact answer by exhaustive enumeration.
"""

from infoplay import GameSpec, capacity_bounds, log2_factorial, tic_tac_toe
from infoplay.capacity import capacity_csv

# The 19x19 board: 361! move orderings is the classic back-of-envelope
# bound, about 2552 bits.  Exact enumeration is hopeless at this size, so
# the exact field stays empty.
print(f"log2(361!) = {log2_factorial(361):.1f} bits")
go_like = GameSpec(rows=19, cols=19, k=5)
print(capacity_csv([capacity_bounds(go_like)]))

# Tic-tac-toe is small enough to enumerate: 5478 reachable positions,
# i.e. about 12.4 bits, far below the 9*log2(3) = 14.3-bit labeling bound.
ttt = capacity_bounds(tic_tac_toe())
print(capacity_csv([ttt]))

# 4x4 with four in a row still counts exactly: 9,722,011 positions, about
# 23.2 bits, against 16*log2(3) = 25.4 bits from labelings and
# log2(16!) = 44.3 bits from orderings.
print(capacity_csv([capacity_bounds(GameSpec(rows=4, cols=4, k=4))]))
