"""
Instrumented self-play
======================

Two tabular agents learn tic-tac-toe from each other.  Each generation
the harness freezes the agents and measures how much each one decodes of
its opponent (normalized mutual information between predicted and actual
moves), tracks Elo, and applies the stopping rule: once the exchanged
information stops moving, learning has converged, here to the
game-theoretic draw.

Afterwards the same EXIT machinery used for the turbo decoder draws each
agent's information transfer curve, with a-priori knowledge injected by
revealing the opponent's next move with calibrated probability.
"""

from pathlib import Path

import numpy as np

from infoplay import LearnConfig, agent_exit_curve, learn, render_exit_chart, tic_tac_toe
from infoplay.selfplay import generation_csv

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

game = tic_tac_toe()
config = LearnConfig(generations=30, episodes_per_generation=400,
                     eval_episodes=200, anneal_generations=20)
records, agent_a, agent_b = learn(game, config, seed=3)

print("gen   I_BA    I_AB    draws  A wins  Elo(A)")
for r in records:
    print(f"{r.generation:3d}  {r.i_ba:.3f}   {r.i_ab:.3f}   "
          f"{r.draw_rate:5.2f}  {r.a_win_rate:5.2f}  {r.elo_a:7.1f}")
stopped = len(records) < config.generations
print(f"\nstopping rule {'fired at generation ' + str(len(records)) if stopped else 'did not fire'}")

csv_path = OUT / "generations.csv"
csv_path.write_text(generation_csv(records, seed=3))
print(f"generation log written to {csv_path}")

# agent EXIT chart: A's curve against B's transposed curve
grid = np.linspace(0.0, 1.0, 6)
curve_a = agent_exit_curve(agent_a, agent_b, game, grid, episodes=300, seed=4)
curve_b = agent_exit_curve(agent_b, agent_a, game, grid, episodes=300, seed=5)
chart = OUT / "agent_exit.svg"
chart.write_text(render_exit_chart(curve_a, curve_b))
print(f"agent EXIT chart written to {chart}")
