"""
EXIT charts: open and pinched tunnels
=====================================

The extrinsic transfer curve of a BCJR component decoder, measured by
Monte Carlo: inject synthetic a-priori information of known content,
decode once, measure the information of the extrinsic output.  Plotting
one decoder's curve against its partner's transposed curve predicts
whether iterative decoding converges: an open tunnel from (0,0) to (1,1)
lets the staircase trajectory climb to certainty, a pinch stops it at a
fixed point.
"""

from pathlib import Path

import numpy as np

from infoplay import (
    ChannelModel,
    RscCode,
    decoding_trajectory,
    measure_exit_curve,
    render_exit_chart,
    tunnel_analysis,
)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

code = RscCode(0o7, 0o5, 2)
grid = np.arange(0.0, 0.91, 0.1)

for ebn0_db in (0.8, -4.0):
    channel = ChannelModel(ebn0_db, rate=1 / 3)
    curve = measure_exit_curve(code, channel, grid, samples_per_point=20_000,
                               seed=1, label=f"{ebn0_db}dB")
    # a symmetric turbo code uses the same component twice, so the partner
    # curve is this curve transposed
    report = tunnel_analysis(curve, curve)
    trajectory = decoding_trajectory(curve, curve)
    end = trajectory.steps[-1]
    print(f"Eb/N0 = {ebn0_db:+.1f} dB: tunnel {report.status} on the measured domain, "
          f"min gap {report.min_gap:+.3f}; staircase ends at "
          f"({end[0]:.2f}, {end[1]:.2f}) after {len(trajectory.steps)} steps")
    svg = render_exit_chart(curve, curve, trajectory)
    path = OUT / f"exit_{ebn0_db:+.1f}dB.svg"
    path.write_text(svg)
    print(f"  chart written to {path}")
