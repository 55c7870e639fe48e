"""Information-theoretic measurement of iterative decoders and self-play
agents: Shannon/LLR information estimators, capacity bounds for placement
games, a reference turbo decoder with EXIT-chart analysis, and an
instrumented tabular self-play harness evaluated with the same tools.
"""

from .capacity import (
    CapacityBound,
    Dominance,
    capacity_bounds,
    dominance_check,
    enumerate_reachable_states,
    log2_factorial,
)
from .entropy import (
    JointCounts,
    LlrBlock,
    MutualInfo,
    binary_entropy,
    j_function,
    j_inverse,
    mutual_information_plugin,
    sample_consistent_gaussian_apriori,
)
from .exit_chart import (
    ExitCurve,
    Trajectory,
    TunnelReport,
    decoding_trajectory,
    measure_exit_curve,
    render_exit_chart,
    tunnel_analysis,
)
from .games import GameSpec, tic_tac_toe
from .selfplay import (
    AgentModel,
    LearnConfig,
    agent_exit_curve,
    elo_update,
    elo_win_prob,
    learn,
    load_agent,
    save_agent,
)
from .turbo import (
    ChannelModel,
    Interleaver,
    RscCode,
    TurboTrace,
    bcjr_decode,
    random_interleaver,
    rsc_encode,
    s_random_interleaver,
    simulate_turbo,
    transmit,
    turbo_encode,
)

__version__ = "0.1.0"
