"""The one count check, ``require_ints``, and every entry point that uses it
for a lower bound."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infoplay.capacity import capacity_bounds, log2_factorial
from infoplay.errors import ValidationError, require_ints
from infoplay.exit_chart import measure_exit_curve
from infoplay.games import GameSpec
from infoplay.selfplay import AgentModel, LearnConfig, agent_exit_curve
from infoplay.turbo import (ChannelModel, RscCode, random_interleaver, s_random_interleaver,
                            simulate_turbo)

LEASTS = st.one_of(st.none(), st.integers())


@given(least=LEASTS, count=st.integers())
def test_an_int_passes_iff_it_reaches_least(least, count):
    if least is None or count >= least:
        require_ints(least, n=count)
    else:
        message = re.escape(f"n must be at least {least}, got {count}")
        with pytest.raises(ValidationError, match=message):
            require_ints(least, n=count)


@given(least=LEASTS, count=st.one_of(st.booleans(), st.floats(), st.text()))
def test_a_non_int_is_refused_at_any_least(least, count):
    with pytest.raises(ValidationError, match="n must be an int"):
        require_ints(least, n=count)


def test_the_first_bad_count_is_named():
    with pytest.raises(ValidationError, match="b must be at least 1"):
        require_ints(1, a=1, b=0, c=True)


def _learn(name):
    return lambda value: LearnConfig(**{name: value})


def _simulate(name):
    counts = dict(n_info=1, n_blocks=1, max_iters=1)
    return lambda value: simulate_turbo(ebn0_db=1.0, seed=1, **dict(counts, **{name: value}))


# (entry point, site, count name, least): each site calls the entry point
# with that count set to the given value and every other input valid
SITES = [
    ("log2_factorial", log2_factorial, "n", 0),
    # capacity_bounds hands max_states to enumerate_reachable_states
    ("enumerate_reachable_states",
     lambda value: capacity_bounds(GameSpec(1, 1, k=1), max_states=value), "max_states", 1),
    ("random_interleaver", lambda value: random_interleaver(value, 1), "n", 0),
    ("s_random_interleaver", lambda value: s_random_interleaver(value, 1), "n", 0),
    ("s_random_interleaver", lambda value: s_random_interleaver(10, 1, s=value), "s", 0),
    ("simulate_turbo", _simulate("n_info"), "n_info", 1),
    ("simulate_turbo", _simulate("n_blocks"), "n_blocks", 1),
    ("simulate_turbo", _simulate("max_iters"), "max_iters", 1),
    ("measure_exit_curve",
     lambda value: measure_exit_curve(RscCode(), ChannelModel(0.8, rate=1 / 3), [0.0, 0.5],
                                      value, seed=1), "samples_per_point", 1000),
    ("GameSpec", lambda value: GameSpec(value, 3), "rows", 1),
    ("GameSpec", lambda value: GameSpec(3, value), "cols", 1),
    ("LearnConfig", _learn("generations"), "generations", 1),
    ("LearnConfig", _learn("episodes_per_generation"), "episodes_per_generation", 1),
    ("LearnConfig", _learn("eval_episodes"), "eval_episodes", 100),
    ("LearnConfig", _learn("anneal_generations"), "anneal_generations", 0),
    ("LearnConfig", _learn("stop_window"), "stop_window", 2),
    ("agent_exit_curve",
     lambda value: agent_exit_curve(AgentModel(role="A"), AgentModel(role="B"),
                                    GameSpec(1, 3, k=None), [0.0, 1.0], value, seed=1),
     "episodes", 100),
]


@pytest.mark.parametrize("site, name, least", [
    pytest.param(site, name, least, id=f"{entry}-{name}") for entry, site, name, least in SITES
])
def test_every_count_site_takes_least_and_refuses_less(site, name, least):
    with pytest.raises(ValidationError, match=f"{name} must be at least {least}, got {least - 1}"):
        site(least - 1)
    with pytest.raises(ValidationError, match=f"{name} must be an int, got True"):
        site(True)
    site(least)
