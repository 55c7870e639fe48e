"""The benchmark tracer's targets name attributes the package still has.

``bench/tracer.py`` wraps module attributes by name and only lists a
target it cannot find, so a refactor that drops or renames a traced
function would silently stop that measurement.  This resolves every
target by ``getattr`` without installing any wrapper, and runs the BCJR
hook on one wrapped kernel call.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from infoplay import turbo

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# enumeration and self-play no longer step through these game functions,
# and the package no longer has them: the move rules live in the oracles,
# and positions are integer keys, written as text only by snapshots
KNOWN_MISSING = {
    "infoplay.games.GameState.key",
    "infoplay.games.apply_move",
    "infoplay.games.legal_moves",
    "infoplay.capacity.apply_move",
    "infoplay.capacity.legal_moves",
    "infoplay.selfplay.apply_move",
    "infoplay.selfplay.legal_moves",
}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_target_resolves_except_the_known_missing():
    missing = set()
    for module_name, attribute, *_ in _tracer().TARGETS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{attribute}")
        else:
            assert callable(owner), f"{module_name}.{attribute}"
    assert missing == KNOWN_MISSING


def test_bcjr_hook_reads_the_kernel_arguments():
    # the hook counts bit steps from the shape of the first argument, so
    # the kernel's calling convention is part of what the benchmark reads
    tracer_module = _tracer()
    tracer = tracer_module.Tracer()
    wrapped = tracer.wrap(turbo._bcjr_batch, "turbo.bcjr", span=True,
                          hook=tracer_module._bcjr_hook)
    rng = np.random.default_rng(0)
    ls, lp = rng.normal(2.0, 4.0, (2, 3, 10))
    la = rng.normal(0.0, 4.0, (3, 8))
    code = turbo.RscCode()
    got = wrapped(ls, lp, la, code, True)
    assert tracer.tally["turbo.bit_steps"] == 30
    assert np.array_equal(got, turbo._bcjr_batch(ls, lp, la, code, True))
