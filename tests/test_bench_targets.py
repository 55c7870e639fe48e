"""The benchmark tracer's targets name attributes the package still has.

``bench/tracer.py`` wraps module attributes by name and only lists a
target it cannot find, so a refactor that drops or renames a traced
function would silently stop that measurement.  This resolves every
target by ``getattr`` without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

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


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_target_resolves_except_the_known_missing():
    missing = set()
    for module_name, attribute, *_ in _tracer_targets():
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{attribute}")
        else:
            assert callable(owner), f"{module_name}.{attribute}"
    assert missing == KNOWN_MISSING
