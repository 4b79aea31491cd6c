"""A timing-free guard on the per-call work of the simulated CUDA stack.

Every collection stage replays the application once, so the Python
calls each simulated API call makes are paid five times per report.
This counts them, with cProfile, for one bare run of the bundled
``dl-training`` replay (73 ops) and holds the count per op under a
ceiling.  Calls, not seconds: the count does not move with the host.

Only calls into ``repro`` functions are counted.  Comprehensions,
generator expressions and lambdas (``<listcomp>`` ...) are left out,
because Python 3.12 inlines comprehensions, and so are numpy and the
standard library, whose internals vary by version.  The ceiling sits
about 10% above the count this guard was written at (29.6 per op,
against 42.9 before the call path was slimmed); raising it is a
deliberate edit, noted in CHANGES.md.
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats

import repro
from repro.apps.replay import ReplayApp

#: Calls into ``repro`` functions per replayed op, at most.
CEILING = 32.5

_REPRO_DIR = str(pathlib.Path(repro.__file__).resolve().parent)


def repro_calls_per_op(app: ReplayApp) -> float:
    """``repro`` function calls per op in one bare ``execute()``.

    A first run warms the per-instance replay plan and the process-wide
    caches, so the counted run is the one every later stage makes.
    """
    app.execute().close()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        ctx = app.execute()
    finally:
        profiler.disable()
    ctx.close()
    calls = sum(
        stats[1]
        for (filename, _line, function), stats
        in pstats.Stats(profiler).stats.items()
        if str(pathlib.Path(filename).resolve()).startswith(_REPRO_DIR)
        and not function.startswith("<"))
    return calls / len(app.timeline)


def test_bare_replay_stays_under_the_call_ceiling():
    per_op = repro_calls_per_op(ReplayApp("dl-training"))
    assert per_op <= CEILING, (
        f"{per_op:.1f} repro calls per replayed op, over the ceiling of "
        f"{CEILING}: something added Python work to every simulated call")
