"""Seeded input generators for the end-to-end benchmark.

Both generators are pure functions of their arguments: the same seed
gives the same bytes, so a run is reproducible from its seed alone and
the program under test receives only the generated inputs.

* :func:`firehose_trace` writes a ``diogenes-cupti-activity/1`` document
  (the schema ``repro.apps.replay`` ingests) shaped like a DL training
  loop.  Every loop plants the three problem classes the paper looks
  for: an unnecessary device sync, duplicate weight uploads, and a
  loss readback whose first use trails the copy (a misplaced sync).
  The record structure is fixed; the seed varies timings, first-use
  delays and payload contents, so event counts (and so the work per
  report) do not depend on the seed.
* :func:`open_loop_schedule` draws the service workloads' arrival
  stream: arrival times, job mix and repeats.
"""

from __future__ import annotations

import json
import random

#: Training-loop iterations in the firehose trace.  At this size one
#: ``diogenes run`` report (1,500 stage-2 events, 2.6 MB of JSON) takes
#: about 1.2 s on a 2-core x86 VM.
FIREHOSE_LOOPS = 100

#: Layers per training iteration (each with its own weights upload,
#: forward/backward kernels and gradient readback).
FIREHOSE_LAYERS = 6

#: Open-loop arrival rate, submissions per second.  Every fresh job
#: costs the analysing process about 70 ms before its first iteration,
#: so at 5/s it was 45-60% busy, and 100% busy when the host ran 1.6x
#: slower, where latency grew without bound.  At 3/s it is 25-35% busy.
ARRIVAL_RATE = 3.0

#: Share of submissions that are fresh paper apps, and that repeat an
#: earlier submission; the rest are fresh synthetic jobs.
APP_SHARE = 0.10
REPEAT_SHARE = 0.30

SYNTHETIC_FAMILIES = (
    "synthetic-unnecessary-sync",
    "synthetic-misplaced-sync",
    "synthetic-duplicate-transfer",
    "synthetic-private-sync",
    "synthetic-quiet",
)
#: Up to 40 iterations, not 120: each iteration adds about 1.2 ms to a
#: job, and the larger jobs made queueing amplify the host's own speed
#: drift into the latency tail.
SYNTHETIC_ITERATIONS = (3, 40)

#: Paper apps at the scale of the repository's golden reports; each
#: submission gets a fresh ``seed``.
SEEDED_APPS = (
    ("cumf-als", {"iterations": 3, "users": 120, "items": 80}),
    ("rodinia-gaussian", {"n": 24}),
)



def firehose_trace(seed: int, loops: int = FIREHOSE_LOOPS,
                   layers: int = FIREHOSE_LAYERS) -> dict:
    """A seeded CUPTI-activity trace of a DL training loop."""
    rng = random.Random(f"firehose-{seed}")
    salt = rng.getrandbits(32)
    records: list[dict] = []
    t = 0.0

    def memcpy(copy: str, line: int, nbytes: int, duration: float,
               **fields) -> None:
        nonlocal t
        records.append({"kind": "memcpy", "copy": copy, "api": "cudaMemcpy",
                        "bytes": nbytes, "stream": 0, "start": t,
                        "duration": duration, "file": "train.cpp",
                        "line": line, **fields})
        t += duration + 5e-6

    def kernel(name: str, line: int, buffer: str, payload: str,
               nbytes: int) -> float:
        nonlocal t
        duration = 150e-6 * rng.uniform(0.8, 1.25)
        records.append({"kind": "kernel", "name": name,
                        "duration": duration, "stream": 0, "start": t,
                        "file": "train.cpp", "line": line,
                        "writes": [{"buffer": buffer, "payload": payload,
                                    "bytes": nbytes}]})
        t += 10e-6
        return duration

    def host_read(buffer: str, line: int, delay: float) -> None:
        nonlocal t
        t += delay
        records.append({"kind": "host_read", "buffer": buffer, "start": t,
                        "file": "train.cpp", "line": line})
        t += 5e-6

    for i in range(loops):
        memcpy("h2d", 42, 65536, 15e-6, payload=f"batch{i}-{salt}",
               buffer="batch_dev")
        for layer in range(layers):
            # Same payload every iteration: a duplicate transfer.
            memcpy("h2d", 45 + layer, 131072, 20e-6,
                   payload=f"weights{layer}-{salt}",
                   buffer=f"weights{layer}_dev")
        pending = 0.0
        for layer in range(layers):
            pending += kernel(f"forward{layer}", 50 + layer,
                              f"acts{layer}_dev", f"acts{layer}.{i}-{salt}",
                              65536)
        for layer in reversed(range(layers)):
            pending += kernel(f"backward{layer}", 55 + layer,
                              f"grad{layer}_dev", f"grad{layer}.{i}-{salt}",
                              16384)
        pending += kernel("loss", 58, "loss_dev", f"loss{i}-{salt}", 2048)
        # Nothing reads device results before the next synchronous
        # copy: an unnecessary sync.
        records.append({"kind": "sync", "api": "cudaDeviceSynchronize",
                        "stream": 0, "start": t, "duration": pending,
                        "file": "train.cpp", "line": 65})
        t += pending
        for layer in range(layers):
            memcpy("d2h", 80 + layer, 16384, 10e-6, buffer=f"grad{layer}_dev",
                   dst=f"grad{layer}_host")
            host_read(f"grad{layer}_host", 90 + layer, 2e-6)
        memcpy("d2h", 60, 2048, 10e-6, buffer="loss_dev", dst="loss_host")
        # The loss is first used long after its copy: a misplaced sync.
        host_read("loss_host", 70, rng.uniform(100e-6, 400e-6))
        t += 50e-6
    return {"schema": "diogenes-cupti-activity/1",
            "label": f"firehose-{seed}",
            "comment": f"seeded {loops}-iteration DL training loop "
                       f"({layers} layers) for the end-to-end benchmark",
            "records": records}


def write_firehose_trace(path, seed: int, **kwargs) -> None:
    """Write :func:`firehose_trace` as compact JSON."""
    with open(path, "w") as fp:
        json.dump(firehose_trace(seed, **kwargs), fp, separators=(",", ":"))


def _stratified(rng: random.Random, count: int, low: int,
                high: int) -> list[int]:
    """``count`` distinct integers in ``[low, high]``, one per equal-width
    bin, in random order: every seed covers the whole range evenly."""
    span = high - low + 1
    if count == 0:
        return []
    if count > span:
        raise ValueError(f"cannot draw {count} distinct values from "
                         f"[{low}, {high}]")
    edges = [low + k * span // count for k in range(count + 1)]
    values = [rng.randrange(edges[k], edges[k + 1]) for k in range(count)]
    rng.shuffle(values)
    return values


def open_loop_schedule(seed: int, seconds: float,
                       rate: float = ARRIVAL_RATE) -> list[dict]:
    """The open-loop arrival stream for the service workloads.

    ``rate * seconds`` arrivals, one at a uniformly random instant in
    each ``1 / rate`` slot of ``[0, seconds)``, so every seed sends the
    same number of submissions.  Each entry is ``{"at", "workload",
    "params", "repeat_of"}``; a repeat carries the index of the earlier
    submission it repeats (same workload, same params) and
    ``repeat_of`` is ``None`` for a fresh job.

    Jittered slots rather than Poisson arrivals: at this load Poisson
    clusters made the p90 latency differ by 27% (quartile spread)
    between seeds in a queueing simulation with the service's own job
    times, more than any regression bound; the slots keep every gap
    random while bounding how many submissions can bunch up.

    The mix is exact rather than sampled: 60% fresh synthetic jobs
    (families in turn, ``iterations`` stratified over 3-40), 10% fresh
    paper apps with a fresh seed each, 30% repeats.
    """
    rng = random.Random(f"schedule-{seed}")
    n = max(1, round(rate * seconds))
    times = [(k + rng.random()) * seconds / n for k in range(n)]
    n_apps = round(n * APP_SHARE)
    n_repeats = min(round(n * REPEAT_SHARE), n - 1)
    n_synthetic = n - n_apps - n_repeats
    # Apps (the heaviest jobs) and repeats are spread over the stream,
    # one in each equal stretch of it, so no seed bunches them up.  The
    # first submission is fresh: a repeat needs an earlier one.
    kinds = ["synthetic"] * n
    for kind, count, first in (("app", n_apps, 0), ("repeat", n_repeats, 1)):
        free = [k for k in range(first, n) if kinds[k] == "synthetic"]
        for pick in _stratified(rng, count, 0, len(free) - 1):
            kinds[free[pick]] = kind

    families = [SYNTHETIC_FAMILIES[k % len(SYNTHETIC_FAMILIES)]
                for k in range(n_synthetic)]
    rng.shuffle(families)
    iterations = {
        family: _stratified(rng, families.count(family),
                            *SYNTHETIC_ITERATIONS)
        for family in SYNTHETIC_FAMILIES if family in families}
    apps = [SEEDED_APPS[k % len(SEEDED_APPS)] for k in range(n_apps)]
    rng.shuffle(apps)
    app_seeds = rng.sample(range(1000, 1_000_000), n_apps)

    schedule: list[dict] = []
    fresh: list[int] = []
    for at, kind in zip(times, kinds):
        if kind == "repeat":
            earlier = schedule[rng.choice(fresh)]
            entry = {"workload": earlier["workload"],
                     "params": dict(earlier["params"]),
                     "repeat_of": earlier["index"]}
        elif kind == "synthetic":
            family = families.pop()
            entry = {"workload": family,
                     "params": {"iterations": iterations[family].pop()},
                     "repeat_of": None}
        else:
            name, params = apps.pop()
            entry = {"workload": name,
                     "params": {**params, "seed": app_seeds.pop()},
                     "repeat_of": None}
        entry = {"index": len(schedule), "at": at, **entry}
        if entry["repeat_of"] is None:
            fresh.append(entry["index"])
        schedule.append(entry)
    return schedule
