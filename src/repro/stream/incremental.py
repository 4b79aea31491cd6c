"""Windowed incremental analysis over in-flight collection runs.

:class:`StreamAnalyzer` is an :class:`~repro.stream.sink.EventSink`
that tails the columnar builders while the stage drivers are still
appending, re-runs the vectorized stage-5 core
(:func:`repro.core.analysis.analyze_columns`) over the events seen so
far, and publishes versioned rolling snapshots: ranked problems,
benefit deltas, and event rates.

Two properties make this honest rather than merely live:

* **One analysis core.**  Every snapshot — including the final one —
  goes through the same ``analyze_columns`` the batch path uses, and
  the final snapshot is literally the batch :class:`AnalysisResult`
  handed over by ``assemble_report``, so streaming output can never
  drift from what ``diogenes run`` would report.
* **Self-accounting.**  Each recompute's wall time is charged to the
  perturbation ledger's ``stream`` bucket and exported as Prometheus
  gauges (``repro_stream_*``), so the streaming layer's own cost shows
  up in the tool's overhead report like every other perturbation.

Snapshot cadence is doubly bounded:

* **geometric** — a recompute runs after ``window_events`` appends at
  first, then only once the run has grown by :data:`WINDOW_GROWTH`
  (50%) since the last snapshot, so total recompute work is a small
  constant factor of one batch analysis;
* **self-limiting** — each snapshot's measured cost sets the minimum
  wall gap before the next one (``cost / overhead_fraction``), so the
  streaming layer's share of wall time is bounded by
  ``overhead_fraction`` *by construction*, no matter how problem-dense
  the workload is.  That is what keeps streaming overhead inside the
  benchmark's 15% budget on the 1M-event firehose.
"""

from __future__ import annotations

import time

import repro.obs as obs
from repro.stream.sink import EventSink

#: Stage names whose builders the analyzer knows how to tail.
_STAGE2 = "stage2_tracing"
_STAGE4 = "stage4_syncuse"
_STAGE1 = "stage1_baseline"

#: After the first window, a rolling snapshot waits until the run has
#: grown by this fraction of the events seen so far.
WINDOW_GROWTH = 0.5

#: Rolling (non-final) snapshots carry at most this many problems.
TOP_PROBLEMS = 20


class StreamAnalyzer(EventSink):
    """Incremental stage-5 analysis over the live columnar builders.

    ``publish`` is called with each snapshot payload (a JSON-safe
    dict); the daemon routes payloads into the job's ``/events``
    stream, a fleet worker relays them home on its lease heartbeat.
    Payloads are also retained on :attr:`snapshots` (they are small:
    problems are capped at :data:`TOP_PROBLEMS` except on the final
    snapshot, which carries the full ranked list).
    """

    def __init__(self, *, window_events: int = 256,
                 overhead_fraction: float = 0.1,
                 misplaced_min_delay: float = 50e-6,
                 benefit_config=None,
                 publish=None) -> None:
        self.window_events = max(1, int(window_events))
        self.overhead_fraction = float(overhead_fraction)
        self.misplaced_min_delay = misplaced_min_delay
        self.benefit_config = benefit_config
        self.publish = publish

        self.version = 0
        self.snapshots: list[dict] = []
        self.latest: dict | None = None
        self.final: dict | None = None

        self._stage: str | None = None
        self._live: dict[str, object] = {}
        self._finished: dict[str, object] = {}
        self._pending = 0
        self._next_window = self.window_events
        self._floors: dict[str, int] = {}
        self._last_total_benefit = 0.0
        #: Minimum wall gap before the next rolling snapshot; raised
        #: after each snapshot to ``cost / overhead_fraction``.
        self._min_gap = 0.0
        self._started_wall = time.perf_counter()
        self._last_publish_wall = self._started_wall

    # --- EventSink ------------------------------------------------------
    def stage_started(self, stage: str, builder=None) -> None:
        self._stage = stage
        if builder is not None:
            self._live[stage] = builder

    def on_append(self, builder) -> None:
        self._pending += 1
        if self._pending < self._next_window:
            return
        if (self._min_gap
                and (time.perf_counter() - self._last_publish_wall
                     < self._min_gap)):
            return
        self._snapshot(final=False)

    def stage_finished(self, stage: str, data) -> None:
        self._finished[stage] = data
        self._live.pop(stage, None)
        # Stage boundaries want a snapshot (evidence classes appear at
        # boundaries — e.g. the first duplicate-transfer verdicts need
        # the hashing run), but they honour the overhead gap like any
        # other recompute; the finished data simply rides the next one.
        if (self._min_gap
                and (time.perf_counter() - self._last_publish_wall
                     < self._min_gap)):
            return
        self._snapshot(final=False)

    def analysis_completed(self, result) -> None:
        self._snapshot(final=True, result=result)

    # --- evidence assembly ---------------------------------------------
    def _stage3_data(self, stage: str):
        data = self._finished.get(stage)
        if data is not None:
            return data
        builder = self._live.get(stage)
        return builder.finish(execution_time=0.0) if builder is not None else None

    def _partial_stage3(self):
        """Merged partial stage-3 evidence, mirroring ``merge_stage3``:
        sync uses from the memtrace run, transfer hashes from the
        hashing run."""
        from repro.core.records import Stage3Data

        mem = self._stage3_data("stage3_memtrace")
        hsh = self._stage3_data("stage3_hashing")
        return Stage3Data(
            execution_time=0.0,
            sync_uses=mem.sync_uses if mem is not None else [],
            transfer_hashes=hsh.transfer_hashes if hsh is not None else [],
        )

    def _partial_stage4(self):
        from repro.core.records import Stage4Data

        data = self._finished.get(_STAGE4)
        if data is not None:
            return data
        builder = self._live.get(_STAGE4)
        if builder is not None:
            return builder.finish(execution_time=0.0)
        return Stage4Data(execution_time=0.0, first_uses=[])

    def _current_table(self):
        """(table, collection_time, instrumentation_intervals) seen so
        far, or ``(None, 0.0, ())`` before stage 2 produced events."""
        data = self._finished.get(_STAGE2)
        if data is not None:
            return (data.table(), data.execution_time,
                    data.instrumentation_intervals)
        builder = self._live.get(_STAGE2)
        if builder is not None and len(builder):
            table = builder.table_prefix(len(builder))
            return table, float(table.t_exit[-1]), ()
        return None, 0.0, ()

    def _event_counts(self) -> dict[str, int]:
        counts = {"stage1": 0, "stage2": 0, "stage3": 0, "stage4": 0}

        stage1 = self._finished.get(_STAGE1)
        if stage1 is not None:
            counts["stage1"] = sum(s.count for s in stage1.sync_sites)
        elif _STAGE1 in self._live:
            counts["stage1"] = self._live[_STAGE1].wait_count

        stage2 = self._finished.get(_STAGE2)
        if stage2 is not None:
            counts["stage2"] = len(stage2.table())
        elif _STAGE2 in self._live:
            counts["stage2"] = len(self._live[_STAGE2])

        for stage in ("stage3_memtrace", "stage3_hashing"):
            data = self._finished.get(stage)
            if data is not None:
                counts["stage3"] += (len(data.sync_uses)
                                     + len(data.transfer_hashes))
            elif stage in self._live:
                builder = self._live[stage]
                counts["stage3"] += builder.sync_count + builder.hash_count

        stage4 = self._finished.get(_STAGE4)
        if stage4 is not None:
            counts["stage4"] = len(stage4.first_uses)
        elif _STAGE4 in self._live:
            counts["stage4"] = len(self._live[_STAGE4])

        # Monotone floors: a cache-hit or restarted stage must never
        # make a later snapshot report fewer events than an earlier one
        # — the property tests assert this invariant.
        for key, value in counts.items():
            floor = self._floors.get(key, 0)
            counts[key] = max(value, floor)
            self._floors[key] = counts[key]
        counts["total"] = sum(counts[k] for k in
                              ("stage1", "stage2", "stage3", "stage4"))
        return counts

    # --- snapshot -------------------------------------------------------
    def _snapshot(self, *, final: bool, result=None) -> None:
        from repro.core.jsonio import problem_to_json

        t0 = time.perf_counter()
        analysis = result
        if analysis is None:
            table, collection_time, intervals = self._current_table()
            if table is not None and len(table):
                from repro.core.analysis import analyze_columns

                stage1 = self._finished.get(_STAGE1)
                execution_time = (stage1.execution_time if stage1 is not None
                                  else collection_time)
                analysis = analyze_columns(
                    table, self._partial_stage3(), self._partial_stage4(),
                    execution_time=execution_time,
                    collection_time=collection_time,
                    instrumentation_intervals=intervals,
                    misplaced_min_delay=self.misplaced_min_delay,
                    benefit_config=self.benefit_config,
                    materialize_limit=TOP_PROBLEMS,
                )

        counts = self._event_counts()
        # Count and total benefit come from the vectorized benefit
        # pass, which always covers every problem — rolling recomputes
        # only materialize record objects for the displayed top N.
        per_node = (analysis.benefit.per_node
                    if analysis is not None else ())
        problems = analysis.problems if analysis is not None else []
        total_benefit = float(sum(nb.est_benefit for nb in per_node))
        cap = None if final else TOP_PROBLEMS
        now = time.perf_counter()
        age = now - self._last_publish_wall
        window = self._pending
        self.version += 1
        payload = {
            "version": self.version,
            "final": final,
            "stage": self._stage,
            "events_seen": counts,
            "problem_count": len(per_node),
            "problems": [problem_to_json(p) for p in problems[:cap]],
            "total_benefit": total_benefit,
            "benefit_delta": total_benefit - self._last_total_benefit,
            "events_per_second": window / age if age > 0 else 0.0,
            "window_events": window,
            "snapshot_seconds": now - t0,
            "wall_seconds": now - self._started_wall,
        }

        # The streaming layer accounts for itself: recompute wall time
        # goes to the ledger's ``stream`` bucket (the stage it ran
        # inside wears the cost), and the rates/lag/age go to gauges.
        ledger = obs.active_ledger()
        if ledger is not None:
            ledger.charge(self._stage or "stage5_analysis", "stream",
                          now - t0, events=1)
        obs.gauge("stream.events_per_second", payload["events_per_second"])
        obs.gauge("stream.snapshot_age_seconds", age)
        obs.gauge("stream.window_lag_events", window)

        self._pending = 0
        self._next_window = max(
            self.window_events,
            int(counts["total"] * WINDOW_GROWTH),
        )
        if self.overhead_fraction > 0:
            self._min_gap = (now - t0) / self.overhead_fraction
        self._last_total_benefit = total_benefit
        self._last_publish_wall = now
        self.snapshots.append(payload)
        self.latest = payload
        if final:
            self.final = payload
        if self.publish is not None:
            self.publish(payload)
