"""Self-perturbation ledger: what did the tool cost the measurement?

Diogenes' thesis is honest measurement, and honesty starts at home: a
tool that cannot say how much it perturbs the program it measures is
asking to be trusted, not checked.  The ledger keeps per-stage accounts
of the reproduction's own overhead, split into seven buckets:

``callbacks``
    Wall time spent inside instrumentation entry/exit callbacks —
    estimated as *probe hits × calibrated per-fire cost* (counting hits
    is free; timing every fire would itself perturb).
``record``
    Wall time the collection stages spend *storing* each traced event
    — estimated as *events × calibrated per-event record cost*, with
    separate calibrated units for the row engine (one dataclass + meta
    dict per event) and the columnar engine (a handful of appends into
    preallocated columns).  This is the account the collection fast
    path shrinks: same events, roughly an order of magnitude less tool
    time per event.
``hashing``
    Wall time spent computing transfer-payload digests in the stage-3
    hashing run, measured directly around the digest calls.
``tracing``
    Wall time the observability layer spends on itself — spans opened
    and events emitted, charged at the calibrated per-span /
    per-event unit cost.
``analysis``
    Wall time stage 5 spends turning collected data into the report —
    classification, graph build, benefit estimation, grouping, and
    sequence mining — measured directly around the analysis call.
    Unlike the collection buckets this cost is paid *after* the
    measured runs, but it is still tool time the user waits on; the
    columnar analysis core exists to shrink this account.
``stream``
    Wall time the streaming analyzer (:mod:`repro.stream`) spends
    recomputing windowed snapshots while a collection run is still in
    flight, measured directly around each recompute.  The charge lands
    on the stage the snapshot interrupted — streaming is a convenience
    bought with collection-time tool cost, and the ledger says exactly
    how much.
``virtual``
    *Simulated* seconds the virtual clock was charged for modelled
    instrumentation (the ``"api"`` timeline intervals labelled
    ``instrumentation`` / ``loadstore-instr``) — the in-model analogue
    of the wall buckets, and the number §5.3's collection-cost table
    is built from.

Calibration
-----------
Per-unit costs come from a **calibrated no-op probe**: at ledger
creation (or first use) a probe whose callbacks do nothing is fired a
few thousand times under ``perf_counter``, and a throwaway tracer
opens/closes the same number of spans.  The measured unit costs are
stored in the ledger (``calibration``) and reported alongside the
charges, so a reader can audit the estimate, not just the total.

The ledger surfaces as ``meta.overhead`` in exported report JSON —
under ``meta`` precisely so report *bodies* stay byte-identical and
fingerprint-stable whether or not anyone was watching the watcher.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

#: Ledger buckets, in reporting order.
BUCKETS = ("callbacks", "record", "hashing", "tracing", "analysis",
           "stream", "virtual")

#: Iterations used when calibrating unit costs.
CALIBRATION_ITERATIONS = 2000


@dataclass
class LedgerCell:
    """Accumulated cost of one (stage, bucket) account."""

    seconds: float = 0.0
    events: int = 0

    def add(self, seconds: float, events: int) -> None:
        self.seconds += seconds
        self.events += events


def _calibrate_probe(iterations: int) -> float:
    """Measured wall cost of one no-op probe entry/exit pair."""
    from repro.instr.probes import CallRecord, Probe
    from repro.instr.stacks import StackTrace

    probe = Probe(None, entry=lambda rec: None, exit=lambda rec: None,
                  label="ledger-calibration")
    record = CallRecord(name="noop", layer="runtime", t_entry=0.0,
                        depth=0, stack=StackTrace(frames=()))
    record.t_exit = 0.0
    start = time.perf_counter()
    for _ in range(iterations):
        probe.fire_entry(record)
        probe.fire_exit(record)
    elapsed = time.perf_counter() - start
    return elapsed / iterations


def _calibrate_record(iterations: int) -> tuple[float, float]:
    """Measured per-event record cost of both collection engines.

    Returns ``(row_seconds, columnar_seconds)``: the wall cost of
    storing one traced event as a :class:`~repro.core.records.TraceEvent`
    dataclass (the ``record_engine="rows"`` path) versus appending its
    fields into a :class:`~repro.core.colbuild.Stage2Builder` (the
    columnar path).  Both loops store the same logical event, so the
    ratio is the honest per-event speedup the ledger reports.
    """
    from repro.core.colbuild import Stage2Builder
    from repro.core.records import SiteKey, TraceEvent
    from repro.instr.stacks import StackTrace

    stack = StackTrace(frames=())
    site = SiteKey(address_key=(), occurrence=0)
    rows: list = []
    start = time.perf_counter()
    for i in range(iterations):
        rows.append(TraceEvent(
            seq=i, api_name="noop", stack=stack, site=site,
            t_entry=0.0, t_exit=0.0, sync_wait=0.0, is_sync=False,
            is_transfer=False, nbytes=0, direction=""))
    row_unit = (time.perf_counter() - start) / iterations

    builder = Stage2Builder()
    start = time.perf_counter()
    for _ in range(iterations):
        builder.append(stack, 0, "noop", 0.0, 0.0, None)
    columnar_unit = (time.perf_counter() - start) / iterations
    return row_unit, columnar_unit


def _calibrate_span(iterations: int) -> float:
    """Measured wall cost of opening + closing one tracer span."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("calibration"):
            pass
    elapsed = time.perf_counter() - start
    return elapsed / iterations


class PerturbationLedger:
    """Per-stage, per-bucket overhead accounts for one session.

    Charges accumulate under ``(stage, bucket)`` keys; a stage is
    whatever label the charger passes (stage drivers use their probe
    labels' stage, the executor uses job stage names).  All wall
    buckets are in seconds of tool time; ``virtual`` is in simulated
    seconds and must never be summed with the others without saying so.
    """

    def __init__(self, calibrate: bool = True,
                 iterations: int = CALIBRATION_ITERATIONS) -> None:
        self.cells: dict[tuple[str, str], LedgerCell] = {}
        #: Measured per-unit costs (seconds); empty until calibrated.
        self.calibration: dict[str, float] = {}
        #: Loop length of the lazy calibration (:meth:`ensure_calibrated`).
        self.iterations = iterations
        # A service node's slot threads all charge the process ledger.
        self._lock = threading.Lock()
        if calibrate:
            self.calibrate(iterations)

    def calibrate(self, iterations: int = CALIBRATION_ITERATIONS) -> dict:
        """(Re-)measure unit costs with the no-op probe; returns them."""
        record_row, record_columnar = _calibrate_record(iterations)
        self.calibration = {
            "probe_fire_seconds": _calibrate_probe(iterations),
            "record_row_seconds": record_row,
            "record_columnar_seconds": record_columnar,
            "span_seconds": _calibrate_span(iterations),
            "iterations": iterations,
        }
        return self.calibration

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, stage: str, bucket: str, seconds: float,
               events: int = 1) -> None:
        """Add ``seconds`` (and ``events`` occurrences) to an account."""
        if bucket not in BUCKETS:
            raise ValueError(f"unknown ledger bucket {bucket!r}")
        with self._lock:
            cell = self.cells.get((stage, bucket))
            if cell is None:
                cell = self.cells[(stage, bucket)] = LedgerCell()
            cell.add(seconds, events)

    def ensure_calibrated(self) -> None:
        """Calibrate lazily — first charge pays, later ones reuse."""
        with self._lock:
            if not self.calibration:
                self.calibrate(self.iterations)

    def charge_probe_hits(self, stage: str, hits: int) -> None:
        """Charge ``hits`` callback fires at the calibrated unit cost."""
        if hits <= 0:
            return
        self.ensure_calibrated()
        unit = self.calibration["probe_fire_seconds"]
        self.charge(stage, "callbacks", hits * unit, events=hits)

    def charge_record(self, stage: str, events: int,
                      engine: str = "columnar") -> None:
        """Charge ``events`` stored records at the engine's unit cost.

        ``engine`` selects which calibrated unit applies: ``"rows"``
        charges the dataclass-per-event cost, ``"columnar"`` the
        column-append cost.  Same event count, different honest price —
        this is where the collection fast path shows up in
        ``meta.overhead``.
        """
        if events <= 0:
            return
        self.ensure_calibrated()
        key = ("record_columnar_seconds" if engine == "columnar"
               else "record_row_seconds")
        unit = self.calibration.get(key, 0.0)
        if unit > 0.0:
            self.charge(stage, "record", events * unit, events=events)

    def charge_tracing(self, stage: str, spans: int) -> None:
        """Charge ``spans`` span open/closes at the calibrated cost."""
        if spans <= 0:
            return
        self.ensure_calibrated()
        unit = self.calibration["span_seconds"]
        self.charge(stage, "tracing", spans * unit, events=spans)

    def charge_analysis(self, stage: str, seconds: float) -> None:
        """Charge stage-5 analysis wall time (measured, not estimated)."""
        if seconds > 0.0:
            self.charge(stage, "analysis", seconds)

    def charge_virtual(self, stage: str, machine) -> None:
        """Charge the virtual-clock instrumentation cost of one run.

        Reads the machine's CPU timeline for ``"api"`` intervals
        labelled as instrumentation — the simulated seconds the model
        says the probes cost the measured program.
        """
        timeline = machine.timeline
        seconds = (timeline.total("api", "instrumentation")
                   + timeline.total("api", "loadstore-instr"))
        if seconds > 0.0:
            self.charge(stage, "virtual", seconds)

    def merge_json(self, data: dict) -> None:
        """Fold another ledger's :meth:`as_json` export into this one.

        Workers keep their own ledger and ship it home with their
        results; the parent merges so a ``--jobs 4`` run's
        ``meta.overhead`` covers work done in every process.
        """
        for stage, accounts in data.get("stages", {}).items():
            for bucket, cell in accounts.items():
                self.charge(stage, bucket, cell["seconds"],
                            events=cell["events"])
        if not self.calibration and data.get("calibration"):
            self.calibration = dict(data["calibration"])

    # ------------------------------------------------------------------
    # Queries / export
    # ------------------------------------------------------------------
    def stages(self) -> list[str]:
        return sorted({stage for stage, _ in self.cells})

    def stage_wall_seconds(self, stage: str) -> float:
        """Summed *wall* buckets for a stage (``virtual`` excluded)."""
        return sum(cell.seconds for (st, bucket), cell in self.cells.items()
                   if st == stage and bucket != "virtual")

    def total_wall_seconds(self) -> float:
        return sum(cell.seconds for (_, bucket), cell in self.cells.items()
                   if bucket != "virtual")

    def as_json(self) -> dict:
        """Ledger as plain JSON: calibration, per-stage accounts, total."""
        stages: dict[str, dict] = {}
        for stage in self.stages():
            accounts = {}
            for bucket in BUCKETS:
                cell = self.cells.get((stage, bucket))
                if cell is not None:
                    accounts[bucket] = {"seconds": cell.seconds,
                                        "events": cell.events}
            stages[stage] = accounts
        return {
            "calibration": dict(self.calibration),
            "stages": stages,
            "total_wall_seconds": self.total_wall_seconds(),
        }
