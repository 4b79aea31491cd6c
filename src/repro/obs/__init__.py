"""Self-observability for the reproduction's own pipeline.

Diogenes' thesis is *honest measurement*; this package turns that lens
on the tool itself.  It provides

* a structured tracer (:mod:`repro.obs.tracer`) emitting nested spans
  with both wall-time and virtual-time attribution, exportable as
  JSON-lines or a Chrome-trace file (loadable in Perfetto /
  ``chrome://tracing``);
* a metrics registry (:mod:`repro.obs.metrics`) of counters, gauges,
  and histograms, exportable as JSON or Prometheus text format;
* a perturbation ledger (:mod:`repro.obs.ledger`) accounting for the
  tool's own overhead per stage — callbacks, hashing, tracing,
  virtual-clock charges — surfaced as ``meta.overhead`` in exported
  reports;
* a structured event log with flight recorder (:mod:`repro.obs.log`):
  trace-correlated moments in a bounded ring, dumped to disk when a
  stage span closes on an exception;
* a renderer (:mod:`repro.obs.render`) for a human-readable per-stage
  summary table.

Tracing crosses process boundaries: the tracer carries a ``trace_id``
(:mod:`repro.obs.context`), pool workers run their own tracer seeded
with the parent's context, and the executor stitches shipped span
batches into one connected timeline — see ``docs/observability.md``.

Observability is **off by default** and must cost ~nothing when off:
every hook point in the pipeline goes through the module-level helpers
below (:func:`span`, :func:`count`, :func:`gauge`, :func:`observe`),
which reduce to a ``None`` check when no :class:`Observability` bundle
is installed.  Hot paths therefore never build span objects, never
format names, and never touch a dict unless someone asked for
telemetry.

Typical use::

    import repro.obs as obs

    session = obs.enable()                 # install a live bundle
    try:
        report = Diogenes(workload).run()
    finally:
        obs.disable()
    session.tracer.write_chrome_trace("trace.json")
    session.metrics.write_prometheus("metrics.prom")

or, scoped::

    with obs.enabled() as session:
        Diogenes(workload).run()

See ``docs/observability.md`` for naming conventions and exporter
formats.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.ledger import PerturbationLedger
from repro.obs.log import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import _NOOP_HANDLE, Span, Tracer

__all__ = [
    "Observability",
    "active",
    "active_ledger",
    "count",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge",
    "is_enabled",
    "observe",
    "record_collection",
    "record_device",
    "record_intern_tables",
    "record_probe",
    "span",
]


def _default_ledger() -> PerturbationLedger:
    # Calibration is deferred to first use (see record_probe): a bundle
    # created just to collect metrics must not pay two timing loops.
    return PerturbationLedger(calibrate=False)


@dataclass
class Observability:
    """One tracer + metrics registry + ledger + event log, installed
    together as a session.

    ``flight_dir``, when set, arms the flight recorder: a stage span
    closing on an exception dumps the event ring there as JSONL.
    """

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    ledger: PerturbationLedger = field(default_factory=_default_ledger)
    log: EventLog = field(default_factory=EventLog)
    flight_dir: str | None = None

    def __post_init__(self) -> None:
        self.tracer.on_span_error = self._on_span_error

    def _on_span_error(self, span: Span, exc: BaseException) -> None:
        """Span-error hook: log the failure, dump the flight ring."""
        self.log.emit("span.error", trace_id=self.tracer.trace_id,
                      span_id=span.span_id, span=span.name,
                      error=type(exc).__name__)
        if self.flight_dir is not None and span.name.startswith("stage."):
            os.makedirs(self.flight_dir, exist_ok=True)
            path = os.path.join(
                self.flight_dir,
                f"flight-{self.tracer.trace_id}-{span.span_id}.jsonl")
            self.log.dump(path)


#: The installed bundle, or ``None`` (observability off).
_ACTIVE: Observability | None = None

#: Per-thread scoped override (see :func:`enabled`).  A scoped bundle
#: is visible only to the thread that entered the scope: a fleet node
#: runs each job under a job-local tracer in its slot thread while the
#: daemon's HTTP loop keeps recording on the process session, and
#: neither may clobber the other mid-span.
_SCOPED = threading.local()


def enable(obs: Observability | None = None) -> Observability:
    """Install ``obs`` (or a fresh bundle) as the process-wide collector."""
    global _ACTIVE
    _ACTIVE = obs if obs is not None else Observability()
    return _ACTIVE


def disable() -> None:
    """Turn observability off; hook points revert to no-ops.

    Clears the process-wide session *and* this thread's scoped
    override — a forked pool worker inherits both, and its initializer
    calls this to guarantee a clean slate.
    """
    global _ACTIVE
    _ACTIVE = None
    _SCOPED.obs = None


def active() -> Observability | None:
    """The active bundle (thread-scoped first, then process-wide)."""
    scoped = getattr(_SCOPED, "obs", None)
    return scoped if scoped is not None else _ACTIVE


def is_enabled() -> bool:
    return active() is not None


@contextmanager
def enabled(obs: Observability | None = None):
    """Scoped :func:`enable`, confined to the calling thread.

    Restores the previous state on exit.  The override is thread-local
    on purpose: a service job installs its own tracer without
    disconnecting sessions owned by other threads (and without other
    threads' spans landing in the job's trace).
    """
    previous = getattr(_SCOPED, "obs", None)
    bundle = obs if obs is not None else Observability()
    _SCOPED.obs = bundle
    try:
        yield bundle
    finally:
        _SCOPED.obs = previous


# ----------------------------------------------------------------------
# Hook-point helpers.  These are what instrumented pipeline code calls;
# each is a single global read + ``None`` check when observability is
# off (the zero-overhead-when-disabled requirement).
# ----------------------------------------------------------------------

def span(name: str, clock=None, **attrs):
    """Open a span on the active tracer (no-op handle when off).

    ``clock`` is any object with a ``now`` attribute (e.g.
    ``ctx.machine.clock``) used for virtual-time attribution.
    """
    o = active()
    if o is None:
        return _NOOP_HANDLE
    return o.tracer.span(name, clock=clock, **attrs)


def count(name: str, n: int | float = 1, **labels) -> None:
    """Increment a counter on the active registry (no-op when off)."""
    o = active()
    if o is not None:
        o.metrics.counter(name, **labels).inc(n)


def gauge(name: str, value: float, **labels) -> None:
    """Set a gauge on the active registry (no-op when off)."""
    o = active()
    if o is not None:
        o.metrics.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation (no-op when off)."""
    o = active()
    if o is not None:
        o.metrics.histogram(name, **labels).observe(value)


def event(name: str, **fields) -> None:
    """Emit a structured event, stamped with the current trace context.

    No-op when off; when on, the event lands in the session's ring
    buffer carrying the active ``trace_id`` and innermost open span id,
    so a streamed or flight-dumped event can be joined back to the
    trace that produced it.
    """
    o = active()
    if o is not None:
        ctx = o.tracer.current_context()
        o.log.emit(name, trace_id=ctx.trace_id,
                   span_id=ctx.parent_span_id, **fields)


def active_ledger():
    """The session's perturbation ledger, or ``None`` when off.

    Hot paths that must measure their own cost directly (e.g. stage-3
    payload hashing) check this once per region: a ``None`` means skip
    the ``perf_counter`` pair entirely.
    """
    o = active()
    return o.ledger if o is not None else None


def record_probe(probe, stage: str | None = None) -> None:
    """Flush a probe's accumulated hit count into ``instr.probe_hits``.

    Call after detaching the probe — :class:`repro.instr.probes.Probe`
    counts its own hits, so the hot path needs no extra work.  Flushing
    is delta-based (a side attribute remembers what was already
    counted), so repeated attach/detach cycles never double-count.

    When ``stage`` is given, the flushed hits are also charged to the
    perturbation ledger's ``callbacks`` bucket at the calibrated
    per-fire cost.
    """
    o = active()
    if o is None:
        return
    flushed = getattr(probe, "_obs_hits_flushed", 0)
    delta = probe.hits - flushed
    if delta > 0:
        probe._obs_hits_flushed = probe.hits
        o.metrics.counter("instr.probe_hits", probe=probe.label).inc(delta)
        if stage is not None:
            o.ledger.charge_probe_hits(stage, delta)


def record_collection(stage: str, events: int,
                      engine: str = "columnar") -> None:
    """Charge ``events`` stored records to the ledger's ``record`` bucket.

    Stage drivers call this once at run end with the number of records
    the run stored and which engine stored them; the ledger prices each
    event at the engine's calibrated unit cost (a dataclass build for
    ``"rows"``, a column append for ``"columnar"``).  No-op when off.
    """
    o = active()
    if o is not None:
        o.ledger.charge_record(stage, events, engine)


def record_intern_tables() -> None:
    """Publish the intern-table sizes as gauges.

    ``instr.intern_entries``, labelled by table: the capped frame and
    symbol caches, and the stack tables of the process-wide interner
    plus every job's open interning scope — so a long-lived service
    can show that its tables stay bounded across jobs.  No-op when off.
    """
    o = active()
    if o is None:
        return
    from repro.instr.stacks import intern_table_sizes
    for table, size in intern_table_sizes().items():
        o.metrics.gauge("instr.intern_entries", table=table).set(size)


def record_run_overhead(stage: str, machine) -> None:
    """Charge a finished run's modelled instrumentation cost.

    Reads the machine's CPU timeline for the ``"api"`` intervals the
    probes charged to the virtual clock and books them under the
    ledger's ``virtual`` bucket — the simulated seconds the tool cost
    the measured program, per stage.  No-op when off.
    """
    o = active()
    if o is not None:
        o.ledger.charge_virtual(stage, machine)


def record_device(device) -> None:
    """Flush a simulated GPU's batched scheduling telemetry.

    The simulator's per-operation paths (``Engine.schedule``,
    ``GpuDevice.enqueue``) keep plain counters instead of emitting
    metrics — those two calls run once per device operation and used
    to dominate telemetry cost.  Stage drivers call this once at run
    end to publish the totals: per-engine ``sim.engine_busy_seconds`` /
    ``sim.engine_ops_executed`` gauges and the per-kind
    ``sim.ops_enqueued`` counter.  Counter flushing is delta-based
    (mirroring :func:`record_probe`), so flushing the same device
    twice never double-counts.
    """
    o = active()
    if o is None:
        return
    for engine in device.engines.values():
        o.metrics.gauge("sim.engine_busy_seconds",
                        engine=engine.name).set(engine.busy_time)
        o.metrics.gauge("sim.engine_ops_executed",
                        engine=engine.name).set(engine.ops_executed)
    flushed = getattr(device, "_obs_enqueued_flushed", None) or {}
    for kind, total in device.ops_enqueued_by_kind.items():
        delta = total - flushed.get(kind, 0)
        if delta > 0:
            o.metrics.counter("sim.ops_enqueued",
                              kind=kind.name.lower()).inc(delta)
    device._obs_enqueued_flushed = dict(device.ops_enqueued_by_kind)
